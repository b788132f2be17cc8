// Table 1 reproduction: execution time for LDBC short query 1 (SQ1) and
// complex query 2 (CQ2), unoptimized vs fully optimized, across the four
// engine configurations standing in for the paper's systems:
//
//   paper          this repo
//   ------         ------------------------------------------
//   Neo4j          graph engine (PGIR traversal)   [unopt only — it runs
//                  the original Cypher, as in the paper]
//   Soufflé        Datalog engine (semi-naive bottom-up)
//   DuckDB         SQL engine, vectorized mode
//   HyPer          SQL engine, tuple-pipeline mode
//
// docs/benchmarks.md lists this bench beside the others and says how to
// run and gate it. Scale factor defaults to 1.0 (RAQLET_SF env overrides).

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>

#include "ldbc/ldbc.h"
#include "raqlet/compiler.h"

#define RAQLET_CHECK(expr)                                    \
  do {                                                        \
    ::raqlet::Status _st = (expr);                            \
    if (!_st.ok()) {                                          \
      std::fprintf(stderr, "%s\n", _st.ToString().c_str());   \
      std::abort();                                           \
    }                                                         \
  } while (false)

namespace {

using raqlet::CompileOptions;
using raqlet::CompiledQuery;
using raqlet::Compiler;
using raqlet::Database;

double ScaleFactor() {
  const char* env = std::getenv("RAQLET_SF");
  return env != nullptr ? std::atof(env) : 1.0;
}

// Shared workload, built once.
struct Workload {
  Compiler compiler;
  Database db;
  CompiledQuery sq1_unopt, sq1_opt, cq2_unopt, cq2_opt;
  std::unique_ptr<raqlet::engine::GraphStore> store;

  static Workload& Get() {
    static Workload& instance = *new Workload();
    return instance;
  }

 private:
  Workload() {
    RAQLET_CHECK(compiler.LoadPgSchema(raqlet::ldbc::SnbSchema()));
    RAQLET_CHECK(compiler.CreateEdbs(&db));
    raqlet::ldbc::GeneratorOptions gen;
    gen.scale_factor = ScaleFactor();
    RAQLET_CHECK(GenerateSnbData(compiler.dl_schema(), &db, gen));

    CompileOptions params;
    params.parameters["personId"] =
        raqlet::dlir::Constant::Number(raqlet::ldbc::SamplePersonId(gen));
    params.parameters["maxDate"] =
        raqlet::dlir::Constant::Number(raqlet::ldbc::MidCreationDate());

    params.opt_level = 0;
    sq1_unopt = Compile(raqlet::ldbc::ShortQuery1(), params);
    cq2_unopt = Compile(raqlet::ldbc::ComplexQuery2(), params);
    params.opt_level = 1;
    sq1_opt = Compile(raqlet::ldbc::ShortQuery1(), params);
    cq2_opt = Compile(raqlet::ldbc::ComplexQuery2(), params);
    auto built = compiler.BuildGraphStore(db);
    if (!built.ok()) std::abort();
    store = std::make_unique<raqlet::engine::GraphStore>(
        std::move(built).value());
  }

  CompiledQuery Compile(const char* text, const CompileOptions& options) {
    auto unit = compiler.CompileCypher(text, options);
    if (!unit.ok()) {
      std::fprintf(stderr, "compile failed: %s\n",
                   unit.status().ToString().c_str());
      std::abort();
    }
    return std::move(unit).value();
  }
};

const CompiledQuery& Unit(const std::string& query, bool optimized) {
  Workload& w = Workload::Get();
  if (query == "SQ1") return optimized ? w.sq1_opt : w.sq1_unopt;
  return optimized ? w.cq2_opt : w.cq2_unopt;
}

void CheckOk(const raqlet::Status& status, benchmark::State& state) {
  if (!status.ok()) state.SkipWithError(status.ToString().c_str());
}

void BM_Graph(benchmark::State& state, const std::string& query) {
  Workload& w = Workload::Get();
  const CompiledQuery& unit = Unit(query, /*optimized=*/false);
  for (auto _ : state) {
    auto result = w.compiler.RunOnGraph(unit.pgir, *w.store, &w.db);
    CheckOk(result.status(), state);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(query + " on graph engine (Neo4j stand-in, original Cypher)");
}

void BM_Datalog(benchmark::State& state, const std::string& query,
                bool optimized) {
  Workload& w = Workload::Get();
  const CompiledQuery& unit = Unit(query, optimized);
  for (auto _ : state) {
    auto result = w.compiler.RunOnDatalog(unit.optimized, &w.db);
    CheckOk(result.status(), state);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(query + (optimized ? " optimized" : " unoptimized") +
                 " on Datalog engine (Soufflé stand-in)");
}

void BM_Sql(benchmark::State& state, const std::string& query, bool optimized,
            raqlet::engine::SqlMode mode) {
  Workload& w = Workload::Get();
  const CompiledQuery& unit = Unit(query, optimized);
  for (auto _ : state) {
    auto result = w.compiler.RunOnSql(unit.optimized, &w.db, mode);
    CheckOk(result.status(), state);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(query + (optimized ? " optimized" : " unoptimized") +
                 (mode == raqlet::engine::SqlMode::kVectorized
                      ? " on SQL engine, vectorized (DuckDB stand-in)"
                      : " on SQL engine, tuple pipeline (HyPer stand-in)"));
}

// Vectorized SQL with batch partitioning across the runtime's thread pool
// (no Table-1 analogue; tracks what multicore buys the DuckDB stand-in).
void BM_SqlThreads(benchmark::State& state, const std::string& query,
                   int threads) {
  Workload& w = Workload::Get();
  const CompiledQuery& unit = Unit(query, /*optimized=*/true);
  for (auto _ : state) {
    auto result =
        w.compiler.RunOnSql(unit.optimized, &w.db,
                            raqlet::engine::SqlMode::kVectorized, nullptr,
                            threads);
    CheckOk(result.status(), state);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(query + " optimized on SQL engine, vectorized, " +
                 std::to_string(threads) + " threads");
}

#define ROW(query)                                                          \
  BENCHMARK_CAPTURE(BM_Graph, query##_neo4j, #query)                        \
      ->Unit(benchmark::kMillisecond);                                      \
  BENCHMARK_CAPTURE(BM_Datalog, query##_souffle_unopt, #query, false)       \
      ->Unit(benchmark::kMillisecond);                                      \
  BENCHMARK_CAPTURE(BM_Datalog, query##_souffle_opt, #query, true)          \
      ->Unit(benchmark::kMillisecond);                                      \
  BENCHMARK_CAPTURE(BM_Sql, query##_duckdb_unopt, #query, false,            \
                    raqlet::engine::SqlMode::kVectorized)                   \
      ->Unit(benchmark::kMillisecond);                                      \
  BENCHMARK_CAPTURE(BM_Sql, query##_duckdb_opt, #query, true,               \
                    raqlet::engine::SqlMode::kVectorized)                   \
      ->Unit(benchmark::kMillisecond);                                      \
  BENCHMARK_CAPTURE(BM_Sql, query##_hyper_unopt, #query, false,             \
                    raqlet::engine::SqlMode::kTuplePipeline)                \
      ->Unit(benchmark::kMillisecond);                                      \
  BENCHMARK_CAPTURE(BM_Sql, query##_hyper_opt, #query, true,                \
                    raqlet::engine::SqlMode::kTuplePipeline)                \
      ->Unit(benchmark::kMillisecond)

ROW(SQ1);
ROW(CQ2);

BENCHMARK_CAPTURE(BM_SqlThreads, SQ1_duckdb_opt_4threads, "SQ1", 4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SqlThreads, CQ2_duckdb_opt_4threads, "CQ2", 4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
