#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <set>
#include <utility>

#include "cypher/parser.h"
#include "engine/datalog/engine.h"
#include "engine/datalog/incremental.h"
#include "engine/graph/executor.h"
#include "engine/graph/graph_store.h"
#include "engine/sql/executor.h"
#include "ldbc/ldbc.h"
#include "pgir/pgir.h"
#include "pgir/pgir_to_dlir.h"
#include "raqlet/compiler.h"
#include "sqir/dlir_to_sqir.h"

namespace perfbench {
namespace {

using raqlet::Database;
using raqlet::DeltaBatch;
using raqlet::Result;
using raqlet::Status;
using raqlet::Tuple;
using raqlet::Value;
using raqlet::engine::ResultTable;

constexpr char kKnows[] = "Person_KNOWS_Person";
constexpr char kViewRelation[] = "knows_reach";

// Whole-graph reachability over KNOWS, maintained by delta_stream.
constexpr char kViewProgram[] = R"(
.decl Person_KNOWS_Person(id1: number, id2: number, id: number, creationDate: number)
.input Person_KNOWS_Person
.decl knows_reach(x: number, y: number)
.output knows_reach
knows_reach(x, y) :- Person_KNOWS_Person(x, y, _, _).
knows_reach(x, z) :- knows_reach(x, y), Person_KNOWS_Person(y, z, _, _).
)";

// Input streams of RoundSeed, one per use.
constexpr uint64_t kPersonStream = 1;
constexpr uint64_t kDeltaStream = 2;
constexpr uint64_t kStorageStream = 3;

void Report(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
}

// ---------------------------------------------------------------------------
// Query ops: one Cypher class = (text, opt level, engine, threads).
// ---------------------------------------------------------------------------

enum class Engine { kGraph, kDatalog, kSqlVectorized, kSqlTuple };

struct QuerySpec {
  std::string name;
  const char* text;
  int opt_level;
  Engine engine;
  int threads;
};

// Runs Cypher text → rows against one Compiler + Database, either through
// the raqlet::Compiler facade (untraced) or by calling each layer's
// public entry point inside its own span (traced).
class QueryRunner {
 public:
  QueryRunner(const raqlet::Compiler* compiler, Database* db,
              const raqlet::engine::GraphStore* store)
      : compiler_(compiler), db_(db), store_(store) {}

  Result<ResultTable> Run(const QuerySpec& spec,
                          const raqlet::CompileOptions& options,
                          Tracer* tracer) {
    if (tracer == nullptr) return RunFacade(spec, options);
    Result<ResultTable> result = Status::Internal("not run");
    double layer_ms = 0;
    {
      tracer->NextOp(spec.name);
      Tracer::Scope op(tracer, "op");
      size_t first = tracer->spans().size();
      result = RunLayered(spec, options, tracer);
      for (size_t i = first; i < tracer->spans().size(); ++i) {
        const Tracer::Span& s = tracer->spans()[i];
        if (s.parent == static_cast<int>(first) - 1) {
          layer_ms += MsBetween(s.start, s.end);
        }
      }
    }
    // Compared with the facade's latency for the class to give what the
    // facade adds beyond the layer calls (raqlet.overhead_ms).
    if (result.ok()) tracer->times["layers." + spec.name].push_back(layer_ms);
    return result;
  }

 private:
  Result<ResultTable> RunFacade(const QuerySpec& spec,
                                const raqlet::CompileOptions& options) {
    raqlet::CompileOptions opts = options;
    opts.opt_level = spec.opt_level;
    RAQLET_ASSIGN_OR_RETURN(raqlet::CompiledQuery unit,
                            compiler_->CompileCypher(spec.text, opts));
    switch (spec.engine) {
      case Engine::kGraph:
        return compiler_->RunOnGraph(unit.pgir, *store_, db_);
      case Engine::kDatalog: {
        raqlet::engine::EvalOptions eval;
        eval.num_threads = spec.threads;
        return compiler_->RunOnDatalog(unit.optimized, db_, nullptr, eval);
      }
      case Engine::kSqlVectorized:
      case Engine::kSqlTuple:
        return compiler_->RunOnSql(unit.optimized, db_, SqlMode(spec),
                                   nullptr, spec.threads);
    }
    return Status::Internal("unknown engine");
  }

  Result<ResultTable> RunLayered(const QuerySpec& spec,
                                 const raqlet::CompileOptions& options,
                                 Tracer* t) {
    raqlet::cypher::Query ast;
    {
      Tracer::Scope s(t, "cypher.parse");
      RAQLET_ASSIGN_OR_RETURN(ast, raqlet::cypher::ParseQuery(spec.text));
    }
    raqlet::pgir::LowerOptions lower;
    lower.parameters = options.parameters;
    raqlet::pgir::PgirQuery pgir;
    {
      Tracer::Scope s(t, "pgir.lower");
      RAQLET_ASSIGN_OR_RETURN(pgir, raqlet::pgir::LowerCypher(ast, lower));
    }
    raqlet::dlir::Program dlir;
    {
      Tracer::Scope s(t, "pgir.translate");
      RAQLET_ASSIGN_OR_RETURN(
          dlir, raqlet::pgir::TranslateToDlir(pgir, compiler_->dl_schema()));
    }
    t->Count("pgir.dlir_rules", static_cast<double>(dlir.rules.size()));
    raqlet::dlir::Program optimized;
    {
      Tracer::Scope s(t, "opt.optimize");
      RAQLET_ASSIGN_OR_RETURN(optimized,
                              compiler_->Optimize(dlir, spec.opt_level));
    }
    t->Count("opt.rules_out", static_cast<double>(optimized.rules.size()));

    double cpu0 = ProcessCpuMs();
    Clock::time_point wall0 = Clock::now();
    Result<ResultTable> result = Status::Internal("not run");
    switch (spec.engine) {
      case Engine::kGraph: {
        raqlet::engine::GraphStats stats;
        {
          Tracer::Scope s(t, "graph.execute");
          raqlet::engine::GraphEngine eng(store_, &compiler_->dl_schema(),
                                          db_);
          result = eng.Run(pgir, &stats);
        }
        t->Count("graph.rows_expanded", static_cast<double>(stats.rows_expanded));
        t->Count("graph.bfs_visits", static_cast<double>(stats.bfs_visits));
        t->Count("graph.closure_cache_hits",
                 static_cast<double>(stats.closure_cache_hits));
        t->Count("graph.closure_cache_misses",
                 static_cast<double>(stats.closure_cache_misses));
        break;
      }
      case Engine::kDatalog: {
        raqlet::engine::EvalStats stats;
        Status status;
        {
          Tracer::Scope s(t, "datalog.execute");
          status = DatalogFor(spec.threads).Run(optimized, db_, &stats);
        }
        t->Count("datalog.rounds", static_cast<double>(stats.fixpoint_rounds));
        t->Count("datalog.tuples_considered",
                 static_cast<double>(stats.tuples_considered));
        t->Count("datalog.tuples_inserted",
                 static_cast<double>(stats.tuples_inserted));
        result = status.ok() ? OutputRows(optimized) : Result<ResultTable>(status);
        break;
      }
      case Engine::kSqlVectorized:
      case Engine::kSqlTuple: {
        raqlet::sqir::SqirProgram sqir;
        {
          Tracer::Scope s(t, "sqir.translate");
          RAQLET_ASSIGN_OR_RETURN(sqir, raqlet::sqir::TranslateToSqir(optimized));
        }
        raqlet::engine::SqlStats stats;
        wall0 = Clock::now();
        cpu0 = ProcessCpuMs();
        {
          Tracer::Scope s(t, "sql.execute");
          result = SqlFor(SqlMode(spec), spec.threads).Run(sqir, db_, &stats);
        }
        t->Count("sql.rows_scanned", static_cast<double>(stats.rows_scanned));
        t->Count("sql.rows_materialized",
                 static_cast<double>(stats.rows_materialized));
        t->Count("sql.iterations",
                 static_cast<double>(stats.recursive_iterations));
        break;
      }
    }
    t->times["runtime.cpu_ms"].push_back(ProcessCpuMs() - cpu0);
    t->times["runtime.wall_ms"].push_back(MsBetween(wall0, Clock::now()));
    return result;
  }

  // The rows of the program's single output relation, as the facade's
  // RunOnDatalog returns them.
  Result<ResultTable> OutputRows(const raqlet::dlir::Program& program) {
    std::vector<std::string> outputs = program.OutputRelations();
    if (outputs.size() != 1) {
      return Status::InvalidArgument("expected exactly one output relation");
    }
    RAQLET_ASSIGN_OR_RETURN(const raqlet::Relation* rel,
                            db_->GetRelation(outputs[0]));
    ResultTable table;
    for (const raqlet::Column& col : rel->schema().columns) {
      table.columns.push_back(col.name);
    }
    table.rows = rel->MaterializeRows();
    return table;
  }

  static raqlet::engine::SqlMode SqlMode(const QuerySpec& spec) {
    return spec.engine == Engine::kSqlTuple
               ? raqlet::engine::SqlMode::kTuplePipeline
               : raqlet::engine::SqlMode::kVectorized;
  }

  const raqlet::engine::DatalogEngine& DatalogFor(int threads) {
    std::unique_ptr<raqlet::engine::DatalogEngine>& eng = datalog_[threads];
    if (eng == nullptr) {
      raqlet::engine::EvalOptions options;
      options.num_threads = threads;
      eng = std::make_unique<raqlet::engine::DatalogEngine>(options);
    }
    return *eng;
  }

  const raqlet::engine::SqlEngine& SqlFor(raqlet::engine::SqlMode mode,
                                          int threads) {
    std::unique_ptr<raqlet::engine::SqlEngine>& eng =
        sql_[{static_cast<int>(mode), threads}];
    if (eng == nullptr) {
      raqlet::engine::SqlOptions options;
      options.mode = mode;
      options.num_threads = threads;
      eng = std::make_unique<raqlet::engine::SqlEngine>(options);
    }
    return *eng;
  }

  const raqlet::Compiler* compiler_;
  Database* db_;
  const raqlet::engine::GraphStore* store_;
  std::map<int, std::unique_ptr<raqlet::engine::DatalogEngine>> datalog_;
  std::map<std::pair<int, int>, std::unique_ptr<raqlet::engine::SqlEngine>>
      sql_;
};

// What the output checks need from one query op.
struct QueryOutcome {
  bool ok = false;
  uint64_t fingerprint = 0;
  std::set<int64_t> ids;  // first column, when numeric
};

// Times one query op into `rec`; the outcome is computed with the clock
// paused.
QueryOutcome TimedQuery(QueryRunner* runner, const QuerySpec& spec,
                        const raqlet::CompileOptions& options,
                        const raqlet::SymbolTable& symbols, size_t cls,
                        Recorder* rec, Tracer* tracer) {
  Clock::time_point t0 = Clock::now();
  Result<ResultTable> result = runner->Run(spec, options, tracer);
  double ms = MsBetween(t0, Clock::now());
  PauseScope pause(rec);
  // A traced op's latency is its root span.
  if (tracer != nullptr) ms = tracer->LastOpMs();
  rec->Add(cls, ms, result.ok());
  QueryOutcome out;
  if (!result.ok()) {
    Report(spec.name, result.status());
    return out;
  }
  out.ok = true;
  out.fingerprint = Fingerprint(result.value().rows, symbols);
  for (const Tuple& row : result.value().rows) {
    if (!row.empty() && row[0].kind() == raqlet::ValueType::kNumber) {
      out.ids.insert(row[0].AsNumber());
    }
  }
  return out;
}

// Marks every op whose fingerprint differs from the first successful op's.
void CheckAgreement(const std::vector<QueryOutcome>& outcomes, size_t begin,
                    size_t end, const std::string& what, Recorder* rec) {
  const QueryOutcome* ref = nullptr;
  for (size_t i = begin; i < end; ++i) {
    if (!outcomes[i].ok) continue;
    if (ref == nullptr) {
      ref = &outcomes[i];
    } else if (outcomes[i].fingerprint != ref->fingerprint) {
      std::fprintf(stderr, "perfbench: %s: engines disagree (class %zu)\n",
                   what.c_str(), i);
      rec->MarkWrong();
    }
  }
}

raqlet::CompileOptions Params(int64_t person_id) {
  raqlet::CompileOptions options;
  options.parameters["personId"] = raqlet::dlir::Constant::Number(person_id);
  options.parameters["maxDate"] =
      raqlet::dlir::Constant::Number(raqlet::ldbc::MidCreationDate());
  return options;
}

int64_t DrawPerson(std::mt19937_64* rng, int persons) {
  return 1 + static_cast<int64_t>((*rng)() % static_cast<uint64_t>(persons));
}

// Shared set-up of the LDBC-backed workloads: schema, generated data (the
// generator's own fixed seed, so the graph is the same for every run
// seed), graph store, the query runner over them, and the persons in
// KNOWS-degree order for Person().
struct LdbcFixture {
  raqlet::Compiler compiler;
  Database db;
  std::unique_ptr<raqlet::engine::GraphStore> store;
  std::unique_ptr<QueryRunner> runner;
  int persons = 0;
  std::vector<int64_t> by_degree;
  double offset = 0;

  Status Build(double scale_factor, uint64_t seed) {
    RAQLET_RETURN_IF_ERROR(compiler.LoadPgSchema(raqlet::ldbc::SnbSchema()));
    RAQLET_RETURN_IF_ERROR(compiler.CreateEdbs(&db));
    raqlet::ldbc::GeneratorOptions gen;
    gen.scale_factor = scale_factor;
    persons = gen.persons();
    RAQLET_RETURN_IF_ERROR(
        raqlet::ldbc::GenerateSnbData(compiler.dl_schema(), &db, gen));
    RAQLET_ASSIGN_OR_RETURN(raqlet::engine::GraphStore built,
                            compiler.BuildGraphStore(db));
    store = std::make_unique<raqlet::engine::GraphStore>(std::move(built));
    runner = std::make_unique<QueryRunner>(&compiler, &db, store.get());

    RAQLET_ASSIGN_OR_RETURN(const raqlet::Relation* knows,
                            db.GetRelation(kKnows));
    std::vector<std::pair<int, int64_t>> degree(persons);
    for (int i = 0; i < persons; ++i) degree[i] = {0, i + 1};
    for (const Tuple& row : knows->MaterializeRows()) {
      ++degree[row[0].AsNumber() - 1].first;
      ++degree[row[1].AsNumber() - 1].first;
    }
    std::sort(degree.begin(), degree.end());
    by_degree.clear();
    for (const auto& [d, id] : degree) by_degree.push_back(id);
    offset = static_cast<double>(RoundSeed(seed, kPersonStream, 0) >> 11) *
             0x1.0p-53;
    return Status::OK();
  }

  // $personId for read `slot` of `slots` in round `round`. The persons in
  // KNOWS-degree order are visited along a golden-ratio sequence from a
  // seeded start: any stretch of consecutive rounds covers the degree
  // range evenly, so a class meets hub persons at the same rate in every
  // run, while the seed decides which person comes when. (Independent
  // draws would let the share of hubs, and with it a class's tail, vary
  // from seed to seed.)
  int64_t Person(uint64_t round, int slot = 0, int slots = 1) const {
    constexpr double kGolden = 0.6180339887498949;
    double x = offset + std::fmod(static_cast<double>(round) * kGolden, 1.0) +
               static_cast<double>(slot) / slots;
    x -= std::floor(x);
    return by_degree[static_cast<size_t>(x * by_degree.size())];
  }
};

// One round of a query-only workload: every class once, in order, all
// with the round's parameters.
std::vector<QueryOutcome> RunSpecs(LdbcFixture* fx,
                                   const std::vector<QuerySpec>& specs,
                                   const raqlet::CompileOptions& params,
                                   Recorder* rec, Tracer* tracer) {
  std::vector<QueryOutcome> outcomes;
  for (size_t i = 0; i < specs.size(); ++i) {
    outcomes.push_back(TimedQuery(fx->runner.get(), specs[i], params,
                                  fx->db.symbols(), i, rec, tracer));
  }
  return outcomes;
}

std::vector<OpClass> QueryClasses(const std::vector<QuerySpec>& specs) {
  std::vector<OpClass> out;
  for (const QuerySpec& spec : specs) out.push_back({spec.name, false, {}});
  return out;
}

// ---------------------------------------------------------------------------
// table1: the paper's Table 1 as traffic.
// ---------------------------------------------------------------------------

class Table1Workload : public Workload {
 public:
  explicit Table1Workload(uint64_t seed) : seed_(seed) {
    const std::pair<const char*, const char*> queries[] = {
        {"sq1", raqlet::ldbc::ShortQuery1()},
        {"cq2", raqlet::ldbc::ComplexQuery2()}};
    const std::pair<Engine, const char*> engines[] = {
        {Engine::kDatalog, "datalog"},
        {Engine::kSqlVectorized, "sqlvec"},
        {Engine::kSqlTuple, "sqltuple"}};
    for (const auto& [query, text] : queries) {
      specs_.push_back(
          {std::string(query) + ".graph.o0", text, 0, Engine::kGraph, 1});
      for (const auto& [engine, label] : engines) {
        for (int opt : {0, 1}) {
          specs_.push_back({std::string(query) + "." + label + ".o" +
                                std::to_string(opt),
                            text, opt, engine, 1});
        }
      }
    }
  }

  Status Setup() override { return fx_.Build(1.0, seed_); }
  std::vector<OpClass> Classes() const override { return QueryClasses(specs_); }
  Database* db() override { return &fx_.db; }
  int persons() const override { return fx_.persons; }

  void RunRound(uint64_t round, Recorder* rec, Tracer* tracer) override {
    raqlet::CompileOptions params = Params(fx_.Person(round));
    std::vector<QueryOutcome> outcomes =
        RunSpecs(&fx_, specs_, params, rec, tracer);
    PauseScope pause(rec);
    size_t half = specs_.size() / 2;
    CheckAgreement(outcomes, 0, half, "sq1", rec);
    CheckAgreement(outcomes, half, specs_.size(), "cq2", rec);
  }

 private:
  uint64_t seed_;
  LdbcFixture fx_;
  std::vector<QuerySpec> specs_;
};

// ---------------------------------------------------------------------------
// closure: whole-graph recursion on KNOWS.
// ---------------------------------------------------------------------------

class ClosureWorkload : public Workload {
 public:
  explicit ClosureWorkload(uint64_t seed) : seed_(seed) {
    const char* reach = raqlet::ldbc::ReachabilityQuery();
    specs_ = {
        {"reach.datalog.o1.t2", reach, 1, Engine::kDatalog, 2},
        {"reach.sqlvec.o1.t2", reach, 1, Engine::kSqlVectorized, 2},
        {"reach.graph", reach, 1, Engine::kGraph, 1},
        {"shortest.datalog.o1.t2", raqlet::ldbc::ShortestPathQuery(), 1,
         Engine::kDatalog, 2},
    };
  }

  Status Setup() override { return fx_.Build(0.3, seed_); }
  std::vector<OpClass> Classes() const override { return QueryClasses(specs_); }
  Database* db() override { return &fx_.db; }
  int persons() const override { return fx_.persons; }

  void RunRound(uint64_t round, Recorder* rec, Tracer* tracer) override {
    raqlet::CompileOptions params = Params(fx_.Person(round));
    std::vector<QueryOutcome> outcomes =
        RunSpecs(&fx_, specs_, params, rec, tracer);
    PauseScope pause(rec);
    CheckAgreement(outcomes, 0, 3, "reach", rec);
    // shortestPath: the Datalog @min lattice against the graph engine's
    // BFS for the same person (an untimed oracle op).
    const QueryOutcome& sp = outcomes[3];
    if (!sp.ok) return;
    QuerySpec oracle = specs_[3];
    oracle.engine = Engine::kGraph;
    Result<ResultTable> bfs = fx_.runner->Run(oracle, params, nullptr);
    if (!bfs.ok() ||
        Fingerprint(bfs.value().rows, fx_.db.symbols()) != sp.fingerprint) {
      std::fprintf(stderr, "perfbench: shortest: datalog disagrees with BFS\n");
      rec->MarkWrong();
    }
  }

 private:
  uint64_t seed_;
  LdbcFixture fx_;
  std::vector<QuerySpec> specs_;
};

// ---------------------------------------------------------------------------
// delta_stream: a maintained reachability view under seeded base deltas,
// each followed by a bound point read.
// ---------------------------------------------------------------------------

struct DeltaCycle {
  DeltaBatch insert;      // +1% fresh edges
  DeltaBatch churn;       // −½% existing edges, +½% fresh edges
  DeltaBatch remove;      // undoes insert
  DeltaBatch churn_undo;  // undoes churn
};

// Draws one cycle over `base` (the initial KNOWS rows). Fresh edges join
// two distinct persons not already linked; applying the four batches in
// order returns KNOWS to `base`.
DeltaCycle DrawDeltaCycle(const std::vector<Tuple>& base, int persons,
                          uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::set<std::pair<int64_t, int64_t>> used;
  for (const Tuple& row : base) used.insert({row[0].AsNumber(), row[1].AsNumber()});
  int64_t next_id = 1000000000000;
  auto fresh = [&](size_t count) {
    std::vector<Tuple> out;
    while (out.size() < count) {
      int64_t a = DrawPerson(&rng, persons);
      int64_t b = DrawPerson(&rng, persons);
      if (a == b || !used.insert({a, b}).second) continue;
      out.push_back({Value::Number(a), Value::Number(b),
                     Value::Number(++next_id),
                     Value::Number(raqlet::ldbc::MidCreationDate())});
    }
    return out;
  };
  size_t one_percent = std::max<size_t>(1, base.size() / 100);
  size_t half_percent = std::max<size_t>(1, base.size() / 200);
  std::vector<Tuple> inserted = fresh(one_percent);
  std::vector<Tuple> churn_adds = fresh(half_percent);
  std::vector<Tuple> churn_removes;
  std::set<size_t> picked;
  while (churn_removes.size() < half_percent) {
    size_t i = rng() % base.size();
    if (picked.insert(i).second) churn_removes.push_back(base[i]);
  }
  DeltaCycle cycle;
  cycle.insert.relations.push_back({kKnows, inserted, {}});
  cycle.churn.relations.push_back({kKnows, churn_adds, churn_removes});
  cycle.remove.relations.push_back({kKnows, {}, inserted});
  cycle.churn_undo.relations.push_back({kKnows, churn_removes, churn_adds});
  return cycle;
}

Result<std::vector<Tuple>> KnowsRows(Database* db) {
  RAQLET_ASSIGN_OR_RETURN(const raqlet::Relation* rel, db->GetRelation(kKnows));
  return rel->MaterializeRows();
}

// A Database holding only a copy of KNOWS.
Result<std::unique_ptr<Database>> CopyKnows(Database* source) {
  RAQLET_ASSIGN_OR_RETURN(const raqlet::Relation* rel,
                          source->GetRelation(kKnows));
  auto copy = std::make_unique<Database>();
  RAQLET_ASSIGN_OR_RETURN(raqlet::Relation * dst,
                          copy->CreateRelation(rel->schema()));
  RAQLET_RETURN_IF_ERROR(dst->InsertBatch(rel->MaterializeRows()).status());
  return copy;
}

class DeltaStreamWorkload : public Workload {
 public:
  // One read class per preceding delta: a read after a ~150 ms removal
  // pays for what the removal left behind, a read after a ~7 ms insert
  // does not, and one class holding both would have a two-humped
  // distribution whose median jumps between the humps.
  explicit DeltaStreamWorkload(uint64_t seed) : seed_(seed) {
    for (const char* delta : kDeltaNames) {
      bool reach = reads_.size() % 2 == 0;  // reach after insert/remove
      reads_.push_back(
          {std::string(reach ? "read.reach" : "read.3hop") + ".after_" + delta,
           reach ? raqlet::ldbc::ReachabilityQuery()
                 : raqlet::ldbc::FriendsWithinThreeHops(),
           2, Engine::kDatalog, 1});
    }
  }

  Status Setup() override {
    RAQLET_RETURN_IF_ERROR(fx_.Build(0.3, seed_));
    RAQLET_ASSIGN_OR_RETURN(base_, KnowsRows(&fx_.db));
    RAQLET_ASSIGN_OR_RETURN(program_,
                            fx_.compiler.CompileDatalog(kViewProgram));
    raqlet::engine::IncrementalOptions options;
    options.num_threads = 1;
    RAQLET_ASSIGN_OR_RETURN(
        view_, fx_.compiler.BeginIncremental(program_, &fx_.db, options));
    RAQLET_ASSIGN_OR_RETURN(initial_fp_, ViewFingerprint());
    return Status::OK();
  }

  std::vector<OpClass> Classes() const override {
    std::vector<OpClass> out;
    for (const char* name : kDeltaNames) out.push_back({name, true, {}});
    for (const QuerySpec& spec : reads_) out.push_back({spec.name, false, {}});
    return out;
  }
  Database* db() override { return &fx_.db; }
  int persons() const override { return fx_.persons; }

  void RunRound(uint64_t round, Recorder* rec, Tracer* tracer) override {
    DeltaCycle cycle = DrawDeltaCycle(
        base_, fx_.persons, RoundSeed(seed_, kDeltaStream, round));
    const DeltaBatch* batches[] = {&cycle.insert, &cycle.churn, &cycle.remove,
                                   &cycle.churn_undo};
    for (size_t d = 0; d < 4; ++d) {
      TimedDelta(d, *batches[d], rec, tracer);
      raqlet::CompileOptions params = Params(fx_.Person(round, d, 4));
      QueryOutcome read = TimedQuery(fx_.runner.get(), reads_[d], params,
                                     fx_.db.symbols(), 4 + d, rec, tracer);
      PauseScope pause(rec);
      if (read.ok) CheckRead(d, params, read, rec);
    }
    PauseScope pause(rec);
    Result<uint64_t> fp = ViewFingerprint();
    if (!fp.ok() || fp.value() != initial_fp_) {
      std::fprintf(stderr, "perfbench: view differs after a full cycle\n");
      rec->MarkWrong();
    }
  }

  // The maintained view against a from-scratch DatalogEngine::Run on a
  // copy of the current (cycle-restored) KNOWS.
  void Finish(Recorder* rec, Tracer* tracer) override {
    PauseScope pause(rec);
    double full_ms = 0;
    Result<uint64_t> scratch = FromScratch(tracer != nullptr ? 3 : 1, &full_ms);
    Result<uint64_t> fp = ViewFingerprint();
    if (!scratch.ok() || !fp.ok() || scratch.value() != fp.value()) {
      std::fprintf(stderr, "perfbench: view differs from from-scratch run\n");
      rec->MarkWrong();
      return;
    }
    if (tracer != nullptr) {
      tracer->times["incremental.full_eval_ms"].push_back(full_ms);
    }
  }

 private:
  static constexpr const char* kDeltaNames[] = {"insert", "churn", "remove",
                                                "churn_undo"};

  void TimedDelta(size_t d, const DeltaBatch& batch, Recorder* rec,
                  Tracer* tracer) {
    Clock::time_point t0 = Clock::now();
    Status status;
    if (tracer == nullptr) {
      status = fx_.compiler.ApplyDelta(view_.get(), batch).status();
    } else {
      raqlet::engine::IncrementalStats before = view_->stats();
      tracer->NextOp(kDeltaNames[d]);
      {
        Tracer::Scope op(tracer, "op");
        Tracer::Scope s(tracer,
                        std::string("incremental.apply.") + kDeltaNames[d]);
        status = view_->ApplyDelta(batch).status();
      }
      const raqlet::engine::IncrementalStats& after = view_->stats();
      tracer->Count("incremental.bailouts",
                    static_cast<double>(after.dred_bailouts - before.dred_bailouts));
      tracer->Count("incremental.recomputed_sccs",
                    static_cast<double>(after.recomputed_sccs -
                                        before.recomputed_sccs));
      tracer->Count("incremental.overdeleted",
                    static_cast<double>(after.overdeleted - before.overdeleted));
      tracer->Count("incremental.rederived",
                    static_cast<double>(after.rederived - before.rederived));
    }
    double ms = tracer == nullptr ? MsBetween(t0, Clock::now())
                                  : tracer->LastOpMs();
    rec->Add(d, ms, status.ok());
    if (!status.ok()) Report(kDeltaNames[d], status);
  }

  // read.reach must equal the view's row set for the person; read.3hop
  // must be a subset of it.
  void CheckRead(size_t r, const raqlet::CompileOptions& params,
                 const QueryOutcome& read, Recorder* rec) {
    int64_t person = params.parameters.at("personId").num;
    Result<raqlet::Relation*> rel = fx_.db.GetRelation(kViewRelation);
    if (!rel.ok()) {
      rec->MarkWrong();
      return;
    }
    std::set<int64_t> reachable;
    for (const Tuple& row : rel.value()->MaterializeRows()) {
      if (row[0].AsNumber() == person) reachable.insert(row[1].AsNumber());
    }
    bool ok = r % 2 == 0 ? read.ids == reachable
                     : std::includes(reachable.begin(), reachable.end(),
                                     read.ids.begin(), read.ids.end());
    if (!ok) {
      std::fprintf(stderr, "perfbench: %s disagrees with the view\n",
                   reads_[r].name.c_str());
      rec->MarkWrong();
    }
  }

  // Fingerprint of a from-scratch DatalogEngine::Run of the view program
  // on a copy of KNOWS; `full_ms` gets the median of `runs` run times.
  Result<uint64_t> FromScratch(int runs, double* full_ms) {
    RAQLET_ASSIGN_OR_RETURN(std::unique_ptr<Database> copy, CopyKnows(&fx_.db));
    raqlet::engine::DatalogEngine engine;
    std::vector<double> ms;
    for (int i = 0; i < runs; ++i) {
      Clock::time_point t0 = Clock::now();
      RAQLET_RETURN_IF_ERROR(engine.Run(program_, copy.get()));
      ms.push_back(MsBetween(t0, Clock::now()));
    }
    std::sort(ms.begin(), ms.end());
    *full_ms = ms[ms.size() / 2];
    RAQLET_ASSIGN_OR_RETURN(const raqlet::Relation* rel,
                            copy->GetRelation(kViewRelation));
    return Fingerprint(rel->MaterializeRows(), copy->symbols());
  }

  Result<uint64_t> ViewFingerprint() {
    RAQLET_ASSIGN_OR_RETURN(const raqlet::Relation* rel,
                            fx_.db.GetRelation(kViewRelation));
    return Fingerprint(rel->MaterializeRows(), fx_.db.symbols());
  }

  uint64_t seed_;
  LdbcFixture fx_;
  std::vector<QuerySpec> reads_;
  std::vector<Tuple> base_;
  raqlet::dlir::Program program_;
  std::unique_ptr<raqlet::engine::IncrementalView> view_;
  uint64_t initial_fp_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "table1") return std::make_unique<Table1Workload>(seed);
  if (name == "closure") return std::make_unique<ClosureWorkload>(seed);
  if (name == "delta_stream") {
    return std::make_unique<DeltaStreamWorkload>(seed);
  }
  return nullptr;
}

Status ProbeStorage(Workload* workload, uint64_t seed, int cycles,
                    Tracer* tracer) {
  RAQLET_ASSIGN_OR_RETURN(std::vector<Tuple> base, KnowsRows(workload->db()));
  RAQLET_ASSIGN_OR_RETURN(std::unique_ptr<Database> copy,
                          CopyKnows(workload->db()));
  RAQLET_ASSIGN_OR_RETURN(raqlet::Relation * knows, copy->GetRelation(kKnows));
  const std::vector<int> key = {0};
  knows->EnsureIndex(key);
  for (int c = 0; c < cycles; ++c) {
    DeltaCycle cycle = DrawDeltaCycle(base, workload->persons(),
                                      RoundSeed(seed, kStorageStream, c));
    for (const DeltaBatch* batch :
         {&cycle.insert, &cycle.churn, &cycle.remove, &cycle.churn_undo}) {
      {
        Tracer::Scope s(tracer, "storage.apply_delta");
        RAQLET_RETURN_IF_ERROR(copy->ApplyDelta(*batch).status());
      }
      Tracer::Scope s(tracer, "storage.index_rebuild");
      knows->EnsureIndex(key);
    }
  }
  return Status::OK();
}

}  // namespace perfbench
