// The hash-partitioned merge kernel (storage/merge.h) against the serial
// merge it replaces: randomized staged runs with heavy duplication across
// and within runs, merged through Relation::InsertRuns at 1, 2 and 4
// threads, must leave exactly the rows, insertion order, index row-lists
// and admitted counts of the serial row-by-row path. The engine-level
// cases do the same for whole Datalog evaluations — the tuple merge and
// the @min/@max lattice filter, ties included — comparing every relation,
// EvalStats and the per-SCC counters, and for the SQL vectorized engine's
// chunk merge. Runs under the tsan CI filter.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "dlir/parser.h"
#include "engine/datalog/engine.h"
#include "engine/sql/executor.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "sqir/dlir_to_sqir.h"
#include "storage/database.h"
#include "storage/relation.h"

namespace raqlet {
namespace {

// The storage loop callable at a thread count: 1 runs the sharded kernel
// inline on the caller; N > 1 runs it on a pool (the caller plus N - 1
// workers, as the engines' pools do).
class MergeLoop {
 public:
  explicit MergeLoop(int threads) {
    if (threads > 1) pool_ = std::make_unique<runtime::ThreadPool>(threads - 1);
  }
  ParallelForFn fn() const {
    runtime::ThreadPool* pool = pool_.get();
    return [pool](size_t count, const std::function<void(size_t)>& body) {
      if (pool != nullptr) {
        pool->ParallelFor(count, body);
        return;
      }
      for (size_t i = 0; i < count; ++i) body(i);
    };
  }

 private:
  std::unique_ptr<runtime::ThreadPool> pool_;
};

RelationSchema Schema(size_t arity) {
  RelationSchema s;
  s.name = "merged";
  for (size_t c = 0; c < arity; ++c) {
    s.columns.push_back(Column{"c" + std::to_string(c), ValueType::kNumber});
  }
  return s;
}

// One merge's worth of staged runs: `runs` runs of up to `rows` rows each
// (some empty), values from `value`. Duplicates repeat both within a run
// and across runs, and earlier merges' rows recur.
template <typename ValueFn>
std::vector<StagedRun> MakeRuns(std::mt19937* rng, size_t arity, size_t runs,
                                size_t rows, ValueFn&& value) {
  std::uniform_int_distribution<size_t> length(0, rows);
  std::vector<StagedRun> out(runs);
  for (StagedRun& run : out) {
    size_t n = length(*rng);
    if (n < rows / 8) continue;  // leave some runs empty
    run.resize(arity);
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < arity; ++c) run[c].push_back(value());
    }
  }
  return out;
}

std::vector<StagedRun*> Pointers(std::vector<StagedRun>* runs) {
  std::vector<StagedRun*> out;
  for (StagedRun& run : *runs) out.push_back(&run);
  return out;
}

// Merges `batches` into one relation through the serial path (the
// reference) and through the sharded kernel at 1, 2 and 4 threads, and
// asserts identical admitted counts, rows, order and index row-lists.
void ExpectShardedMatchesSerial(
    const std::vector<std::vector<StagedRun>>& batches, size_t arity) {
  Relation serial(Schema(arity));
  serial.GetIndex({0});  // a cached index is folded by every merge
  std::vector<size_t> serial_admitted;
  for (std::vector<StagedRun> batch : batches) {
    Result<size_t> r = serial.InsertRuns(Pointers(&batch));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    serial_admitted.push_back(*r);
    for (const StagedRun& run : batch) {
      for (const std::vector<Value>& col : run) EXPECT_TRUE(col.empty());
    }
  }
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    MergeLoop loop(threads);
    Relation sharded(Schema(arity));
    sharded.GetIndex({0});
    for (size_t b = 0; b < batches.size(); ++b) {
      std::vector<StagedRun> batch = batches[b];
      Result<size_t> r = sharded.InsertRuns(Pointers(&batch), loop.fn());
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(*r, serial_admitted[b]) << "batch " << b;
      for (const StagedRun& run : batch) {
        for (const std::vector<Value>& col : run) EXPECT_TRUE(col.empty());
      }
    }
    ASSERT_EQ(sharded.size(), serial.size());
    EXPECT_EQ(sharded.rows(), serial.rows());
    EXPECT_EQ(sharded.GetIndex({0}), serial.GetIndex({0}));
    for (const Tuple& t : serial.rows()) {
      ASSERT_TRUE(sharded.Contains(t));
    }
  }
}

TEST(ParallelMergeTest, PairNumericRunsMatchSerialMerge) {
  // Arity-2 kNumber: the unboxed path. Ids from a small range so most
  // candidates repeat; batches big enough for the sharded kernel.
  std::mt19937 rng(11);
  std::uniform_int_distribution<int> id(0, 150);
  auto value = [&] { return Value::Number(id(rng)); };
  std::vector<std::vector<StagedRun>> batches;
  for (int b = 0; b < 4; ++b) {
    batches.push_back(MakeRuns(&rng, 2, 9, 4000, value));
  }
  ExpectShardedMatchesSerial(batches, 2);
}

TEST(ParallelMergeTest, MixedKindRunsMatchSerialMerge) {
  // Arity-3 with floats, bools, symbols and nulls mixed into the numbers:
  // the generic boxed path, including the kind sidecar appearing mid-merge.
  std::mt19937 rng(12);
  std::uniform_int_distribution<int> pick(0, 12);
  std::uniform_int_distribution<int> kind(0, 5);
  auto value = [&]() -> Value {
    switch (kind(rng)) {
      case 0: return Value::Float(pick(rng) / 2.0);
      case 1: return Value::Bool(pick(rng) % 2 == 0);
      case 2: return Value::Symbol(static_cast<uint32_t>(pick(rng)));
      case 3: return Value::Null();
      default: return Value::Number(pick(rng));
    }
  };
  std::vector<std::vector<StagedRun>> batches;
  for (int b = 0; b < 3; ++b) {
    batches.push_back(MakeRuns(&rng, 3, 7, 5000, value));
  }
  ExpectShardedMatchesSerial(batches, 3);
}

TEST(ParallelMergeTest, OneRunAndSmallBatchesMatchSerialMerge) {
  // A single big run (hashing still splits it across tasks) and a batch
  // below the sharding threshold (serial path even with a loop).
  std::mt19937 rng(13);
  std::uniform_int_distribution<int> id(0, 400);
  auto value = [&] { return Value::Number(id(rng)); };
  std::vector<std::vector<StagedRun>> batches;
  batches.push_back(MakeRuns(&rng, 2, 1, 40000, value));
  batches.push_back(MakeRuns(&rng, 2, 3, 300, value));
  batches.push_back(MakeRuns(&rng, 2, 5, 6000, value));
  ExpectShardedMatchesSerial(batches, 2);
}

TEST(ParallelMergeTest, DedupTableGrowsWithAdmittedRowsAndSurvivesClear) {
  // 40,000 candidates, 100 distinct: the table sizes for the 100 (within
  // the 4x growth step), not for the 40,000 (131,072 slots).
  Relation r(Schema(2));
  StagedRun run(2);
  for (int i = 0; i < 40000; ++i) {
    run[0].push_back(Value::Number(i % 10));
    run[1].push_back(Value::Number((i / 10) % 10));
  }
  StagedRun copy = run;
  ASSERT_EQ(r.InsertColumns(&run).value(), 100u);
  const size_t bytes = r.MemoryBytes();
  const size_t column_bytes = 2 * 40000 * sizeof(int64_t);  // reserved
  EXPECT_LE(bytes - column_bytes, 1024 * 8u);  // 1024 slots of 8 bytes
  // Clear keeps the capacity: refilling allocates nothing new.
  r.Clear();
  EXPECT_EQ(r.MemoryBytes(), bytes);
  MergeLoop loop(2);
  ASSERT_EQ(r.InsertRuns({&copy}, loop.fn()).value(), 100u);
  EXPECT_EQ(r.MemoryBytes(), bytes);
}

// ---------------------------------------------------------------------------
// Engine level: whole evaluations at 1, 2 and 4 threads.

// A random weighted edge relation `wedge(x, y, w)`.
struct WeightedGraph {
  int nodes = 0;
  int edges = 0;
  int max_weight = 1;
  bool dag = false;  // keep only edges x -> y with x < y
  unsigned seed = 0;
};

Database MakeWeightedDb(const WeightedGraph& g) {
  Database db;
  RelationSchema s;
  s.name = "wedge";
  s.columns = {{"x", ValueType::kNumber},
               {"y", ValueType::kNumber},
               {"w", ValueType::kNumber}};
  Relation* rel = *db.CreateRelation(s);
  std::mt19937 rng(g.seed);
  std::uniform_int_distribution<int> node(1, g.nodes);
  std::uniform_int_distribution<int> weight(1, g.max_weight);
  for (int i = 0; i < g.edges; ++i) {
    int x = node(rng);
    int y = node(rng);
    if (g.dag && x >= y) continue;
    rel->Insert(
        {Value::Number(x), Value::Number(y), Value::Number(weight(rng))});
  }
  return db;
}

struct EngineRun {
  std::vector<std::vector<Tuple>> relations;  // every declared relation
  engine::EvalStats stats;
  obs::DatalogMetrics metrics;
  bool sharded = false;  // a merge took the kernel (its append span)
};

EngineRun RunDatalog(const std::string& text, const WeightedGraph& graph,
                     int threads) {
  EngineRun out;
  Database db = MakeWeightedDb(graph);
  auto program = dlir::ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  engine::EvalOptions options;
  options.num_threads = threads;
  obs::TraceSession session;
  Status s = engine::DatalogEngine(options).Run(*program, &db, &out.stats,
                                                &out.metrics);
  EXPECT_TRUE(s.ok()) << s.ToString();
  for (const dlir::RelationDecl& decl : program->decls) {
    out.relations.push_back((*db.GetRelation(decl.name))->rows());
  }
  for (const obs::TraceEvent& e : session.Events()) {
    out.sharded |= e.name == "datalog.merge.append";
  }
  return out;
}

void ExpectSameEvaluation(const EngineRun& a, const EngineRun& b) {
  EXPECT_EQ(a.relations, b.relations);
  EXPECT_EQ(a.stats.fixpoint_rounds, b.stats.fixpoint_rounds);
  EXPECT_EQ(a.stats.tuples_inserted, b.stats.tuples_inserted);
  EXPECT_EQ(a.stats.rule_evaluations, b.stats.rule_evaluations);
  EXPECT_EQ(a.stats.tuples_considered, b.stats.tuples_considered);
  ASSERT_EQ(a.metrics.sccs.size(), b.metrics.sccs.size());
  for (size_t i = 0; i < a.metrics.sccs.size(); ++i) {
    const obs::SccMetrics& x = a.metrics.sccs[i];
    const obs::SccMetrics& y = b.metrics.sccs[i];
    EXPECT_EQ(x.round_delta_sizes, y.round_delta_sizes) << "scc " << i;
    EXPECT_EQ(x.tuples_inserted, y.tuples_inserted) << "scc " << i;
    EXPECT_EQ(x.tuples_considered, y.tuples_considered) << "scc " << i;
    EXPECT_EQ(x.lattice_candidates, y.lattice_candidates) << "scc " << i;
    EXPECT_EQ(x.lattice_improvements, y.lattice_improvements) << "scc " << i;
    EXPECT_EQ(x.lattice_dropped, y.lattice_dropped) << "scc " << i;
  }
}

void ExpectDeterministicAcrossThreads(const std::string& text,
                                      const WeightedGraph& graph) {
  const EngineRun serial = RunDatalog(text, graph, 1);
  EXPECT_FALSE(serial.sharded);  // no pool: the serial merge throughout
  for (int threads : {2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const EngineRun parallel = RunDatalog(text, graph, threads);
    EXPECT_TRUE(parallel.sharded) << "no merge reached the sharded kernel";
    ExpectSameEvaluation(serial, parallel);
  }
}

constexpr char kTcWithCopy[] = R"(
.decl wedge(x: number, y: number, w: number)
.input wedge
.decl tc(x: number, y: number)
.output tc
.decl heavy(x: number, y: number, w: number)
.output heavy
tc(x, y) :- wedge(x, y, _).
tc(x, y) :- tc(x, z), wedge(z, y, _).
heavy(x, y, w) :- wedge(x, y, w), w > 1.
heavy(x, y, w) :- heavy(x, z, w), wedge(z, y, _).
)";

TEST(ParallelMergeTest, DatalogTupleMergeIsIdenticalAtAnyThreadCount) {
  // Two recursive relations (arity 2 and 3) whose rounds each offer tens
  // of thousands of mostly-duplicate candidates.
  ExpectDeterministicAcrossThreads(kTcWithCopy, {140, 700, 3, false, 3});
}

constexpr char kMinTies[] = R"(
.decl wedge(x: number, y: number, w: number)
.input wedge
.decl best(x: number, y: number, c: number) @min
.output best
best(x, y, w) :- wedge(x, y, w).
best(x, y, c + w) :- best(x, z, c), wedge(z, y, w).
)";

constexpr char kMaxTiesDag[] = R"(
.decl wedge(x: number, y: number, w: number)
.input wedge
.decl longest(x: number, y: number, c: number) @max
.output longest
longest(x, y, w) :- wedge(x, y, w).
longest(x, y, c + w) :- longest(x, z, c), wedge(z, y, w).
)";

TEST(ParallelMergeTest, MinLatticeWithTiesIsIdenticalAtAnyThreadCount) {
  // Weights 1..2: many equal-cost paths, so ties (rejected offers) and
  // supersessions both happen inside one batch.
  const WeightedGraph graph{140, 700, 2, false, 5};
  ExpectDeterministicAcrossThreads(kMinTies, graph);
  const EngineRun run = RunDatalog(kMinTies, graph, 2);
  const obs::SccMetrics& best = run.metrics.sccs.back();
  EXPECT_GT(best.lattice_candidates, best.lattice_improvements);
  EXPECT_GT(best.lattice_dropped, 0u);
}

TEST(ParallelMergeTest, MaxLatticeWithTiesIsIdenticalAtAnyThreadCount) {
  ExpectDeterministicAcrossThreads(kMaxTiesDag, {160, 2400, 2, true, 7});
}

constexpr char kSqlTc[] = R"(
.decl wedge(x: number, y: number, w: number)
.input wedge
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- wedge(x, y, _).
tc(x, y) :- tc(x, z), wedge(z, y, _).
)";

constexpr char kSqlHeavy[] = R"(
.decl wedge(x: number, y: number, w: number)
.input wedge
.decl heavy(x: number, y: number, w: number)
.output heavy
heavy(x, y, w) :- wedge(x, y, w), w > 1.
heavy(x, y, w) :- heavy(x, z, w), wedge(z, y, _).
)";

TEST(ParallelMergeTest, SqlChunkMergeIsIdenticalAtAnyThreadCount) {
  // The vectorized engine's partitioned leading scan: its per-chunk
  // projections merge through one InsertRuns on the pool (arity 2 on the
  // unboxed path, arity 3 on the generic one).
  for (const char* text : {kSqlTc, kSqlHeavy}) {
    auto program = dlir::ParseProgram(text);
    ASSERT_TRUE(program.ok());
    auto sqir = sqir::TranslateToSqir(*program);
    ASSERT_TRUE(sqir.ok()) << sqir.status().ToString();
    Database db = MakeWeightedDb({140, 700, 3, false, 3});
    auto run = [&](int threads, obs::SqlMetrics* metrics) {
      engine::SqlOptions options;
      options.num_threads = threads;
      auto result =
          engine::SqlEngine(options).Run(*sqir, &db, nullptr, metrics);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      return std::move(result).value();
    };
    obs::SqlMetrics serial_metrics;
    const engine::ResultTable serial = run(1, &serial_metrics);
    for (int threads : {2, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      obs::SqlMetrics metrics;
      obs::TraceSession session;
      const engine::ResultTable parallel = run(threads, &metrics);
      EXPECT_EQ(parallel.rows, serial.rows);
      ASSERT_EQ(metrics.ctes.size(), serial_metrics.ctes.size());
      for (size_t i = 0; i < metrics.ctes.size(); ++i) {
        EXPECT_EQ(metrics.ctes[i].rows, serial_metrics.ctes[i].rows);
        EXPECT_EQ(metrics.ctes[i].dedup_attempts,
                  serial_metrics.ctes[i].dedup_attempts);
        EXPECT_EQ(metrics.ctes[i].dedup_inserted,
                  serial_metrics.ctes[i].dedup_inserted);
      }
      bool saw_merge = false;
      for (const obs::TraceEvent& e : session.Events()) {
        saw_merge |= e.name == "sql.merge";
      }
      EXPECT_TRUE(saw_merge);
    }
  }
}

}  // namespace
}  // namespace raqlet
