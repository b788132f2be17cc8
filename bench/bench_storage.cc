// Storage microbenchmarks: the merge of staged runs into a Relation.
//
//  * BM_InsertColumnsDupHeavy — one fixpoint-round-shaped merge: 8 staged
//    runs, 240,000 arity-2 kNumber candidates of which ~1 in 5 is new; the
//    rest repeat rows already stored or rows earlier in the batch. At 1
//    thread it is the serial row-by-row path (Relation::InsertColumns on
//    each run, as an engine without a pool merges); at N > 1 threads one
//    Relation::InsertRuns on a pool of the caller plus N - 1 workers runs
//    the hash-partitioned kernel (storage/merge.h). Both admit exactly the
//    same rows in the same order; the `admitted` counter must read the
//    same at every thread count.

#include <benchmark/benchmark.h>

#include <memory>
#include <random>
#include <vector>

#include "runtime/thread_pool.h"
#include "storage/relation.h"

namespace raqlet {
namespace {

constexpr size_t kRuns = 8;
constexpr size_t kRowsPerRun = 30000;
constexpr int64_t kIds = 1000;  // pairs drawn from a 1000 x 1000 grid

RelationSchema PairSchema() {
  RelationSchema s;
  s.name = "merged";
  s.columns = {{"x", ValueType::kNumber}, {"y", ValueType::kNumber}};
  return s;
}

// The stored relation before the merge and the batch it receives: 60,000
// distinct pairs are stored; the batch draws from those plus 60,000 fresh
// ones, each candidate repeated about four times.
struct DupHeavyInput {
  std::vector<std::pair<int64_t, int64_t>> stored;
  std::vector<StagedRun> runs;
};

const DupHeavyInput& Input() {
  static const DupHeavyInput input = [] {
    DupHeavyInput in;
    std::mt19937_64 rng(42);
    std::uniform_int_distribution<int64_t> id(0, kIds - 1);
    std::vector<std::pair<int64_t, int64_t>> pool;
    for (size_t i = 0; i < 120000; ++i) pool.emplace_back(id(rng), id(rng));
    in.stored.assign(pool.begin(), pool.begin() + 60000);
    std::uniform_int_distribution<size_t> pick(0, pool.size() - 1);
    in.runs.resize(kRuns);
    for (StagedRun& run : in.runs) {
      run.resize(2);
      for (size_t i = 0; i < kRowsPerRun; ++i) {
        const auto& [x, y] = pool[pick(rng)];
        run[0].push_back(Value::Number(x));
        run[1].push_back(Value::Number(y));
      }
    }
    return in;
  }();
  return input;
}

void BM_InsertColumnsDupHeavy(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const DupHeavyInput& input = Input();
  std::unique_ptr<runtime::ThreadPool> pool;
  ParallelForFn parallel_for;
  if (threads > 1) {
    pool = std::make_unique<runtime::ThreadPool>(threads - 1);
    parallel_for = [&pool](size_t count,
                           const std::function<void(size_t)>& body) {
      pool->ParallelFor(count, body);
    };
  }
  // One relation for every iteration, as an engine re-running a query
  // refills its IDB relations: Clear keeps the columns', the dedup
  // table's and the merge scratch's capacity.
  Relation rel(PairSchema());
  size_t admitted = 0;
  for (auto _ : state) {
    state.PauseTiming();
    rel.Clear();
    StagedRun stored(2);
    for (const auto& [x, y] : input.stored) {
      stored[0].push_back(Value::Number(x));
      stored[1].push_back(Value::Number(y));
    }
    (void)rel.InsertColumns(&stored);
    std::vector<StagedRun> runs = input.runs;
    std::vector<StagedRun*> ptrs;
    for (StagedRun& run : runs) ptrs.push_back(&run);
    state.ResumeTiming();
    admitted = 0;
    if (threads > 1) {
      admitted = rel.InsertRuns(ptrs, parallel_for).value();
    } else {
      for (StagedRun* run : ptrs) admitted += rel.InsertColumns(run).value();
    }
    benchmark::DoNotOptimize(admitted);
  }
  state.counters["admitted"] = static_cast<double>(admitted);
  state.counters["candidates"] = static_cast<double>(kRuns * kRowsPerRun);
}
BENCHMARK(BM_InsertColumnsDupHeavy)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace raqlet

BENCHMARK_MAIN();
