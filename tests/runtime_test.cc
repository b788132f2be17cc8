// Unit tests for the parallel evaluation runtime: the thread pool's two
// primitives and the SCC/stratum scheduler (dependency ordering, error
// propagation, serial fallback).

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <vector>

#include "dlir/parser.h"
#include "runtime/execution_context.h"
#include "runtime/scc_scheduler.h"
#include "runtime/thread_pool.h"

namespace raqlet::runtime {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  std::atomic<int> counter{0};
  std::mutex mutex;
  std::condition_variable cv;
  // Declared after what the tasks touch, so its destructor joins the
  // workers before those die: the last task may still be notifying `cv`
  // when the wait below already saw the final count.
  ThreadPool pool(4);
  constexpr int kTasks = 100;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      if (counter.fetch_add(1) + 1 == kTasks) {
        std::lock_guard<std::mutex> lock(mutex);
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] { return counter.load() == kTasks; });
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(kCount, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEdgeCounts) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.ParallelFor(0, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 0);
  pool.ParallelFor(1, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 1);
}

// A worker that itself calls ParallelFor must not deadlock: the caller
// participates in its own loop instead of blocking on a free worker.
TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_runs{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { inner_runs.fetch_add(1); });
  });
  EXPECT_EQ(inner_runs.load(), 64);
}

TEST(ExecutionContextTest, SerialContextHasNoPool) {
  ExecutionContext serial(1);
  EXPECT_EQ(serial.num_threads(), 1);
  EXPECT_EQ(serial.pool(), nullptr);
  ExecutionContext clamped(0);
  EXPECT_EQ(clamped.num_threads(), 1);
  EXPECT_EQ(clamped.pool(), nullptr);
}

TEST(ExecutionContextTest, ParallelContextOwnsPool) {
  ExecutionContext ctx(3);
  EXPECT_EQ(ctx.num_threads(), 3);
  ASSERT_NE(ctx.pool(), nullptr);
  EXPECT_EQ(ctx.pool()->num_threads(), 3);
}

// Two independent chains hanging off a shared base:
//   base -> left1 -> left2,  base -> right1,  isolated
constexpr char kDiamondProgram[] = R"(
.decl base(x: number)
.input base
.decl left1(x: number)
.decl left2(x: number)
.decl right1(x: number)
.decl isolated(x: number)
.input isolated
.output left2
left1(x) :- base(x).
left2(x) :- left1(x).
right1(x) :- base(x).
)";

TEST(SccSchedulerTest, BuildSccDagReflectsPredicateDependencies) {
  auto program = dlir::ParseProgram(kDiamondProgram);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  analysis::DependencyGraph graph = analysis::DependencyGraph::Build(*program);
  SccDag dag = BuildSccDag(graph);
  ASSERT_EQ(dag.size(), graph.SccsInTopologicalOrder().size());

  int base = graph.SccOf("base");
  int left1 = graph.SccOf("left1");
  int left2 = graph.SccOf("left2");
  int right1 = graph.SccOf("right1");
  int isolated = graph.SccOf("isolated");

  auto successors_of = [&](int node) {
    const auto& s = dag.successors[static_cast<size_t>(node)];
    return std::set<int>(s.begin(), s.end());
  };
  EXPECT_EQ(successors_of(base), (std::set<int>{left1, right1}));
  EXPECT_EQ(successors_of(left1), (std::set<int>{left2}));
  EXPECT_TRUE(successors_of(left2).empty());
  EXPECT_TRUE(successors_of(right1).empty());
  EXPECT_TRUE(successors_of(isolated).empty());
  // Condensation edges always point forward in topological order.
  for (size_t i = 0; i < dag.size(); ++i) {
    for (int succ : dag.successors[i]) {
      EXPECT_GT(succ, static_cast<int>(i));
    }
  }
}

// Random-ish layered DAG: node i depends on some earlier nodes. The body
// asserts all dependencies finished before it starts.
TEST(SccSchedulerTest, RunSccDagRespectsDependencies) {
  constexpr int kNodes = 40;
  SccDag dag;
  dag.successors.resize(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    for (int j = i + 1; j < kNodes; ++j) {
      if ((i * 31 + j * 17) % 5 == 0) dag.successors[i].push_back(j);
    }
  }
  ThreadPool pool(4);
  std::vector<std::atomic<bool>> finished(kNodes);
  std::atomic<int> runs{0};
  std::atomic<int> violations{0};
  Status status = RunSccDag(dag, &pool, [&](int node) {
    for (int i = 0; i < node; ++i) {
      bool depends = false;
      for (int succ : dag.successors[i]) depends |= succ == node;
      if (depends && !finished[i].load()) violations.fetch_add(1);
    }
    finished[node].store(true);
    runs.fetch_add(1);
    return Status::OK();
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(runs.load(), kNodes);
  EXPECT_EQ(violations.load(), 0);
}

TEST(SccSchedulerTest, RunSccDagRunsEveryNodeOnce) {
  SccDag dag;
  dag.successors.resize(16);  // no edges: fully independent
  ThreadPool pool(4);
  std::vector<std::atomic<int>> runs(16);
  Status status = RunSccDag(dag, &pool, [&](int node) {
    runs[static_cast<size_t>(node)].fetch_add(1);
    return Status::OK();
  });
  EXPECT_TRUE(status.ok());
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
}

TEST(SccSchedulerTest, PropagatesLowestIndexError) {
  SccDag dag;
  dag.successors.resize(8);  // independent, nodes 3 and 6 fail
  ThreadPool pool(4);
  Status status = RunSccDag(dag, &pool, [&](int node) {
    if (node == 3 || node == 6) {
      return Status::Internal("node " + std::to_string(node) + " failed");
    }
    return Status::OK();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("node 3 failed"), std::string::npos)
      << status.ToString();
}

TEST(SccSchedulerTest, FailureSkipsDependents) {
  SccDag dag;
  dag.successors.resize(3);
  dag.successors[0] = {1};
  dag.successors[1] = {2};
  ThreadPool pool(2);
  std::atomic<int> runs{0};
  Status status = RunSccDag(dag, &pool, [&](int node) {
    runs.fetch_add(1);
    if (node == 0) return Status::Internal("root failed");
    return Status::OK();
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(runs.load(), 1);  // 1 and 2 never start
}

TEST(SccSchedulerTest, SerialFallbackWithoutPool) {
  SccDag dag;
  dag.successors.resize(5);
  dag.successors[0] = {4};
  std::vector<int> order;
  Status status = RunSccDag(dag, nullptr, [&](int node) {
    order.push_back(node);
    return Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace raqlet::runtime
