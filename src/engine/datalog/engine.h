#ifndef RAQLET_ENGINE_DATALOG_ENGINE_H_
#define RAQLET_ENGINE_DATALOG_ENGINE_H_

// Bottom-up Datalog engine executing DLIR programs against a Database.
//
// This is Raqlet's stand-in for Soufflé (see docs/architecture.md):
// stratified semi-naive evaluation over indexed relations.
//
//  * Strata are the SCCs of the predicate dependency graph in topological
//    order; negation and aggregation may not cross into their own SCC
//    (classic stratification, checked before execution).
//  * Within a recursive SCC, rules are evaluated semi-naively: one rule
//    variant per recursive body atom, with that atom restricted to the
//    previous iteration's delta.
//  * Join order inside a rule is chosen greedily (most-bound-arguments
//    first); probes use incrementally-maintained hash indexes.
//  * Rule compilation, variant planning, the join loop, the task fan-out
//    and the merge are the rule kernel's (rule_kernel.h), which serves
//    this engine and incremental maintenance (incremental.h) alike; the
//    two differ only in which rows each plan step reads.
//  * Lattice relations (RelationDecl::lattice = min/max on the last
//    column) merge instead of union: an insert only "counts" if it
//    improves the best value for the key prefix. This gives terminating
//    shortest-path recursion on cyclic graphs (Datalog^o-style monotone
//    aggregation). The merge probes a prefix table (key prefix -> best
//    value, split into key-hash shards) straight from the staged columns,
//    advancing through each batch in task order so later rows supersede
//    earlier ones. At the end
//    of the SCC, and only if some row was superseded (more rows than
//    keys), compaction drops the rows that no longer hold their key's
//    best; the survivors keep their insertion order.
//  * With num_threads > 1, execution runs on the raqlet_runtime layer:
//    independent SCCs are scheduled concurrently, and within one fixpoint
//    round each rule variant's outer join range is partitioned across the
//    pool. Workers emit into per-task buffers (recycled through the
//    context's object pool across rounds); each target relation's staged
//    runs then merge in task order on one pool task, through
//    Relation::InsertRuns' hash-partitioned kernel (storage/merge.h),
//    which decides per hash shard in parallel — so derived relations are
//    bit-identical to a 1-thread run at any thread count.

#include <cstddef>
#include <memory>
#include <string>

#include "common/status.h"
#include "dlir/program.h"
#include "obs/metrics.h"
#include "runtime/execution_context.h"
#include "runtime/query_guard.h"
#include "storage/database.h"

namespace raqlet::engine {

struct EvalOptions {
  /// Safety valve on fixpoint rounds per SCC (0 = unlimited).
  size_t max_iterations = 0;
  /// Semi-naive (deltas) vs naive (full re-evaluation each round).
  /// Naive mode exists for the optimizer ablation benchmarks.
  bool seminaive = true;
  /// Greedy join ordering inside each rule (most bound arguments first);
  /// when false, body atoms join in written order.
  bool reorder_atoms = true;
  /// If an IDB relation already exists in the database, clear and
  /// recompute it instead of failing.
  bool overwrite_idb = true;
  /// Degree of parallelism. 1 (default) evaluates strictly serially;
  /// N > 1 evaluates independent SCCs and partitioned delta joins on a
  /// thread pool of N threads. Results are identical for every N.
  int num_threads = 1;
  /// Cooperative guardrails (cancellation, deadline, row/byte budgets)
  /// polled per fixpoint round and per ParallelFor chunk. A per-Run
  /// control channel like the metrics sink, NOT a behavioural option:
  /// excluded from equality so the Compiler's engine cache never keys on
  /// it (the facade forwards the guard to Run explicitly).
  const runtime::QueryGuard* guard = nullptr;

  /// Equality over the behavioural fields only (cache key; see `guard`).
  friend bool operator==(const EvalOptions& a, const EvalOptions& b) {
    return a.max_iterations == b.max_iterations &&
           a.seminaive == b.seminaive && a.reorder_atoms == b.reorder_atoms &&
           a.overwrite_idb == b.overwrite_idb &&
           a.num_threads == b.num_threads;
  }
};

struct EvalStats {
  size_t fixpoint_rounds = 0;    // total semi-naive rounds across SCCs
  size_t tuples_inserted = 0;    // new tuples across all IDB relations
  size_t rule_evaluations = 0;   // rule-variant evaluations
  size_t tuples_considered = 0;  // candidate rows scanned/probed

  std::string ToString() const;
};

class DatalogEngine {
 public:
  explicit DatalogEngine(EvalOptions options = {})
      : options_(options),
        context_(std::make_unique<runtime::ExecutionContext>(
            options.num_threads)) {}

  /// Evaluates `program` against `db`. Input relations must pre-exist in
  /// `db` with matching arity; IDB relations are created (or cleared) and
  /// filled. On success, output relations hold the query results.
  ///
  /// `metrics`, when given, receives the per-SCC fixpoint breakdown
  /// (rounds, per-round delta sizes, tuples considered/inserted) indexed
  /// by topological SCC order. Every counter in it is bit-identical
  /// across thread counts; only SccMetrics::micros is wall time.
  ///
  /// `guard` overrides options().guard for this call (the Compiler facade
  /// uses this so cached engines — keyed on guard-free options equality —
  /// still honour the caller's per-query guard). A trip aborts evaluation
  /// with the guard's terminal Status and leaves `db`, this engine, and
  /// its pools reusable: re-running the same program recomputes the IDB
  /// relations from scratch, bit-identically to a never-tripped run.
  Status Run(const dlir::Program& program, Database* db,
             EvalStats* stats = nullptr,
             obs::DatalogMetrics* metrics = nullptr,
             const runtime::QueryGuard* guard = nullptr) const;

  /// The context Run executes on: its pool (null when serial) and object
  /// pools. Incremental maintenance runs its rule variants and merges on
  /// the same one.
  runtime::ExecutionContext* context() const { return context_.get(); }

 private:
  EvalOptions options_;
  // Created eagerly with the engine (num_threads is fixed per engine), so
  // Run stays const and safe to call from multiple threads, and repeated
  // executions (fixpoint benchmarks, servers) reuse the same workers.
  std::unique_ptr<runtime::ExecutionContext> context_;
};

}  // namespace raqlet::engine

#endif  // RAQLET_ENGINE_DATALOG_ENGINE_H_
