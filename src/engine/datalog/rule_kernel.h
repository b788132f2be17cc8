#ifndef RAQLET_ENGINE_DATALOG_RULE_KERNEL_H_
#define RAQLET_ENGINE_DATALOG_RULE_KERNEL_H_

// The one rule compiler, join planner and step interpreter of the Datalog
// engines (internal to src/engine/datalog). The batch evaluator
// (engine.cc) and incremental maintenance (incremental.cc) both compile
// DLIR rules here, plan rule variants here, and run them through the same
// columnar join loop; they differ only in where each plan step reads its
// rows from, which they decide before execution by filling in the step's
// JoinSources:
//
//  * batch semi-naive evaluation reads one source per step: a relation's
//    rows up to the round's snapshot (from the delta start, for the delta
//    atom);
//  * incremental maintenance reads a relation's pre-delta (OLD) state as
//    two sources — the live relation with its net-added rows masked out,
//    plus the relation of erased rows — and a delta atom from a small
//    delta relation (for a negated atom, a relation of projection keys
//    mapped onto the atom's non-wildcard positions).
//
// Execution emits raw derivations (no dedup) into per-task EmitBuffers,
// fanned out over the execution context's pool in an order-preserving way
// (see RuleKernel::Evaluate), or, in check mode, stops at the first
// derivation of one given head tuple (Derives).

#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "dlir/program.h"
#include "engine/datalog/engine.h"
#include "runtime/execution_context.h"
#include "runtime/query_guard.h"
#include "storage/merge.h"
#include "storage/relation.h"

namespace raqlet::engine::datalog {

// ---------------------------------------------------------------------------
// Compiled rule representation: variables become dense integer slots and
// IR constants become interned runtime Values, so the inner join loops
// touch no strings.
// ---------------------------------------------------------------------------

struct CompiledTerm {
  enum Kind { kConst, kVar, kWildcard, kBinary };
  Kind kind = kWildcard;
  Value constant;
  int var = -1;
  dlir::ArithOp op = dlir::ArithOp::kAdd;
  std::vector<CompiledTerm> children;

  bool IsBoundUnder(const std::vector<bool>& bound) const {
    switch (kind) {
      case kConst:
        return true;
      case kVar:
        return bound[static_cast<size_t>(var)];
      case kWildcard:
        return false;
      case kBinary:
        return children[0].IsBoundUnder(bound) &&
               children[1].IsBoundUnder(bound);
    }
    return false;
  }
};

struct CompiledAtom {
  std::string predicate;
  const Relation* relation = nullptr;
  bool negated = false;
  bool recursive = false;  // predicate in the same SCC as the rule head
  std::vector<CompiledTerm> args;
};

struct CompiledConstraint {
  dlir::CmpOp op = dlir::CmpOp::kEq;
  CompiledTerm lhs;
  CompiledTerm rhs;
};

struct CompiledRule {
  const dlir::Rule* source = nullptr;
  std::string head_predicate;
  Relation* head_relation = nullptr;
  dlir::LatticeKind head_lattice = dlir::LatticeKind::kNone;
  std::vector<CompiledTerm> head_args;
  size_t num_vars = 0;
  std::vector<CompiledAtom> atoms;  // positive first, then negated
  std::vector<CompiledConstraint> constraints;
  // Indices into `atoms` of positive atoms whose predicate is recursive.
  std::vector<int> recursive_atoms;

  bool has_agg = false;
  dlir::AggFunc agg_func = dlir::AggFunc::kCount;
  CompiledTerm agg_arg;
  int agg_pos = -1;
};

/// Compiles `rule` against `relations` (every predicate it mentions must
/// be there). `scc_preds` are the predicates of the rule's own SCC;
/// constants are interned into `symbols`.
Result<CompiledRule> CompileRule(
    const dlir::Rule& rule, const std::set<std::string>& scc_preds,
    const std::unordered_map<std::string, Relation*>& relations,
    dlir::LatticeKind head_lattice, SymbolTable* symbols);

// ---------------------------------------------------------------------------
// Per-variant evaluation plan. A plan is a sequence of steps: join an atom
// (probing bound columns through an index), check a negated atom, apply a
// filtering constraint, or bind a variable from an equality constraint.
// ---------------------------------------------------------------------------

/// One source of rows for a join or negation step, resolved before
/// execution fans out (so the join loops look up no relation names and
/// take no locks). Valid until the source relation next mutates.
struct JoinSource {
  /// Borrowed storage columns, one per atom argument position (join steps
  /// only). A key source maps each non-wildcard position onto its key
  /// column; wildcard positions hold an empty view and are never read.
  std::vector<Relation::ColumnView> cols;
  /// Index over the step's probe columns (mapped like `cols`), or null iff
  /// the step has no probe columns.
  const Relation::KeyIndex* index = nullptr;
  /// Visible rows [row_begin, row_end).
  size_t row_begin = 0;
  size_t row_end = 0;
  /// Rows to skip (skip[row] != 0), or null.
  const std::vector<uint8_t>* skip = nullptr;
};

struct PlanStep {
  enum Kind { kJoinAtom, kNegCheck, kFilter, kBind };
  Kind kind = kJoinAtom;
  int atom_index = -1;        // kJoinAtom / kNegCheck
  int constraint_index = -1;  // kFilter / kBind
  int bind_var = -1;          // kBind: variable slot to bind
  bool bind_from_lhs = false; // kBind: true if lhs is the defined variable
  // Argument positions probed through an index (kJoinAtom / kNegCheck).
  // Statically known: the set of bound slots at each step is determined by
  // the plan prefix, not by runtime values.
  std::vector<int> probe_cols;
  // Where the atom's rows come from (kJoinAtom / kNegCheck), filled in by
  // the caller after planning. A join enumerates every source in order; a
  // negation fails if any source has a matching row.
  std::vector<JoinSource> sources;
};

struct VariantPlan {
  const CompiledRule* rule = nullptr;
  std::vector<PlanStep> steps;
  int delta_atom = -1;  // index into rule.atoms, or -1 (no delta restriction)
  // The plan's outermost join, whose row range may be partitioned across
  // worker threads; -1 when the plan has no join at all.
  int range_atom = -1;
};

/// Builds the join order for one variant. The delta atom (a negated one
/// joins over its projection keys) goes first when it can; then greedily
/// the positive atom with the most statically-bound argument positions
/// (constants + already-bound variables), preferring smaller relations on
/// ties. An atom with a computed argument is placed only once that
/// argument's variables are bound. Constraints and negations are woven in
/// as soon as their variables allow. With `bind_head` the head's variables
/// count as bound from the start (check mode, see Derives).
Result<VariantPlan> PlanVariant(const CompiledRule& rule, int delta_atom,
                                bool reorder, bool bind_head = false);

/// A source over rows [begin, end) of `rel` for `step`: borrows the columns
/// (join steps) and builds the index over the probe columns. `col_of`,
/// when given, maps atom argument position i to column col_of[i] of `rel`
/// (-1 for a wildcard); otherwise position i reads column i.
JoinSource ResolveSource(const Relation& rel, const PlanStep& step,
                         size_t begin, size_t end,
                         const std::vector<int>* col_of = nullptr);

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

// Everything one evaluation task (a rule variant, or one chunk of its
// outer join range) writes: derived tuples and stat counters. A task emits only to its
// rule's head relation, so the buffer carries a single `target` and the
// staged values form a plain run for that relation, held column-wise
// (one vector per head column, `staged_rows` rows) so emitting a derived
// tuple appends values without allocating a row vector, and the merge
// hands the runs to Relation::InsertRuns as they are. Buffers are
// recycled through the execution context's ObjectPool so their capacity
// survives across fixpoint rounds.
struct EmitBuffer {
  Relation* target = nullptr;
  StagedRun staged;  // staged[col][row]
  size_t staged_rows = 0;
  EvalStats stats;

  // Sizes the staging columns for an arity (keeping surviving columns'
  // capacity when the pooled buffer is reused across rules).
  void PrepareStaging(size_t arity) {
    if (staged.size() != arity) staged.resize(arity);
  }

  // Back to logically-empty, keeping the columns' capacity for reuse.
  void Reset() {
    target = nullptr;
    for (std::vector<Value>& col : staged) col.clear();
    staged_rows = 0;
    stats = EvalStats{};
  }
};

/// Check mode: true iff `plan` (planned with bind_head, sources resolved)
/// derives `target`. The head variables are pre-bound from `target` and
/// evaluation stops at the first derivation.
Result<bool> Derives(const VariantPlan& plan, const Tuple& target,
                     const SymbolTable& symbols);

/// Runs resolved variant plans and merges what they emit, on one
/// execution context's pool and object pools.
class RuleKernel {
 public:
  /// `context` must outlive the kernel; `guard` may be null.
  RuleKernel(runtime::ExecutionContext* context,
             const runtime::QueryGuard* guard, const SymbolTable* symbols);

  runtime::ThreadPool* pool() const { return pool_; }

  /// Evaluates every planned variant (sources resolved), fanned out
  /// over the pool — a variant whose outermost join reads one source has
  /// that source's rows split into chunks; aggregate rules stay one task —
  /// and appends one EmitBuffer per task to `out`, in the order a serial
  /// evaluation visits the rows, so what the buffers hold is identical for
  /// any thread count. Adds tuples_considered to `stats`. A guard trip or
  /// an error recycles the buffers and returns the status.
  Status Evaluate(const std::vector<VariantPlan>& plans,
                  std::vector<EmitBuffer>* out, EvalStats* stats);

  /// Called with a relation's runs (in task order) before they merge;
  /// lattice relations filter their runs here.
  using PreMergeFn = std::function<void(
      Relation*, const std::vector<StagedRun*>&, const ParallelForFn&)>;

  /// Merges the staged runs into their target relations — the
  /// single-writer phase of a round — and recycles the buffers. Runs are
  /// grouped per relation and each group goes to Relation::InsertRuns in
  /// task order. With a thread pool, relations merge one pool task each
  /// (each relation keeps exactly one writer), and each merge runs the
  /// hash-partitioned kernel on the pool (storage/merge.h), keeping
  /// contents and insertion order bit-identical at any thread count.
  /// Without one, every merge takes the serial path. Returns #tuples
  /// inserted.
  Result<size_t> Merge(std::vector<EmitBuffer>* buffers,
                       const PreMergeFn& pre_merge = nullptr);

  /// Resets the buffers, returns them to the pool and clears `buffers`.
  void Recycle(std::vector<EmitBuffer>* buffers);

 private:
  runtime::ThreadPool* pool_;  // null => strictly serial evaluation
  const runtime::QueryGuard* guard_;
  const SymbolTable* symbols_;
  runtime::ObjectPool<EmitBuffer>* buffer_pool_;
  // The merge kernel's partition scratch, one per concurrent relation
  // merge.
  runtime::ObjectPool<ShardedRuns>* scratch_pool_;
};

}  // namespace raqlet::engine::datalog

#endif  // RAQLET_ENGINE_DATALOG_RULE_KERNEL_H_
