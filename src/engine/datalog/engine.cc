#include "engine/datalog/engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/dependency_graph.h"
#include "engine/value_ops.h"
#include "obs/trace.h"
#include "runtime/failpoint.h"
#include "runtime/scc_scheduler.h"
#include "runtime/thread_pool.h"
#include "storage/merge.h"

namespace raqlet::engine {

namespace {

using dlir::AggFunc;
using dlir::ArithOp;
using dlir::Atom;
using dlir::CmpOp;
using dlir::Constant;
using dlir::LatticeKind;
using dlir::Program;
using dlir::RelationDecl;
using dlir::Rule;
using dlir::Term;
using dlir::TermKind;

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
  ArithOp op = ArithOp::kAdd;
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
  CmpOp op = CmpOp::kEq;
  CompiledTerm lhs;
  CompiledTerm rhs;
  bool applied = false;  // scratch flag during planning
};

struct CompiledRule {
  const Rule* source = nullptr;
  std::string head_predicate;
  Relation* head_relation = nullptr;
  LatticeKind head_lattice = LatticeKind::kNone;
  std::vector<CompiledTerm> head_args;
  size_t num_vars = 0;
  std::vector<CompiledAtom> atoms;  // positive first, then negated
  std::vector<CompiledConstraint> constraints;
  // Indices into `atoms` of positive atoms whose predicate is recursive.
  std::vector<int> recursive_atoms;

  bool has_agg = false;
  AggFunc agg_func = AggFunc::kCount;
  CompiledTerm agg_arg;
  int agg_pos = -1;
};

// Runtime variable environment, plus per-plan-step scratch buffers. The
// scratch is indexed by step: ExecuteStep never re-enters the same step
// within one task (recursion strictly descends the plan), so reusing one
// buffer per step replaces a heap allocation per candidate row with one
// per task.
struct Env {
  std::vector<Value> values;
  std::vector<bool> bound;
  std::vector<Tuple> probe_scratch;                 // per-step probe keys
  std::vector<std::vector<size_t>> bound_scratch;   // per-step unbound slots
  Env(size_t n, size_t steps)
      : values(n), bound(n, false), probe_scratch(steps), bound_scratch(steps) {}
};

Result<Value> EvalCompiledTerm(const CompiledTerm& term, const Env& env) {
  switch (term.kind) {
    case CompiledTerm::kConst:
      return term.constant;
    case CompiledTerm::kVar:
      if (!env.bound[static_cast<size_t>(term.var)]) {
        return Status::Internal("evaluating unbound variable slot");
      }
      return env.values[static_cast<size_t>(term.var)];
    case CompiledTerm::kWildcard:
      return Status::Internal("evaluating wildcard term");
    case CompiledTerm::kBinary: {
      RAQLET_ASSIGN_OR_RETURN(Value lhs, EvalCompiledTerm(term.children[0], env));
      RAQLET_ASSIGN_OR_RETURN(Value rhs, EvalCompiledTerm(term.children[1], env));
      return EvalArith(term.op, lhs, rhs);
    }
  }
  return Status::Internal("unhandled term kind");
}

// ---------------------------------------------------------------------------
// Per-variant evaluation plan. A plan is a sequence of steps: join an atom
// (probing bound columns through a relation index), apply a filtering
// constraint, or bind a variable from an equality constraint.
// ---------------------------------------------------------------------------

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
  // Prebuilt index over probe_cols, resolved via Relation::EnsureIndex
  // before execution fans out (null iff probe_cols is empty). Probing it
  // is lock- and lookup-free.
  const Relation::KeyIndex* index = nullptr;
  // Borrowed storage columns of the joined relation (kJoinAtom only),
  // resolved alongside `index` before the fan-out. Valid for the round:
  // plans are rebuilt (and columns re-borrowed) every round, and no
  // relation mutates while tasks run.
  std::vector<Relation::ColumnView> cols;
  // The atom's visible rows, [row_begin, row_end) (kJoinAtom / kNegCheck):
  // the round's snapshot size and, for the delta atom, the delta start.
  // Resolved with `index`, so the join loops look up no relation names.
  size_t row_begin = 0;
  size_t row_end = 0;
};

struct VariantPlan {
  std::vector<PlanStep> steps;
  int delta_atom = -1;  // index into rule.atoms, or -1 (no delta restriction)
  // Atom whose row range may be partitioned across worker threads: the
  // delta atom if any, else the plan's outermost positive join. -1 when
  // the plan has no join at all.
  int range_atom = -1;
};

// Builds the join order for one variant. Greedy: repeatedly pick the
// positive atom with the most statically-bound argument positions
// (constants + already-bound variables), preferring smaller relations on
// ties. Constraints are woven in as soon as their variables allow.
Result<VariantPlan> PlanVariant(const CompiledRule& rule, int delta_atom,
                                bool reorder) {
  VariantPlan plan;
  plan.delta_atom = delta_atom;
  std::vector<bool> bound(rule.num_vars, false);
  std::vector<bool> atom_done(rule.atoms.size(), false);
  std::vector<bool> constraint_done(rule.constraints.size(), false);

  auto mark_atom_vars = [&](const CompiledAtom& atom) {
    for (const CompiledTerm& arg : atom.args) {
      if (arg.kind == CompiledTerm::kVar) {
        bound[static_cast<size_t>(arg.var)] = true;
      }
    }
  };

  // Argument positions of `atom` evaluable under the current bound set —
  // exactly the positions execution will probe through an index.
  auto probe_cols_for = [&](const CompiledAtom& atom) {
    std::vector<int> cols;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const CompiledTerm& arg = atom.args[i];
      if (arg.kind == CompiledTerm::kWildcard) continue;
      if (arg.IsBoundUnder(bound)) cols.push_back(static_cast<int>(i));
    }
    return cols;
  };

  // Weave in constraints that became decidable: filters when fully bound,
  // bindings when an equality has exactly one unbound bare-variable side.
  auto schedule_constraints = [&]() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < rule.constraints.size(); ++i) {
        if (constraint_done[i]) continue;
        const CompiledConstraint& c = rule.constraints[i];
        bool lhs_bound = c.lhs.IsBoundUnder(bound);
        bool rhs_bound = c.rhs.IsBoundUnder(bound);
        if (lhs_bound && rhs_bound) {
          PlanStep step;
          step.kind = PlanStep::kFilter;
          step.constraint_index = static_cast<int>(i);
          plan.steps.push_back(step);
          constraint_done[i] = true;
          changed = true;
        } else if (c.op == CmpOp::kEq && rhs_bound &&
                   c.lhs.kind == CompiledTerm::kVar) {
          PlanStep step;
          step.kind = PlanStep::kBind;
          step.constraint_index = static_cast<int>(i);
          step.bind_var = c.lhs.var;
          step.bind_from_lhs = true;
          plan.steps.push_back(step);
          bound[static_cast<size_t>(c.lhs.var)] = true;
          constraint_done[i] = true;
          changed = true;
        } else if (c.op == CmpOp::kEq && lhs_bound &&
                   c.rhs.kind == CompiledTerm::kVar) {
          PlanStep step;
          step.kind = PlanStep::kBind;
          step.constraint_index = static_cast<int>(i);
          step.bind_var = c.rhs.var;
          step.bind_from_lhs = false;
          plan.steps.push_back(step);
          bound[static_cast<size_t>(c.rhs.var)] = true;
          constraint_done[i] = true;
          changed = true;
        }
      }
      // Negated atoms fire as soon as all their variables are bound.
      for (size_t i = 0; i < rule.atoms.size(); ++i) {
        if (atom_done[i] || !rule.atoms[i].negated) continue;
        bool all_bound = true;
        for (const CompiledTerm& arg : rule.atoms[i].args) {
          if (arg.kind == CompiledTerm::kWildcard) continue;
          if (!arg.IsBoundUnder(bound)) {
            all_bound = false;
            break;
          }
        }
        if (all_bound) {
          PlanStep step;
          step.kind = PlanStep::kNegCheck;
          step.atom_index = static_cast<int>(i);
          step.probe_cols = probe_cols_for(rule.atoms[i]);
          plan.steps.push_back(std::move(step));
          atom_done[i] = true;
          changed = true;
        }
      }
    }
  };

  schedule_constraints();

  // Delta atom always joins first: semi-naive correctness does not require
  // it, but it makes the delta the outer loop, which is the whole point.
  if (delta_atom >= 0) {
    PlanStep step;
    step.kind = PlanStep::kJoinAtom;
    step.atom_index = delta_atom;
    step.probe_cols = probe_cols_for(rule.atoms[static_cast<size_t>(delta_atom)]);
    plan.steps.push_back(std::move(step));
    plan.range_atom = delta_atom;
    atom_done[static_cast<size_t>(delta_atom)] = true;
    mark_atom_vars(rule.atoms[static_cast<size_t>(delta_atom)]);
    schedule_constraints();
  }

  size_t positive_remaining = 0;
  for (size_t i = 0; i < rule.atoms.size(); ++i) {
    if (!atom_done[i] && !rule.atoms[i].negated) ++positive_remaining;
  }

  while (positive_remaining > 0) {
    int best = -1;
    int best_score = -1;
    size_t best_size = 0;
    for (size_t i = 0; i < rule.atoms.size(); ++i) {
      if (atom_done[i] || rule.atoms[i].negated) continue;
      if (!reorder) {  // keep written order: first not-done atom wins
        best = static_cast<int>(i);
        break;
      }
      int score = 0;
      for (const CompiledTerm& arg : rule.atoms[i].args) {
        if (arg.kind != CompiledTerm::kWildcard && arg.IsBoundUnder(bound)) {
          ++score;
        }
      }
      size_t size = rule.atoms[i].relation->size();
      if (score > best_score ||
          (score == best_score && (best < 0 || size < best_size))) {
        best = static_cast<int>(i);
        best_score = score;
        best_size = size;
      }
    }
    if (best < 0) {
      return Status::Internal(
          "join planner found no placeable atom for rule head '" +
          rule.head_predicate + "' — unsatisfied positive atom");
    }
    PlanStep step;
    step.kind = PlanStep::kJoinAtom;
    step.atom_index = best;
    step.probe_cols = probe_cols_for(rule.atoms[static_cast<size_t>(best)]);
    plan.steps.push_back(std::move(step));
    if (plan.range_atom < 0) plan.range_atom = best;
    atom_done[static_cast<size_t>(best)] = true;
    mark_atom_vars(rule.atoms[static_cast<size_t>(best)]);
    --positive_remaining;
    schedule_constraints();
  }

  // Anything left is a stratification/safety violation that Validate()
  // should have caught.
  for (size_t i = 0; i < rule.constraints.size(); ++i) {
    if (!constraint_done[i]) {
      return Status::Internal("constraint never became evaluable in rule: " +
                              rule.source->ToString());
    }
  }
  for (size_t i = 0; i < rule.atoms.size(); ++i) {
    if (!atom_done[i]) {
      return Status::Internal("negated atom never fully bound in rule: " +
                              rule.source->ToString());
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Aggregation accumulator: per group, aggregates over the set of distinct
// body-variable bindings (witnesses), which realizes set-semantics
// aggregation (§3: RETURN DISTINCT-style translation).
// ---------------------------------------------------------------------------

struct AggState {
  std::unordered_set<Tuple, TupleHash> witnesses;
  int64_t count = 0;
  double sum = 0.0;
  bool any_float = false;
  std::optional<Value> min;
  std::optional<Value> max;
};

// ---------------------------------------------------------------------------
// Lattice merge: one best-value table per lattice relation, keyed by the
// key prefix (every column but the last). The table is split into the
// fixed ShardedRuns::kShards key-hash shards; each shard is a flat
// open-addressing table of (hash32, entry) slots over key/value records —
// the same shape as Relation's dedup table — so a staged candidate is
// hashed and compared straight from its staging columns, and no key is
// ever boxed as a Tuple.
// ---------------------------------------------------------------------------

class LatticeTable {
 public:
  LatticeTable() : shards_(ShardedRuns::kShards) {}

  // Empties the table for a relation of `key_arity` key columns. Tables
  // are recycled across evaluations through the execution context's
  // object pool, so the records, slot arrays and partition scratch keep
  // the capacity the last evaluation grew them to.
  void Reset(LatticeKind kind, size_t key_arity) {
    kind_ = kind;
    key_arity_ = key_arity;
    stride_ = key_arity + 1;
    for (Shard& shard : shards_) {
      shard.records.clear();
      std::fill(shard.slots.begin(), shard.slots.end(), HashSlot{});
    }
    candidates = 0;
    improvements = 0;
  }

  // Keeps, in every run, only the rows that improve their key's best
  // value, and makes each survivor its key's best. Rows are offered in
  // global (run, row) order, so a later candidate of the same batch can
  // supersede an earlier one. With `parallel_for` and a big batch, the
  // candidates are partitioned by key hash (storage/merge.h) and every
  // shard offers its own candidates, in order, to its own sub-table: a
  // key never spans two shards, so the survivors, the bests and the
  // counters are exactly the serial ones.
  void Filter(const std::vector<StagedRun*>& runs, const SymbolTable& symbols,
              const ParallelForFn& parallel_for) {
    size_t n = 0;
    for (const StagedRun* run : runs) n += StagedRows(*run);
    if (n == 0) return;
    candidates += n;
    auto key_hash = [this](const StagedRun& run, size_t row) {
      return KeyHash([&](size_t c) -> const Value& { return run[c][row]; });
    };
    if (parallel_for == nullptr || n < ShardedRuns::kMinRows) {
      for (StagedRun* run_ptr : runs) {
        StagedRun& run = *run_ptr;
        const size_t rows = StagedRows(run);
        size_t kept = 0;
        for (size_t row = 0; row < rows; ++row) {
          const uint32_t h32 = key_hash(run, row);
          Shard& shard = shards_[ShardedRuns::ShardOf(h32)];
          if (!Offer(&shard, run, row, h32, symbols)) continue;
          for (std::vector<Value>& col : run) col[kept] = col[row];
          ++kept;
        }
        for (std::vector<Value>& col : run) col.resize(kept);
        improvements += kept;
      }
      return;
    }
    sharded_.Build(runs, key_hash, parallel_for);
    ForEachIndex(parallel_for, ShardedRuns::kShards, [&](size_t s) {
      const std::span<const uint32_t> positions = sharded_.positions(s);
      if (positions.empty()) return;
      std::vector<uint32_t>& kept = sharded_.shard(s).picked;
      // A shard's positions are scattered over the runs: prefetch each
      // candidate's values a few positions ahead.
      constexpr size_t kAhead = 8;
      size_t r = sharded_.RunOf(positions.front());
      size_t r_ahead = r;
      for (size_t k = 0; k < positions.size(); ++k) {
        if (k + kAhead < positions.size()) {
          const uint32_t ahead = positions[k + kAhead];
          while (ahead >= sharded_.RunStart(r_ahead + 1)) ++r_ahead;
          for (const std::vector<Value>& col : *runs[r_ahead]) {
            Prefetch(col.data() + (ahead - sharded_.RunStart(r_ahead)));
          }
        }
        const uint32_t pos = positions[k];
        while (pos >= sharded_.RunStart(r + 1)) ++r;
        if (Offer(&shards_[s], *runs[r], pos - sharded_.RunStart(r),
                  sharded_.hash(pos), symbols)) {
          kept.push_back(pos);
        }
      }
    });
    improvements += sharded_.Picked();
    sharded_.Compact(runs, parallel_for);
  }

  // True iff stored row `row` (read through `cols`, one view per column)
  // holds its key's current best value. Every admitted row went through
  // Filter, so its key is always present.
  bool HoldsBest(const std::vector<Relation::ColumnView>& cols,
                 size_t row) const {
    auto key = [&](size_t c) { return cols[c].at(row); };
    const uint32_t h32 = KeyHash(key);
    const Shard& shard = shards_[ShardedRuns::ShardOf(h32)];
    size_t pos = 0;
    const uint32_t entry = Find(shard, key, h32, &pos);
    return entry == HashSlot::kEmpty ||
           shard.records[entry * stride_ + key_arity_] ==
               cols[key_arity_].at(row);
  }

  // Number of distinct keys seen.
  size_t entries() const {
    size_t total = 0;
    for (const Shard& shard : shards_) total += shard.records.size() / stride_;
    return total;
  }

  // Deterministic work counters (see obs::SccMetrics).
  size_t candidates = 0;
  size_t improvements = 0;

 private:
  // One key-hash shard. Cache-line aligned: concurrent Filter tasks grow
  // neighbouring shards' vectors, and must not share their headers' line.
  struct alignas(64) Shard {
    // Entry e's key, then its best value: records[e * stride_ + c].
    std::vector<Value> records;
    std::vector<HashSlot> slots;  // (hash, entry); power-of-two size or 0
  };

  template <typename KeyFn>
  uint32_t KeyHash(KeyFn&& key) const {
    uint64_t h = key_arity_;
    for (size_t c = 0; c < key_arity_; ++c) h = HashCombine(h, key(c).Hash());
    return FoldHash(h);
  }

  // Offers row `row` of `run` (key hash `h32`) to its key's shard. Returns
  // true — and makes it its key's best — iff the key is new or the value
  // strictly improves the current best.
  bool Offer(Shard* shard, const StagedRun& run, size_t row, uint32_t h32,
             const SymbolTable& symbols) const {
    auto key = [&](size_t c) -> const Value& { return run[c][row]; };
    const Value& value = run[key_arity_][row];
    size_t pos = 0;
    const uint32_t entry = Find(*shard, key, h32, &pos);
    if (entry == HashSlot::kEmpty) {
      const size_t entries = shard->records.size() / stride_;
      if (ReserveHashSlots(&shard->slots, entries + 1)) {
        pos = EmptyHashSlot(shard->slots, h32);
      }
      shard->slots[pos] = HashSlot{h32, static_cast<uint32_t>(entries)};
      for (size_t c = 0; c < key_arity_; ++c) shard->records.push_back(key(c));
      shard->records.push_back(value);
      return true;
    }
    Value& best = shard->records[entry * stride_ + key_arity_];
    const int cmp = CompareValues(value, best, symbols);
    if (kind_ == LatticeKind::kMin ? cmp >= 0 : cmp <= 0) return false;
    best = value;
    return true;
  }

  // Returns the entry whose key equals key(0..key_arity_), or
  // HashSlot::kEmpty with *pos at the insertion slot. An empty shard
  // reports HashSlot::kEmpty.
  template <typename KeyFn>
  uint32_t Find(const Shard& shard, KeyFn&& key, uint32_t h32,
                size_t* pos) const {
    if (shard.slots.empty()) return HashSlot::kEmpty;
    const size_t mask = shard.slots.size() - 1;  // size is a power of two
    for (size_t p = h32 & mask;; p = (p + 1) & mask) {
      const HashSlot& slot = shard.slots[p];
      if (slot.index == HashSlot::kEmpty) {
        *pos = p;
        return HashSlot::kEmpty;
      }
      if (slot.hash != h32) continue;
      const Value* stored = shard.records.data() + slot.index * stride_;
      bool equal = true;
      for (size_t c = 0; c < key_arity_ && equal; ++c) {
        equal = stored[c] == key(c);
      }
      if (equal) return slot.index;
    }
  }

  LatticeKind kind_ = LatticeKind::kMin;
  size_t key_arity_ = 0;
  size_t stride_ = 1;  // key_arity_ + 1
  std::vector<Shard> shards_;  // ShardedRuns::kShards of them
  ShardedRuns sharded_;  // Filter's partition, reused round after round
};

// ---------------------------------------------------------------------------
// Engine implementation proper.
// ---------------------------------------------------------------------------

// Everything one evaluation task (a rule variant, or one chunk of its
// outer join range) writes: derived tuples, stat counters, and — for
// aggregate rules — the group accumulator. A task emits only to its
// rule's head relation, so the buffer carries a single `target` and the
// staged values form a plain run for that relation, held column-wise
// (one vector per head column, `staged_rows` rows) so emitting a derived
// tuple appends values without allocating a row vector, and the merge
// hands the runs to Relation::InsertRuns as they are. After a fan-out
// completes, runs are applied per relation in deterministic task order
// (see Evaluation::ApplyStaged); workers never touch a Relation's mutable
// state. Buffers are recycled through an ObjectPool so their capacity
// survives across fixpoint rounds. A running task stages into a private
// EmitBuffer on its own stack and writes it back once (see
// EvaluateVariants), so the counters and column headers that every
// candidate row bumps never share a cache line with another task's.
struct EmitBuffer {
  Relation* target = nullptr;
  StagedRun staged;  // staged[col][row]
  size_t staged_rows = 0;
  EvalStats stats;
  std::map<Tuple, AggState>* agg = nullptr;

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
    agg = nullptr;
  }
};

// One schedulable unit of a fan-out: a planned rule variant restricted to
// [range_begin, range_end) of its plan's range_atom rows.
struct VariantTask {
  const CompiledRule* rule = nullptr;
  const VariantPlan* plan = nullptr;
  size_t range_begin = 0;
  size_t range_end = std::numeric_limits<size_t>::max();
};

// All the rules of one SCC, compiled upfront (single-threaded) so that
// concurrent SCC evaluation never interns symbols or resolves relations.
struct SccWork {
  int index = 0;  // position in SccsInTopologicalOrder()
  std::vector<std::string> preds;
  bool recursive = false;
  std::vector<CompiledRule> rules;
  // Predicates whose sizes this SCC snapshots: its heads plus every body
  // atom. Restricting the snapshot to these keeps concurrent SCCs from
  // racing on size() of relations another SCC is currently filling.
  std::set<std::string> snapshot_preds;
};

class Evaluation {
 public:
  Evaluation(const Program& program, Database* db, const EvalOptions& options,
             EvalStats* stats, obs::DatalogMetrics* metrics,
             runtime::ExecutionContext* context,
             const runtime::QueryGuard* guard)
      : program_(program),
        db_(db),
        options_(options),
        stats_(stats),
        metrics_(metrics),
        guard_(guard),
        pool_(context != nullptr ? context->pool() : nullptr),
        buffer_pool_(context != nullptr ? context->PoolFor<EmitBuffer>()
                                        : &local_buffer_pool_),
        lattice_pool_(context != nullptr ? context->PoolFor<LatticeTable>()
                                         : &local_lattice_pool_),
        scratch_pool_(context != nullptr ? context->PoolFor<ShardedRuns>()
                                         : &local_scratch_pool_) {}

  ~Evaluation() {
    for (auto& [rel, table] : lattices_) {
      lattice_pool_->Release(std::move(table));
    }
  }

  Status Run();

 private:
  Status PrepareRelations();
  Status CheckStratification(const analysis::DependencyGraph& graph) const;
  Result<CompiledRule> CompileRule(const Rule& rule,
                                   const std::set<std::string>& scc_preds);
  Status EvaluateScc(SccWork* work);

  // Plans the given (rule, delta_atom) variants, prebuilds every index the
  // plans probe, evaluates all variants — fanned out over pool_ when
  // available — and appends the per-task emit buffers to `out` in the same
  // task order a serial evaluation would have produced the tuples.
  Status EvaluateVariants(
      const std::vector<std::pair<const CompiledRule*, int>>& variants,
      const std::unordered_map<std::string, size_t>& snapshot,
      const std::unordered_map<std::string, size_t>& delta_begin,
      std::vector<EmitBuffer>* out, EvalStats* scc_stats);

  // Applies the staged runs to their target relations — the single-writer
  // phase of a round — and recycles the buffers. Runs are grouped per
  // relation and each group goes to Relation::InsertRuns in task order;
  // lattice relations first filter the runs through their LatticeTable,
  // keeping only improving candidates. With a thread pool, relations merge
  // one pool task each (each relation keeps exactly one writer), and each
  // merge runs the hash-partitioned kernel on the pool (storage/merge.h),
  // keeping contents and insertion order bit-identical at any thread
  // count. Without one, every merge takes the serial path. Returns
  // #tuples inserted.
  Result<size_t> ApplyStaged(std::vector<EmitBuffer>* buffers);

  // Evaluates one task into `out`.
  Status EvaluateVariant(const VariantTask& task, EmitBuffer* out);

  Status ExecuteStep(const VariantTask& task, size_t step_index, Env* env,
                     EmitBuffer* out);

  // Drops the rows of the SCC's lattice relations that no longer hold
  // their key's best value, keeping survivors in insertion order, and
  // records the lattice counters into `slot` (when non-null).
  void CompactLattices(const SccWork& work, obs::SccMetrics* slot);

  Status EmitHead(const CompiledRule& rule, Env* env, EmitBuffer* out);
  Status FinalizeAggregates(const CompiledRule& rule,
                            const std::map<Tuple, AggState>& agg,
                            EmitBuffer* out);

  Result<Value> ConstantToValue(const Constant& c) const;
  Result<CompiledTerm> CompileTerm(const Term& term,
                                   std::map<std::string, int>* slots,
                                   std::vector<std::string>* names) const;

  const Program& program_;
  Database* db_;
  EvalOptions options_;
  EvalStats* stats_;
  // Per-SCC detail sink, or nullptr. Pre-sized to the SCC count in Run();
  // each SCC evaluation task writes only its own slot, so concurrent SCCs
  // need no lock and the recorded counters are deterministic.
  obs::DatalogMetrics* metrics_;
  // Cooperative guardrails, or nullptr (the common case: zero checks).
  // Polled per fixpoint round, per ParallelFor chunk, and per scheduled
  // SCC; budgets are fed the deterministic per-round insert counts.
  const runtime::QueryGuard* guard_;
  runtime::ThreadPool* pool_;  // null => strictly serial evaluation
  // Recycles EmitBuffers across rounds; the context's pool when a context
  // exists (so capacity survives across queries on one engine), else a
  // pool local to this evaluation.
  runtime::ObjectPool<EmitBuffer>* buffer_pool_;
  runtime::ObjectPool<EmitBuffer> local_buffer_pool_;
  // Recycles LatticeTables across evaluations the same way.
  runtime::ObjectPool<LatticeTable>* lattice_pool_;
  runtime::ObjectPool<LatticeTable> local_lattice_pool_;
  // Recycles the merge kernel's partition scratch (one per concurrent
  // relation merge) the same way.
  runtime::ObjectPool<ShardedRuns>* scratch_pool_;
  runtime::ObjectPool<ShardedRuns> local_scratch_pool_;

  // Read-only after PrepareRelations; safe to share across SCC tasks.
  std::unordered_map<std::string, Relation*> relations_;
  // Best-value tables of the lattice relations. The map itself is
  // read-only after PrepareRelations; each table is only ever touched by
  // the SCC owning its relation (by that SCC's merge task, then by its
  // compaction), so tables need no lock.
  std::unordered_map<const Relation*, LatticeTable> lattices_;
  std::mutex stats_mutex_;  // guards *stats_ merges from SCC tasks
};

Result<Value> Evaluation::ConstantToValue(const Constant& c) const {
  switch (c.type) {
    case ValueType::kNumber:
      return Value::Number(c.num);
    case ValueType::kFloat:
      return Value::Float(c.fval);
    case ValueType::kSymbol:
      return Value::Symbol(db_->symbols().Intern(c.str));
    case ValueType::kBool:
      return Value::Bool(c.bval);
    case ValueType::kNull:
      return Value::Null();
  }
  return Status::Internal("unhandled constant type");
}

Result<CompiledTerm> Evaluation::CompileTerm(
    const Term& term, std::map<std::string, int>* slots,
    std::vector<std::string>* names) const {
  CompiledTerm out;
  switch (term.kind) {
    case TermKind::kConstant: {
      out.kind = CompiledTerm::kConst;
      RAQLET_ASSIGN_OR_RETURN(out.constant, ConstantToValue(term.constant));
      return out;
    }
    case TermKind::kVariable: {
      out.kind = CompiledTerm::kVar;
      auto it = slots->find(term.var);
      if (it == slots->end()) {
        int id = static_cast<int>(slots->size());
        slots->emplace(term.var, id);
        names->push_back(term.var);
        out.var = id;
      } else {
        out.var = it->second;
      }
      return out;
    }
    case TermKind::kWildcard:
      out.kind = CompiledTerm::kWildcard;
      return out;
    case TermKind::kBinary: {
      out.kind = CompiledTerm::kBinary;
      out.op = term.op;
      RAQLET_ASSIGN_OR_RETURN(CompiledTerm lhs,
                              CompileTerm(term.children[0], slots, names));
      RAQLET_ASSIGN_OR_RETURN(CompiledTerm rhs,
                              CompileTerm(term.children[1], slots, names));
      out.children.push_back(std::move(lhs));
      out.children.push_back(std::move(rhs));
      return out;
    }
  }
  return Status::Internal("unhandled term kind");
}

Status Evaluation::PrepareRelations() {
  for (const RelationDecl& decl : program_.decls) {
    if (decl.is_input) {
      RAQLET_ASSIGN_OR_RETURN(Relation * rel, db_->GetRelation(decl.name));
      if (rel->arity() != decl.arity()) {
        return Status::InvalidArgument(
            "input relation '" + decl.name + "' has arity " +
            std::to_string(rel->arity()) + ", declared " +
            std::to_string(decl.arity()));
      }
      relations_[decl.name] = rel;
      continue;
    }
    if (db_->HasRelation(decl.name)) {
      if (!options_.overwrite_idb) {
        return Status::AlreadyExists("IDB relation exists: " + decl.name);
      }
      RAQLET_ASSIGN_OR_RETURN(Relation * rel, db_->GetRelation(decl.name));
      rel->Clear();
      if (rel->arity() != decl.arity()) {
        // A previous program left this IDB name behind with a different
        // shape; adopt this program's declaration so column borrowing
        // (which trusts arity()) sees the width the rules will insert.
        RelationSchema schema;
        schema.name = decl.name;
        schema.columns = decl.columns;
        schema.primary_key = decl.primary_key;
        rel->ResetSchema(std::move(schema));
      }
      relations_[decl.name] = rel;
    } else {
      RelationSchema schema;
      schema.name = decl.name;
      schema.columns = decl.columns;
      schema.primary_key = decl.primary_key;
      RAQLET_ASSIGN_OR_RETURN(Relation * rel,
                              db_->CreateRelation(std::move(schema)));
      relations_[decl.name] = rel;
    }
    if (decl.lattice != LatticeKind::kNone && decl.arity() > 0) {
      LatticeTable table = lattice_pool_->Acquire();
      table.Reset(decl.lattice, decl.arity() - 1);
      lattices_.emplace(relations_.at(decl.name), std::move(table));
    }
  }
  // Rules must not define input relations.
  for (const Rule& rule : program_.rules) {
    const RelationDecl* decl = program_.FindDecl(rule.head.predicate);
    if (decl != nullptr && decl->is_input) {
      return Status::InvalidArgument("rule defines input relation '" +
                                     rule.head.predicate + "'");
    }
  }
  return Status::OK();
}

Status Evaluation::CheckStratification(
    const analysis::DependencyGraph& graph) const {
  for (const Rule& rule : program_.rules) {
    int head_scc = graph.SccOf(rule.head.predicate);
    for (const Atom& atom : rule.body) {
      if (atom.negated && graph.SccOf(atom.predicate) == head_scc) {
        return Status::Unsupported(
            "program is not stratifiable: negation of '" + atom.predicate +
            "' inside its own recursive component (rule: " + rule.ToString() +
            ")");
      }
      if (rule.agg.has_value() && graph.SccOf(atom.predicate) == head_scc &&
          graph.IsRecursiveScc(head_scc)) {
        return Status::Unsupported(
            "program is not stratifiable: aggregation over '" +
            atom.predicate + "' inside its own recursive component (rule: " +
            rule.ToString() + "); use a lattice relation for monotone "
            "min/max recursion");
      }
    }
  }
  return Status::OK();
}

Result<CompiledRule> Evaluation::CompileRule(
    const Rule& rule, const std::set<std::string>& scc_preds) {
  CompiledRule out;
  out.source = &rule;
  out.head_predicate = rule.head.predicate;
  auto rel_it = relations_.find(rule.head.predicate);
  if (rel_it == relations_.end()) {
    return Status::NotFound("undeclared head predicate: " + rule.head.predicate);
  }
  out.head_relation = rel_it->second;
  const RelationDecl* head_decl = program_.FindDecl(rule.head.predicate);
  out.head_lattice =
      head_decl == nullptr ? LatticeKind::kNone : head_decl->lattice;

  std::map<std::string, int> slots;
  std::vector<std::string> names;

  // Positive atoms first (join candidates), then negated atoms.
  for (const Atom& atom : rule.body) {
    if (atom.negated) continue;
    CompiledAtom ca;
    ca.predicate = atom.predicate;
    auto it = relations_.find(atom.predicate);
    if (it == relations_.end()) {
      return Status::NotFound("undeclared predicate: " + atom.predicate);
    }
    ca.relation = it->second;
    ca.recursive = scc_preds.count(atom.predicate) > 0;
    for (const Term& arg : atom.args) {
      RAQLET_ASSIGN_OR_RETURN(CompiledTerm t, CompileTerm(arg, &slots, &names));
      ca.args.push_back(std::move(t));
    }
    if (ca.recursive) {
      out.recursive_atoms.push_back(static_cast<int>(out.atoms.size()));
    }
    out.atoms.push_back(std::move(ca));
  }
  for (const Atom& atom : rule.body) {
    if (!atom.negated) continue;
    CompiledAtom ca;
    ca.predicate = atom.predicate;
    auto it = relations_.find(atom.predicate);
    if (it == relations_.end()) {
      return Status::NotFound("undeclared predicate: " + atom.predicate);
    }
    ca.relation = it->second;
    ca.negated = true;
    for (const Term& arg : atom.args) {
      RAQLET_ASSIGN_OR_RETURN(CompiledTerm t, CompileTerm(arg, &slots, &names));
      ca.args.push_back(std::move(t));
    }
    out.atoms.push_back(std::move(ca));
  }
  for (const dlir::Constraint& c : rule.constraints) {
    CompiledConstraint cc;
    cc.op = c.op;
    RAQLET_ASSIGN_OR_RETURN(cc.lhs, CompileTerm(c.lhs, &slots, &names));
    RAQLET_ASSIGN_OR_RETURN(cc.rhs, CompileTerm(c.rhs, &slots, &names));
    out.constraints.push_back(std::move(cc));
  }
  for (const Term& arg : rule.head.args) {
    RAQLET_ASSIGN_OR_RETURN(CompiledTerm t, CompileTerm(arg, &slots, &names));
    out.head_args.push_back(std::move(t));
  }
  out.num_vars = slots.size();

  if (rule.agg.has_value()) {
    out.has_agg = true;
    out.agg_func = rule.agg->func;
    out.agg_pos = rule.agg_result_pos;
    if (rule.agg->func != AggFunc::kCount) {
      RAQLET_ASSIGN_OR_RETURN(out.agg_arg,
                              CompileTerm(rule.agg->arg, &slots, &names));
      out.num_vars = slots.size();
    }
  }
  return out;
}

Status Evaluation::EmitHead(const CompiledRule& rule, Env* env,
                            EmitBuffer* out) {
  if (rule.has_agg) {
    // Group key: head args except the aggregate slot.
    Tuple group;
    group.reserve(rule.head_args.size());
    for (size_t i = 0; i < rule.head_args.size(); ++i) {
      if (static_cast<int>(i) == rule.agg_pos) continue;
      RAQLET_ASSIGN_OR_RETURN(Value v, EvalCompiledTerm(rule.head_args[i], *env));
      group.push_back(v);
    }
    // Witness: full variable binding (distinct body matches).
    Tuple witness;
    witness.reserve(env->values.size());
    for (size_t i = 0; i < env->values.size(); ++i) {
      witness.push_back(env->bound[i] ? env->values[i] : Value::Null());
    }
    AggState& state = (*out->agg)[group];
    if (!state.witnesses.insert(std::move(witness)).second) {
      return Status::OK();  // duplicate body match under set semantics
    }
    Value arg_value = Value::Number(0);
    if (rule.agg_func != AggFunc::kCount) {
      RAQLET_ASSIGN_OR_RETURN(arg_value, EvalCompiledTerm(rule.agg_arg, *env));
    }
    state.count += 1;
    if (rule.agg_func == AggFunc::kSum || rule.agg_func == AggFunc::kAvg) {
      state.any_float |= arg_value.kind() == ValueType::kFloat;
      state.sum += arg_value.NumericValue();
    }
    if (rule.agg_func == AggFunc::kMin) {
      if (!state.min.has_value() ||
          CompareValues(arg_value, *state.min, db_->symbols()) < 0) {
        state.min = arg_value;
      }
    }
    if (rule.agg_func == AggFunc::kMax) {
      if (!state.max.has_value() ||
          CompareValues(arg_value, *state.max, db_->symbols()) > 0) {
        state.max = arg_value;
      }
    }
    return Status::OK();
  }

  // Stage column-wise: no per-derived-tuple row allocation. A failed term
  // evaluation can leave the columns ragged, but errors abandon the whole
  // fan-out (buffers are Reset before reuse), so ragged staging never
  // reaches the merge.
  out->PrepareStaging(rule.head_args.size());
  for (size_t i = 0; i < rule.head_args.size(); ++i) {
    RAQLET_ASSIGN_OR_RETURN(Value v, EvalCompiledTerm(rule.head_args[i], *env));
    out->staged[i].push_back(v);
  }
  ++out->staged_rows;
  return Status::OK();
}

Status Evaluation::FinalizeAggregates(const CompiledRule& rule,
                                      const std::map<Tuple, AggState>& agg,
                                      EmitBuffer* out) {
  for (const auto& [group, state] : agg) {
    Value result;
    switch (rule.agg_func) {
      case AggFunc::kCount:
        result = Value::Number(state.count);
        break;
      case AggFunc::kSum:
        result = state.any_float ? Value::Float(state.sum)
                                 : Value::Number(static_cast<int64_t>(state.sum));
        break;
      case AggFunc::kMin:
        result = *state.min;
        break;
      case AggFunc::kMax:
        result = *state.max;
        break;
      case AggFunc::kAvg:
        result = Value::Float(state.count == 0
                                  ? 0.0
                                  : state.sum / static_cast<double>(state.count));
        break;
    }
    out->PrepareStaging(rule.head_args.size());
    size_t gi = 0;
    for (size_t i = 0; i < rule.head_args.size(); ++i) {
      if (static_cast<int>(i) == rule.agg_pos) {
        out->staged[i].push_back(result);
      } else {
        out->staged[i].push_back(group[gi++]);
      }
    }
    ++out->staged_rows;
  }
  return Status::OK();
}

Status Evaluation::ExecuteStep(const VariantTask& task, size_t step_index,
                               Env* env, EmitBuffer* out) {
  const CompiledRule& rule = *task.rule;
  const VariantPlan& plan = *task.plan;
  if (step_index == plan.steps.size()) return EmitHead(rule, env, out);

  const PlanStep& step = plan.steps[step_index];
  switch (step.kind) {
    case PlanStep::kFilter: {
      const CompiledConstraint& c =
          rule.constraints[static_cast<size_t>(step.constraint_index)];
      RAQLET_ASSIGN_OR_RETURN(Value lhs, EvalCompiledTerm(c.lhs, *env));
      RAQLET_ASSIGN_OR_RETURN(Value rhs, EvalCompiledTerm(c.rhs, *env));
      if (!CheckCmp(c.op, lhs, rhs, db_->symbols())) return Status::OK();
      return ExecuteStep(task, step_index + 1, env, out);
    }
    case PlanStep::kBind: {
      const CompiledConstraint& c =
          rule.constraints[static_cast<size_t>(step.constraint_index)];
      const CompiledTerm& source = step.bind_from_lhs ? c.rhs : c.lhs;
      RAQLET_ASSIGN_OR_RETURN(Value v, EvalCompiledTerm(source, *env));
      size_t slot = static_cast<size_t>(step.bind_var);
      env->values[slot] = v;
      env->bound[slot] = true;
      Status s = ExecuteStep(task, step_index + 1, env, out);
      env->bound[slot] = false;
      return s;
    }
    case PlanStep::kNegCheck: {
      const CompiledAtom& atom = rule.atoms[static_cast<size_t>(step.atom_index)];
      Tuple& probe_key = env->probe_scratch[step_index];
      probe_key.clear();
      for (int col : step.probe_cols) {
        RAQLET_ASSIGN_OR_RETURN(
            Value v, EvalCompiledTerm(atom.args[static_cast<size_t>(col)], *env));
        probe_key.push_back(v);
      }
      const size_t limit = step.row_end;
      bool exists = false;
      if (step.probe_cols.empty()) {
        exists = limit > 0;
      } else {
        auto it = step.index->find(probe_key);
        if (it != step.index->end()) {
          for (uint32_t row : it->second) {
            if (row < limit) {
              exists = true;
              break;
            }
          }
        }
      }
      if (exists) return Status::OK();  // negation fails: prune this env
      return ExecuteStep(task, step_index + 1, env, out);
    }
    case PlanStep::kJoinAtom: {
      const CompiledAtom& atom = rule.atoms[static_cast<size_t>(step.atom_index)];
      size_t begin = step.row_begin;
      size_t end = step.row_end;
      if (plan.range_atom == step.atom_index) {
        // Outer-range partitioning: this task only owns a chunk of the
        // rows. Only the outermost join carries a range, so the clamp
        // happens once per variant evaluation.
        if (task.range_begin > begin) begin = task.range_begin;
        if (task.range_end < end) end = task.range_end;
      }

      // Evaluate the statically-determined probe columns.
      Tuple& probe_key = env->probe_scratch[step_index];
      probe_key.clear();
      for (int col : step.probe_cols) {
        RAQLET_ASSIGN_OR_RETURN(
            Value v, EvalCompiledTerm(atom.args[static_cast<size_t>(col)], *env));
        probe_key.push_back(v);
      }

      std::vector<size_t>& newly_bound = env->bound_scratch[step_index];
      auto try_row = [&](size_t row_idx) -> Status {
        ++out->stats.tuples_considered;
        // Unify unbound argument variables against the stored row, read
        // per-column through the borrowed views; repeated variables within
        // the atom compare on second occurrence.
        newly_bound.clear();
        bool matches = true;
        for (size_t i = 0; i < atom.args.size() && matches; ++i) {
          const CompiledTerm& arg = atom.args[i];
          switch (arg.kind) {
            case CompiledTerm::kWildcard:
              break;
            case CompiledTerm::kConst:
              matches = arg.constant == step.cols[i].at(row_idx);
              break;
            case CompiledTerm::kVar: {
              size_t slot = static_cast<size_t>(arg.var);
              Value v = step.cols[i].at(row_idx);
              if (env->bound[slot]) {
                matches = env->values[slot] == v;
              } else {
                env->values[slot] = v;
                env->bound[slot] = true;
                newly_bound.push_back(slot);
              }
              break;
            }
            case CompiledTerm::kBinary: {
              RAQLET_ASSIGN_OR_RETURN(Value v, EvalCompiledTerm(arg, *env));
              matches = v == step.cols[i].at(row_idx);
              break;
            }
          }
        }
        Status s = Status::OK();
        if (matches) s = ExecuteStep(task, step_index + 1, env, out);
        for (size_t slot : newly_bound) env->bound[slot] = false;
        return s;
      };

      if (!step.probe_cols.empty()) {
        auto it = step.index->find(probe_key);
        if (it == step.index->end()) return Status::OK();
        // Row-index lists are ascending (see Relation::KeyIndex), so the
        // emit order within a chunk matches the serial scan order.
        for (uint32_t row_idx : it->second) {
          if (row_idx < begin || row_idx >= end) continue;
          RAQLET_RETURN_IF_ERROR(try_row(row_idx));
        }
        return Status::OK();
      }
      for (size_t row_idx = begin; row_idx < end; ++row_idx) {
        RAQLET_RETURN_IF_ERROR(try_row(row_idx));
      }
      return Status::OK();
    }
  }
  return Status::Internal("unhandled plan step");
}

Status Evaluation::EvaluateVariant(const VariantTask& task, EmitBuffer* out) {
  Env env(task.rule->num_vars, task.plan->steps.size());
  return ExecuteStep(task, 0, &env, out);
}

// Minimum chunk of outer-atom rows worth shipping to another thread; below
// this the fan-out overhead (buffers, task dispatch) beats the join work.
constexpr size_t kMinRowsPerChunk = 64;

Status Evaluation::EvaluateVariants(
    const std::vector<std::pair<const CompiledRule*, int>>& variants,
    const std::unordered_map<std::string, size_t>& snapshot,
    const std::unordered_map<std::string, size_t>& delta_begin,
    std::vector<EmitBuffer>* out, EvalStats* scc_stats) {
  // Plan every variant and prebuild every index the plans will probe —
  // single-threaded, so Relation caches mutate before any fan-out.
  std::vector<VariantPlan> plans;
  plans.reserve(variants.size());
  for (const auto& [rule, delta_atom] : variants) {
    ++scc_stats->rule_evaluations;
    RAQLET_ASSIGN_OR_RETURN(
        VariantPlan plan, PlanVariant(*rule, delta_atom, options_.reorder_atoms));
    for (PlanStep& step : plan.steps) {
      if (step.atom_index < 0) continue;
      const CompiledAtom& atom =
          rule->atoms[static_cast<size_t>(step.atom_index)];
      const Relation* rel = atom.relation;
      auto snap = snapshot.find(atom.predicate);
      step.row_end = snap != snapshot.end() ? snap->second : rel->size();
      if (plan.delta_atom == step.atom_index) {
        auto delta = delta_begin.find(atom.predicate);
        if (delta != delta_begin.end()) step.row_begin = delta->second;
      }
      if (step.kind == PlanStep::kJoinAtom) {
        // Borrow the joined relation's storage columns now, while still
        // single-threaded: workers then scan without materializing rows
        // (and without racing on the lazily-folded rows() cache).
        step.cols.reserve(rel->arity());
        for (size_t c = 0; c < rel->arity(); ++c) {
          step.cols.push_back(rel->Column(c));
        }
      }
      if (step.probe_cols.empty()) continue;
      step.index = rel->EnsureIndex(step.probe_cols);
    }
    plans.push_back(std::move(plan));
  }

  // Split each variant's outer join range into chunks. Aggregate rules
  // stay single-task (the group accumulator spans the whole range).
  std::vector<VariantTask> tasks;
  for (size_t v = 0; v < variants.size(); ++v) {
    const CompiledRule* rule = variants[v].first;
    const VariantPlan& plan = plans[v];
    VariantTask whole;
    whole.rule = rule;
    whole.plan = &plan;
    if (pool_ == nullptr || rule->has_agg || plan.range_atom < 0) {
      tasks.push_back(whole);
      continue;
    }
    size_t begin = 0;
    size_t end = 0;
    for (const PlanStep& step : plan.steps) {
      if (step.kind == PlanStep::kJoinAtom &&
          step.atom_index == plan.range_atom) {
        begin = step.row_begin;
        end = step.row_end;
      }
    }
    size_t range = end > begin ? end - begin : 0;
    size_t max_chunks = static_cast<size_t>(pool_->num_threads()) * 4;
    size_t chunks = range / kMinRowsPerChunk;
    if (chunks > max_chunks) chunks = max_chunks;
    if (chunks <= 1) {
      tasks.push_back(whole);
      continue;
    }
    size_t chunk_size = (range + chunks - 1) / chunks;
    for (size_t c = 0; c < chunks; ++c) {
      VariantTask task = whole;
      task.range_begin = begin + c * chunk_size;
      task.range_end = std::min(end, task.range_begin + chunk_size);
      if (task.range_begin >= task.range_end) break;
      tasks.push_back(task);
    }
  }

  // Evaluate. Each task owns a pooled EmitBuffer; workers share nothing.
  std::vector<EmitBuffer> buffers;
  buffers.reserve(tasks.size());
  for (const VariantTask& task : tasks) {
    EmitBuffer buffer = buffer_pool_->Acquire();
    buffer.target = task.rule->head_relation;
    buffers.push_back(std::move(buffer));
  }
  std::vector<Status> statuses(tasks.size(), Status::OK());
  auto run_task = [&](size_t i) {
    // Per-chunk guard poll: a trip observed here (or by the guard-aware
    // ParallelFor skipping unstarted chunks) surfaces as this chunk's
    // status; the sticky cause keeps the reported error deterministic.
    if (guard_ != nullptr) {
      Status g = guard_->Check();
      if (!g.ok()) {
        statuses[i] = std::move(g);
        return;
      }
    }
    obs::TraceScope span("datalog.variant", static_cast<int64_t>(i));
    // Stage into a private buffer: its counters live on this task's stack
    // and its column headers in an array this thread allocates, so no
    // per-row write lands on a cache line another task writes. The pooled
    // buffer's columns (and their capacity) are swapped in and, with the
    // counters, handed back once at the end.
    EmitBuffer& shared = buffers[i];
    EmitBuffer local;
    local.target = shared.target;
    local.staged.resize(shared.staged.size());
    for (size_t c = 0; c < local.staged.size(); ++c) {
      local.staged[c].swap(shared.staged[c]);
    }
    std::map<Tuple, AggState> agg;
    if (tasks[i].rule->has_agg) local.agg = &agg;
    Status s = EvaluateVariant(tasks[i], &local);
    if (s.ok() && tasks[i].rule->has_agg) {
      s = FinalizeAggregates(*tasks[i].rule, agg, &local);
    }
    local.agg = nullptr;
    shared = std::move(local);
    statuses[i] = std::move(s);
  };
  if (pool_ != nullptr && tasks.size() > 1) {
    pool_->ParallelFor(tasks.size(), run_task, guard_);
  } else {
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (guard_ != nullptr && guard_->tripped()) break;
      run_task(i);
    }
  }

  // Chunks skipped by a tripped guard left their status OK and produced
  // nothing; report the trip instead of treating the round as complete.
  if (guard_ != nullptr && guard_->tripped()) {
    for (EmitBuffer& buffer : buffers) {
      buffer.Reset();
      buffer_pool_->Release(std::move(buffer));
    }
    return guard_->TripStatus();
  }

  // Task order equals the order a serial evaluation visits the same rows,
  // so handing the buffers over in task order keeps every relation's
  // staged run — and therefore its insertion order — identical for any
  // thread count. Stats merge stops at the first error, matching what a
  // serial evaluation would have accumulated before failing.
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (!statuses[i].ok()) {
      for (EmitBuffer& buffer : buffers) {
        buffer.Reset();
        buffer_pool_->Release(std::move(buffer));
      }
      return statuses[i];
    }
    scc_stats->tuples_considered += buffers[i].stats.tuples_considered;
  }
  for (EmitBuffer& buffer : buffers) out->push_back(std::move(buffer));
  return Status::OK();
}

Result<size_t> Evaluation::ApplyStaged(std::vector<EmitBuffer>* buffers) {
  obs::TraceScope span("datalog.merge");
  // Group staged runs by target relation, preserving first-appearance
  // (task) order both across groups and within each group.
  std::vector<std::pair<Relation*, std::vector<size_t>>> groups;
  std::unordered_map<Relation*, size_t> group_of;
  for (size_t i = 0; i < buffers->size(); ++i) {
    if ((*buffers)[i].staged_rows == 0) continue;
    auto [it, fresh] = group_of.emplace((*buffers)[i].target, groups.size());
    if (fresh) groups.emplace_back((*buffers)[i].target, std::vector<size_t>{});
    groups[it->second].second.push_back(i);
  }

  // Storage's data-parallel loop: the pool's ParallelFor, or none, which
  // keeps every merge of a serial evaluation on the serial path.
  ParallelForFn parallel_for;
  if (pool_ != nullptr) {
    parallel_for = [this](size_t count,
                          const std::function<void(size_t)>& body) {
      pool_->ParallelFor(count, body);
    };
  }

  std::vector<size_t> inserted(groups.size(), 0);
  std::vector<Status> statuses(groups.size(), Status::OK());
  auto apply_group = [&](size_t g) -> void {
    Relation* rel = groups[g].first;
#if defined(RAQLET_FAILPOINTS)
    {
      // Injection point for the kill-point sweep: fail one relation's
      // merge while sibling shards may be mid-insert on other relations.
      Status fp = runtime::FailpointHit("datalog.apply_staged");
      if (!fp.ok()) {
        statuses[g] = std::move(fp);
        return;
      }
    }
#endif
    // The runs go to storage in task order, as they are: no concatenation.
    std::vector<StagedRun*> runs;
    runs.reserve(groups[g].second.size());
    for (size_t i : groups[g].second) runs.push_back(&(*buffers)[i].staged);
    auto lattice = lattices_.find(rel);
    if (lattice != lattices_.end()) {
      obs::TraceScope lattice_span("datalog.merge.lattice");
      lattice->second.Filter(runs, db_->symbols(), parallel_for);
    }
    std::optional<obs::TraceScope> phase_span;
    std::optional<ShardedRuns> scratch;
    if (parallel_for != nullptr) scratch = scratch_pool_->Acquire();
    Result<size_t> r = rel->InsertRuns(
        runs, parallel_for, [&phase_span](Relation::MergePhase phase) {
          phase_span.reset();
          switch (phase) {
            case Relation::MergePhase::kProbe:
              phase_span.emplace("datalog.merge.probe");
              break;
            case Relation::MergePhase::kAppend:
              phase_span.emplace("datalog.merge.append");
              break;
            case Relation::MergePhase::kIndexFold:
              phase_span.emplace("datalog.merge.index_fold");
              break;
          }
        },
        scratch.has_value() ? &*scratch : nullptr);
    if (scratch.has_value()) scratch_pool_->Release(std::move(*scratch));
    phase_span.reset();
    if (r.ok()) {
      inserted[g] = *r;
    } else {
      statuses[g] = r.status();
    }
  };

  // One task per relation. Each relation has exactly one writer (this
  // task; the kernel's helpers only read it), and no concurrently-running
  // SCC reads a relation this SCC writes (the scheduler only starts an SCC
  // after all its dependencies finished), so the single-writer contract
  // holds.
  if (pool_ != nullptr && groups.size() > 1) {
    pool_->ParallelFor(groups.size(), apply_group);
  } else {
    for (size_t g = 0; g < groups.size(); ++g) apply_group(g);
  }

  size_t total_inserted = 0;
  for (size_t n : inserted) total_inserted += n;
  for (EmitBuffer& buffer : *buffers) {
    buffer.Reset();
    buffer_pool_->Release(std::move(buffer));
  }
  buffers->clear();
  for (Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return total_inserted;
}

Status Evaluation::EvaluateScc(SccWork* work) {
  obs::TraceScope scc_span("datalog.scc", work->index);
  const std::vector<std::string>& scc_preds = work->preds;
  const std::vector<CompiledRule>& rules = work->rules;
  EvalStats scc_stats;
  std::vector<EmitBuffer> staged;
  // This task owns its metrics slot exclusively (slots are pre-sized in
  // Run, indexed by topological SCC position), so no lock is needed.
  obs::SccMetrics* slot =
      metrics_ == nullptr ? nullptr
                          : &metrics_->sccs[static_cast<size_t>(work->index)];
  const auto scc_start = std::chrono::steady_clock::now();

  // The single-writer phase of each round: per-relation batched (and,
  // with a pool, sharded) merge of the staged runs. `last_inserted`
  // exposes each merge's admitted-tuple count — the next round's delta
  // size — to the metrics recording below.
  size_t last_inserted = 0;
  // Byte-budget watermark over the relations this SCC writes (only this
  // task mutates them, so reading their MemoryBytes races with nobody).
  size_t bytes_seen = 0;
  auto apply_staged = [&]() -> Status {
    RAQLET_ASSIGN_OR_RETURN(size_t inserted, ApplyStaged(&staged));
    scc_stats.tuples_inserted += inserted;
    last_inserted = inserted;
    return Status::OK();
  };

  // One guard checkpoint per round (and per merge): deadline/cancel via
  // Check(), row budget via the round's deterministic insert count, byte
  // budget via the growth of this SCC's relations since the last round.
  auto guard_checkpoint = [&]() -> Status {
    if (guard_ == nullptr) return Status::OK();
    RAQLET_RETURN_IF_ERROR(guard_->AddRows(last_inserted));
    if (guard_->max_bytes() > 0) {
      size_t bytes_now = 0;
      for (const std::string& pred : scc_preds) {
        bytes_now += relations_.at(pred)->MemoryBytes();
      }
      size_t delta = bytes_now > bytes_seen ? bytes_now - bytes_seen : 0;
      bytes_seen = bytes_now;
      RAQLET_RETURN_IF_ERROR(guard_->AddBytes(delta));
    }
    return guard_->Check();
  };

  // Only the predicates this SCC's rules mention: sizes of unrelated
  // relations may be changing concurrently in other SCCs.
  auto snapshot_sizes = [&]() {
    std::unordered_map<std::string, size_t> snapshot;
    for (const std::string& name : work->snapshot_preds) {
      snapshot[name] = relations_.at(name)->size();
    }
    return snapshot;
  };

  auto merge_stats = [&]() {
    if (slot != nullptr) {
      slot->rounds = scc_stats.fixpoint_rounds;
      slot->rule_evaluations = scc_stats.rule_evaluations;
      slot->tuples_considered = scc_stats.tuples_considered;
      slot->tuples_inserted = scc_stats.tuples_inserted;
      slot->micros = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - scc_start)
                         .count();
    }
    if (stats_ == nullptr) return;
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_->fixpoint_rounds += scc_stats.fixpoint_rounds;
    stats_->tuples_inserted += scc_stats.tuples_inserted;
    stats_->rule_evaluations += scc_stats.rule_evaluations;
    stats_->tuples_considered += scc_stats.tuples_considered;
  };

  if (rules.empty()) return Status::OK();

  if (!work->recursive) {
    auto snapshot = snapshot_sizes();
    std::vector<std::pair<const CompiledRule*, int>> variants;
    for (const CompiledRule& rule : rules) variants.emplace_back(&rule, -1);
    Status s = EvaluateVariants(variants, snapshot, {}, &staged, &scc_stats);
    if (s.ok()) s = apply_staged();
    if (s.ok()) s = guard_checkpoint();
    if (s.ok()) CompactLattices(*work, slot);
    merge_stats();
    return s;
  }

  // Recursive SCC. Aggregates are rejected by stratification earlier.
  // Phase 1: exit rules (no recursive body atom).
  std::unordered_map<std::string, size_t> delta_begin;
  for (const std::string& pred : scc_preds) {
    delta_begin[pred] = relations_.at(pred)->size();
  }
  {
    auto snapshot = snapshot_sizes();
    std::vector<std::pair<const CompiledRule*, int>> variants;
    for (const CompiledRule& rule : rules) {
      if (rule.recursive_atoms.empty()) variants.emplace_back(&rule, -1);
    }
    Status s = EvaluateVariants(variants, snapshot, {}, &staged, &scc_stats);
    if (s.ok()) s = apply_staged();
    if (s.ok()) s = guard_checkpoint();
    if (!s.ok()) {
      merge_stats();
      return s;
    }
    // The exit-rule batch is round 0's delta.
    if (slot != nullptr) slot->round_delta_sizes.push_back(last_inserted);
  }

  // Phase 2: fixpoint. Each round evaluates one variant per recursive
  // body atom with that atom restricted to the previous round's delta.
  size_t round = 0;
  while (true) {
    bool any_delta = false;
    for (const std::string& pred : scc_preds) {
      if (relations_.at(pred)->size() > delta_begin[pred]) {
        any_delta = true;
        break;
      }
    }
    if (!any_delta) break;
    ++round;
    ++scc_stats.fixpoint_rounds;
    obs::TraceScope round_span("datalog.round",
                               static_cast<int64_t>(round));
    if (options_.max_iterations != 0 && round > options_.max_iterations) {
      merge_stats();
      return Status::Unsupported(
          "fixpoint did not converge within " +
          std::to_string(options_.max_iterations) +
          " rounds; the termination analysis may flag this query");
    }

    auto snapshot = snapshot_sizes();
    std::vector<std::pair<const CompiledRule*, int>> variants;
    for (const CompiledRule& rule : rules) {
      if (rule.recursive_atoms.empty()) continue;
      if (options_.seminaive) {
        for (int delta_atom : rule.recursive_atoms) {
          variants.emplace_back(&rule, delta_atom);
        }
      } else {
        variants.emplace_back(&rule, -1);
      }
    }
    // Non-seminaive variants carry delta_atom == -1 and never consult
    // delta_begin, so passing it unconditionally is safe.
    Status s = EvaluateVariants(variants, snapshot, delta_begin, &staged,
                                &scc_stats);
    if (!s.ok()) {
      merge_stats();
      return s;
    }
    for (const std::string& pred : scc_preds) {
      delta_begin[pred] = snapshot[pred];
    }
    s = apply_staged();
    if (s.ok()) s = guard_checkpoint();
    if (!s.ok()) {
      merge_stats();
      return s;
    }
    if (slot != nullptr) slot->round_delta_sizes.push_back(last_inserted);
  }

  CompactLattices(*work, slot);
  merge_stats();
  return Status::OK();
}

void Evaluation::CompactLattices(const SccWork& work, obs::SccMetrics* slot) {
  for (const std::string& pred : work.preds) {
    Relation* rel = relations_.at(pred);
    auto lattice = lattices_.find(rel);
    if (lattice == lattices_.end()) continue;
    LatticeTable& table = lattice->second;
    size_t dropped = 0;
    // Every key has at least one row, so as many rows as keys means no
    // row was ever superseded: nothing to drop, no span, no scan.
    if (table.entries() != rel->size()) {
      obs::TraceScope span("datalog.lattice_compact");
      std::vector<Relation::ColumnView> cols;
      cols.reserve(rel->arity());
      for (size_t c = 0; c < rel->arity(); ++c) cols.push_back(rel->Column(c));
      std::vector<uint8_t> dead(rel->size(), 0);
      for (size_t row = 0; row < dead.size(); ++row) {
        dead[row] = table.HoldsBest(cols, row) ? 0 : 1;
      }
      dropped = rel->EraseRows(dead);
    }
    if (slot != nullptr) {
      slot->lattice_candidates += table.candidates;
      slot->lattice_improvements += table.improvements;
      slot->lattice_dropped += dropped;
    }
  }
}

Status Evaluation::Run() {
  obs::TraceScope run_span("datalog.run");
  RAQLET_RETURN_IF_ERROR(program_.Validate());
  RAQLET_RETURN_IF_ERROR(PrepareRelations());

  analysis::DependencyGraph graph = analysis::DependencyGraph::Build(program_);
  RAQLET_RETURN_IF_ERROR(CheckStratification(graph));

  // Compile every SCC's rules upfront, single-threaded: rule compilation
  // interns constants into the shared symbol table and resolves relation
  // pointers, neither of which may race with concurrent SCC evaluation.
  const auto& sccs = graph.SccsInTopologicalOrder();
  std::vector<SccWork> work(sccs.size());
  if (metrics_ != nullptr) {
    metrics_->sccs.assign(sccs.size(), obs::SccMetrics{});
  }
  for (size_t i = 0; i < sccs.size(); ++i) {
    work[i].index = static_cast<int>(i);
    work[i].preds = sccs[i];
    work[i].recursive = graph.IsRecursiveScc(static_cast<int>(i));
    if (metrics_ != nullptr) {
      metrics_->sccs[i].preds = sccs[i];
      metrics_->sccs[i].recursive = work[i].recursive;
    }
    std::set<std::string> scc_set(sccs[i].begin(), sccs[i].end());
    for (const Rule& rule : program_.rules) {
      if (scc_set.count(rule.head.predicate) == 0) continue;
      RAQLET_ASSIGN_OR_RETURN(CompiledRule cr, CompileRule(rule, scc_set));
      work[i].snapshot_preds.insert(rule.head.predicate);
      for (const CompiledAtom& atom : cr.atoms) {
        work[i].snapshot_preds.insert(atom.predicate);
      }
      work[i].rules.push_back(std::move(cr));
    }
  }

  if (pool_ == nullptr) {
    for (SccWork& w : work) {
      if (guard_ != nullptr) RAQLET_RETURN_IF_ERROR(guard_->Check());
      RAQLET_RETURN_IF_ERROR(EvaluateScc(&w));
    }
    return Status::OK();
  }

  // Independent SCCs run concurrently; an SCC starts only after every SCC
  // it depends on finished, so all relations it reads (beyond its own) are
  // frozen for its whole lifetime.
  runtime::SccDag dag = runtime::BuildSccDag(graph);
  return runtime::RunSccDag(
      dag, pool_,
      [&](int i) { return EvaluateScc(&work[static_cast<size_t>(i)]); },
      guard_);
}

}  // namespace

std::string EvalStats::ToString() const {
  std::ostringstream os;
  os << "rounds=" << fixpoint_rounds << " inserted=" << tuples_inserted
     << " rule_evals=" << rule_evaluations
     << " tuples_considered=" << tuples_considered;
  return os.str();
}

Status DatalogEngine::Run(const dlir::Program& program, Database* db,
                          EvalStats* stats, obs::DatalogMetrics* metrics,
                          const runtime::QueryGuard* guard) const {
  const runtime::QueryGuard* g = guard != nullptr ? guard : options_.guard;
  Evaluation eval(program, db, options_, stats, metrics, context_.get(), g);
  return eval.Run();
}

}  // namespace raqlet::engine
