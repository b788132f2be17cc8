#include "engine/datalog/rule_kernel.h"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <unordered_set>

#include "engine/value_ops.h"
#include "obs/trace.h"
#include "runtime/failpoint.h"
#include "runtime/thread_pool.h"

namespace raqlet::engine::datalog {

namespace {

using dlir::AggFunc;
using dlir::CmpOp;
using dlir::Constant;
using dlir::Term;
using dlir::TermKind;

Result<Value> ConstantToValue(const Constant& c, SymbolTable* symbols) {
  switch (c.type) {
    case ValueType::kNumber:
      return Value::Number(c.num);
    case ValueType::kFloat:
      return Value::Float(c.fval);
    case ValueType::kSymbol:
      return Value::Symbol(symbols->Intern(c.str));
    case ValueType::kBool:
      return Value::Bool(c.bval);
    case ValueType::kNull:
      return Value::Null();
  }
  return Status::Internal("unhandled constant type");
}

Result<CompiledTerm> CompileTerm(const Term& term,
                                 std::map<std::string, int>* slots,
                                 SymbolTable* symbols) {
  CompiledTerm out;
  switch (term.kind) {
    case TermKind::kConstant: {
      out.kind = CompiledTerm::kConst;
      RAQLET_ASSIGN_OR_RETURN(out.constant,
                              ConstantToValue(term.constant, symbols));
      return out;
    }
    case TermKind::kVariable: {
      out.kind = CompiledTerm::kVar;
      auto it = slots->find(term.var);
      if (it == slots->end()) {
        int id = static_cast<int>(slots->size());
        slots->emplace(term.var, id);
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
                              CompileTerm(term.children[0], slots, symbols));
      RAQLET_ASSIGN_OR_RETURN(CompiledTerm rhs,
                              CompileTerm(term.children[1], slots, symbols));
      out.children.push_back(std::move(lhs));
      out.children.push_back(std::move(rhs));
      return out;
    }
  }
  return Status::Internal("unhandled term kind");
}

// Runtime variable environment, plus per-plan-step scratch buffers. The
// scratch is indexed by step: execution never re-enters the same step
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

// Aggregation accumulator: per group, aggregates over the set of distinct
// body-variable bindings (witnesses), which realizes set-semantics
// aggregation (§3: RETURN DISTINCT-style translation).
struct AggState {
  std::unordered_set<Tuple, TupleHash> witnesses;
  int64_t count = 0;
  double sum = 0.0;
  bool any_float = false;
  std::optional<Value> min;
  std::optional<Value> max;
};

// Out-mode sink: stages every derived head (raw, not deduplicated) into an
// EmitBuffer, or, for an aggregate rule, folds it into `agg`'s groups.
struct StageSink {
  EmitBuffer* out;
  std::map<Tuple, AggState>* agg = nullptr;

  static constexpr bool Done() { return false; }
  size_t& considered() { return out->stats.tuples_considered; }

  Status Emit(const CompiledRule& rule, const Env& env,
              const SymbolTable& symbols) {
    if (rule.has_agg) return Aggregate(rule, env, symbols);
    // Stage column-wise: no per-derived-tuple row allocation. A failed
    // term evaluation can leave the columns ragged, but errors abandon the
    // whole fan-out (buffers are Reset before reuse), so ragged staging
    // never reaches the merge.
    out->PrepareStaging(rule.head_args.size());
    for (size_t i = 0; i < rule.head_args.size(); ++i) {
      RAQLET_ASSIGN_OR_RETURN(Value v, EvalCompiledTerm(rule.head_args[i], env));
      out->staged[i].push_back(v);
    }
    ++out->staged_rows;
    return Status::OK();
  }

  Status Aggregate(const CompiledRule& rule, const Env& env,
                   const SymbolTable& symbols) {
    // Group key: head args except the aggregate slot.
    Tuple group;
    group.reserve(rule.head_args.size());
    for (size_t i = 0; i < rule.head_args.size(); ++i) {
      if (static_cast<int>(i) == rule.agg_pos) continue;
      RAQLET_ASSIGN_OR_RETURN(Value v, EvalCompiledTerm(rule.head_args[i], env));
      group.push_back(v);
    }
    // Witness: full variable binding (distinct body matches).
    Tuple witness;
    witness.reserve(env.values.size());
    for (size_t i = 0; i < env.values.size(); ++i) {
      witness.push_back(env.bound[i] ? env.values[i] : Value::Null());
    }
    AggState& state = (*agg)[group];
    if (!state.witnesses.insert(std::move(witness)).second) {
      return Status::OK();  // duplicate body match under set semantics
    }
    Value arg_value = Value::Number(0);
    if (rule.agg_func != AggFunc::kCount) {
      RAQLET_ASSIGN_OR_RETURN(arg_value, EvalCompiledTerm(rule.agg_arg, env));
    }
    state.count += 1;
    if (rule.agg_func == AggFunc::kSum || rule.agg_func == AggFunc::kAvg) {
      state.any_float |= arg_value.kind() == ValueType::kFloat;
      state.sum += arg_value.NumericValue();
    }
    if (rule.agg_func == AggFunc::kMin) {
      if (!state.min.has_value() ||
          CompareValues(arg_value, *state.min, symbols) < 0) {
        state.min = arg_value;
      }
    }
    if (rule.agg_func == AggFunc::kMax) {
      if (!state.max.has_value() ||
          CompareValues(arg_value, *state.max, symbols) > 0) {
        state.max = arg_value;
      }
    }
    return Status::OK();
  }
};

// Check-mode sink: looks for one derivation of `target`.
struct CheckSink {
  const Tuple* target;
  bool found = false;
  size_t tuples_considered = 0;

  bool Done() const { return found; }
  size_t& considered() { return tuples_considered; }

  Status Emit(const CompiledRule& rule, const Env& env, const SymbolTable&) {
    for (size_t i = 0; i < rule.head_args.size(); ++i) {
      RAQLET_ASSIGN_OR_RETURN(Value v, EvalCompiledTerm(rule.head_args[i], env));
      if (!(v == (*target)[i])) return Status::OK();
    }
    found = true;
    return Status::OK();
  }
};

// Runs one planned variant over [range_begin, range_end) of its range
// atom's rows, handing every derivation to the sink.
template <typename Sink>
class StepInterpreter {
 public:
  StepInterpreter(const VariantPlan& plan, size_t range_begin,
                  size_t range_end, const SymbolTable& symbols, Sink* sink)
      : rule_(*plan.rule),
        plan_(plan),
        range_begin_(range_begin),
        range_end_(range_end),
        symbols_(symbols),
        sink_(sink) {}

  Status Execute(size_t step_index, Env* env);

 private:
  // Joins the atom of step `step_index` against rows [begin, end) of one
  // source, skipping the rows its mask names.
  Status JoinRows(size_t step_index, const JoinSource& src, size_t begin,
                  size_t end, Env* env);

  const CompiledRule& rule_;
  const VariantPlan& plan_;
  size_t range_begin_;
  size_t range_end_;
  const SymbolTable& symbols_;
  Sink* sink_;
};

template <typename Sink>
Status StepInterpreter<Sink>::Execute(size_t step_index, Env* env) {
  if (sink_->Done()) return Status::OK();
  if (step_index == plan_.steps.size()) {
    return sink_->Emit(rule_, *env, symbols_);
  }

  const PlanStep& step = plan_.steps[step_index];
  switch (step.kind) {
    case PlanStep::kFilter: {
      const CompiledConstraint& c =
          rule_.constraints[static_cast<size_t>(step.constraint_index)];
      RAQLET_ASSIGN_OR_RETURN(Value lhs, EvalCompiledTerm(c.lhs, *env));
      RAQLET_ASSIGN_OR_RETURN(Value rhs, EvalCompiledTerm(c.rhs, *env));
      if (!CheckCmp(c.op, lhs, rhs, symbols_)) return Status::OK();
      return Execute(step_index + 1, env);
    }
    case PlanStep::kBind: {
      const CompiledConstraint& c =
          rule_.constraints[static_cast<size_t>(step.constraint_index)];
      const CompiledTerm& source = step.bind_from_lhs ? c.rhs : c.lhs;
      RAQLET_ASSIGN_OR_RETURN(Value v, EvalCompiledTerm(source, *env));
      size_t slot = static_cast<size_t>(step.bind_var);
      env->values[slot] = v;
      env->bound[slot] = true;
      Status s = Execute(step_index + 1, env);
      env->bound[slot] = false;
      return s;
    }
    case PlanStep::kNegCheck: {
      const CompiledAtom& atom =
          rule_.atoms[static_cast<size_t>(step.atom_index)];
      Tuple& probe_key = env->probe_scratch[step_index];
      probe_key.clear();
      for (int col : step.probe_cols) {
        RAQLET_ASSIGN_OR_RETURN(
            Value v, EvalCompiledTerm(atom.args[static_cast<size_t>(col)], *env));
        probe_key.push_back(v);
      }
      auto skipped = [](const JoinSource& src, size_t row) {
        return src.skip != nullptr && (*src.skip)[row] != 0;
      };
      bool exists = false;
      for (const JoinSource& src : step.sources) {
        if (src.index == nullptr) {
          for (size_t row = src.row_begin; row < src.row_end; ++row) {
            if (!skipped(src, row)) {
              exists = true;
              break;
            }
          }
        } else {
          auto it = src.index->find(probe_key);
          if (it != src.index->end()) {
            for (uint32_t row : it->second) {
              if (row < src.row_end && !skipped(src, row)) {
                exists = true;
                break;
              }
            }
          }
        }
        if (exists) return Status::OK();  // negation fails: prune this env
      }
      return Execute(step_index + 1, env);
    }
    case PlanStep::kJoinAtom: {
      // Evaluate the statically-determined probe columns.
      const CompiledAtom& atom =
          rule_.atoms[static_cast<size_t>(step.atom_index)];
      Tuple& probe_key = env->probe_scratch[step_index];
      probe_key.clear();
      for (int col : step.probe_cols) {
        RAQLET_ASSIGN_OR_RETURN(
            Value v, EvalCompiledTerm(atom.args[static_cast<size_t>(col)], *env));
        probe_key.push_back(v);
      }
      for (const JoinSource& src : step.sources) {
        size_t begin = src.row_begin;
        size_t end = src.row_end;
        if (plan_.range_atom == step.atom_index) {
          // Outer-range partitioning: this task only owns a chunk of the
          // rows. Only the outermost join carries a range, so the clamp
          // happens once per variant evaluation.
          begin = std::max(begin, range_begin_);
          end = std::min(end, range_end_);
        }
        RAQLET_RETURN_IF_ERROR(JoinRows(step_index, src, begin, end, env));
      }
      return Status::OK();
    }
  }
  return Status::Internal("unhandled plan step");
}

template <typename Sink>
Status StepInterpreter<Sink>::JoinRows(size_t step_index,
                                       const JoinSource& src, size_t begin,
                                       size_t end, Env* env) {
  const PlanStep& step = plan_.steps[step_index];
  const CompiledAtom& atom = rule_.atoms[static_cast<size_t>(step.atom_index)];
  const std::vector<Relation::ColumnView>& cols = src.cols;
  std::vector<size_t>& newly_bound = env->bound_scratch[step_index];
  // Candidate rows: the probe key's row list, or the whole range. One loop
  // serves both, so the row body below is written (and compiled) once.
  const std::vector<uint32_t>* listed = nullptr;
  if (src.index != nullptr) {
    auto it = src.index->find(env->probe_scratch[step_index]);
    if (it == src.index->end()) return Status::OK();
    listed = &it->second;
  }
  const size_t candidates = listed != nullptr ? listed->size()
                            : end > begin     ? end - begin
                                              : 0;
  // Null for every batch source: the mask test is a loop-invariant,
  // always-predicted check beside the range test.
  const uint8_t* skip = src.skip != nullptr ? src.skip->data() : nullptr;
  for (size_t k = 0; k < candidates; ++k) {
    size_t row_idx = begin + k;
    if (listed != nullptr) {
      // Row-index lists are ascending (see Relation::KeyIndex), so the
      // emit order within a chunk matches the serial scan order.
      row_idx = (*listed)[k];
      if (row_idx < begin || row_idx >= end) continue;
    }
    if (skip != nullptr && skip[row_idx] != 0) continue;
    if (sink_->Done()) return Status::OK();
    ++sink_->considered();
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
          matches = arg.constant == cols[i].at(row_idx);
          break;
        case CompiledTerm::kVar: {
          size_t slot = static_cast<size_t>(arg.var);
          Value v = cols[i].at(row_idx);
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
          matches = v == cols[i].at(row_idx);
          break;
        }
      }
    }
    Status s = Status::OK();
    if (matches) s = Execute(step_index + 1, env);
    for (size_t slot : newly_bound) env->bound[slot] = false;
    RAQLET_RETURN_IF_ERROR(s);
  }
  return Status::OK();
}

// Turns the aggregate groups of one task into staged head rows.
void FinalizeAggregates(const CompiledRule& rule,
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
}

// One schedulable unit of a fan-out: a planned rule variant restricted to
// [range_begin, range_end) of its plan's range_atom rows.
struct VariantTask {
  const VariantPlan* plan = nullptr;
  size_t range_begin = 0;
  size_t range_end = std::numeric_limits<size_t>::max();
};

// Minimum chunk of outer-atom rows worth shipping to another thread; below
// this the fan-out overhead (buffers, task dispatch) beats the join work.
constexpr size_t kMinRowsPerChunk = 64;

}  // namespace

Result<CompiledRule> CompileRule(
    const dlir::Rule& rule, const std::set<std::string>& scc_preds,
    const std::unordered_map<std::string, Relation*>& relations,
    dlir::LatticeKind head_lattice, SymbolTable* symbols) {
  CompiledRule out;
  out.source = &rule;
  out.head_predicate = rule.head.predicate;
  auto rel_it = relations.find(rule.head.predicate);
  if (rel_it == relations.end()) {
    return Status::NotFound("undeclared head predicate: " + rule.head.predicate);
  }
  out.head_relation = rel_it->second;
  out.head_lattice = head_lattice;

  std::map<std::string, int> slots;
  // Positive atoms first (join candidates), then negated atoms.
  for (bool negated_pass : {false, true}) {
    for (const dlir::Atom& atom : rule.body) {
      if (atom.negated != negated_pass) continue;
      CompiledAtom ca;
      ca.predicate = atom.predicate;
      auto it = relations.find(atom.predicate);
      if (it == relations.end()) {
        return Status::NotFound("undeclared predicate: " + atom.predicate);
      }
      ca.relation = it->second;
      ca.negated = atom.negated;
      ca.recursive = scc_preds.count(atom.predicate) > 0;
      for (const Term& arg : atom.args) {
        RAQLET_ASSIGN_OR_RETURN(CompiledTerm t,
                                CompileTerm(arg, &slots, symbols));
        ca.args.push_back(std::move(t));
      }
      if (ca.recursive && !ca.negated) {
        out.recursive_atoms.push_back(static_cast<int>(out.atoms.size()));
      }
      out.atoms.push_back(std::move(ca));
    }
  }
  for (const dlir::Constraint& c : rule.constraints) {
    CompiledConstraint cc;
    cc.op = c.op;
    RAQLET_ASSIGN_OR_RETURN(cc.lhs, CompileTerm(c.lhs, &slots, symbols));
    RAQLET_ASSIGN_OR_RETURN(cc.rhs, CompileTerm(c.rhs, &slots, symbols));
    out.constraints.push_back(std::move(cc));
  }
  for (const Term& arg : rule.head.args) {
    RAQLET_ASSIGN_OR_RETURN(CompiledTerm t, CompileTerm(arg, &slots, symbols));
    out.head_args.push_back(std::move(t));
  }
  out.num_vars = slots.size();

  if (rule.agg.has_value()) {
    out.has_agg = true;
    out.agg_func = rule.agg->func;
    out.agg_pos = rule.agg_result_pos;
    if (rule.agg->func != AggFunc::kCount) {
      RAQLET_ASSIGN_OR_RETURN(out.agg_arg,
                              CompileTerm(rule.agg->arg, &slots, symbols));
      out.num_vars = slots.size();
    }
  }
  return out;
}

Result<VariantPlan> PlanVariant(const CompiledRule& rule, int delta_atom,
                                bool reorder, bool bind_head) {
  VariantPlan plan;
  plan.rule = &rule;
  plan.delta_atom = delta_atom;
  std::vector<bool> bound(rule.num_vars, false);
  if (bind_head) {
    for (const CompiledTerm& arg : rule.head_args) {
      if (arg.kind == CompiledTerm::kVar) {
        bound[static_cast<size_t>(arg.var)] = true;
      }
    }
  }
  std::vector<bool> atom_done(rule.atoms.size(), false);
  std::vector<bool> constraint_done(rule.constraints.size(), false);
  // The delta atom is never a negation check: a negated delta atom joins
  // over its projection keys, whose ¬∃ flip the key's sign already says.
  if (delta_atom >= 0) atom_done[static_cast<size_t>(delta_atom)] = true;

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

  // A join unifies arguments left to right, so it can only match a
  // computed argument whose variables are bound before the join or by an
  // earlier argument of the same atom.
  auto placeable = [&](const CompiledAtom& atom) {
    if (std::none_of(atom.args.begin(), atom.args.end(),
                     [](const CompiledTerm& arg) {
                       return arg.kind == CompiledTerm::kBinary;
                     })) {
      return true;
    }
    std::vector<bool> unified = bound;
    for (const CompiledTerm& arg : atom.args) {
      if (arg.kind == CompiledTerm::kVar) {
        unified[static_cast<size_t>(arg.var)] = true;
      } else if (arg.kind == CompiledTerm::kBinary &&
                 !arg.IsBoundUnder(unified)) {
        return false;
      }
    }
    return true;
  };

  auto add_join = [&](int index) {
    const CompiledAtom& atom = rule.atoms[static_cast<size_t>(index)];
    PlanStep step;
    step.kind = PlanStep::kJoinAtom;
    step.atom_index = index;
    step.probe_cols = probe_cols_for(atom);
    plan.steps.push_back(std::move(step));
    if (plan.range_atom < 0) plan.range_atom = index;
    atom_done[static_cast<size_t>(index)] = true;
    mark_atom_vars(atom);
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
        const bool lhs_bound = c.lhs.IsBoundUnder(bound);
        const bool rhs_bound = c.rhs.IsBoundUnder(bound);
        const bool bind_lhs = c.op == CmpOp::kEq && rhs_bound &&
                              c.lhs.kind == CompiledTerm::kVar;
        const bool bind_rhs = c.op == CmpOp::kEq && lhs_bound &&
                              c.rhs.kind == CompiledTerm::kVar;
        if (!(lhs_bound && rhs_bound) && !bind_lhs && !bind_rhs) continue;
        PlanStep step;
        step.constraint_index = static_cast<int>(i);
        if (lhs_bound && rhs_bound) {
          step.kind = PlanStep::kFilter;
        } else {
          step.kind = PlanStep::kBind;
          step.bind_from_lhs = bind_lhs;
          step.bind_var = bind_lhs ? c.lhs.var : c.rhs.var;
          bound[static_cast<size_t>(step.bind_var)] = true;
        }
        plan.steps.push_back(std::move(step));
        constraint_done[i] = true;
        changed = true;
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

  // The delta atom joins first when it can: semi-naive correctness does
  // not require it, but it makes the delta the outer loop, which is the
  // whole point. One with a computed argument over still-unbound
  // variables waits for its greedy turn instead.
  if (delta_atom >= 0) {
    if (placeable(rule.atoms[static_cast<size_t>(delta_atom)])) {
      add_join(delta_atom);
      schedule_constraints();
    } else if (rule.atoms[static_cast<size_t>(delta_atom)].negated) {
      return Status::Internal("negated delta atom with a computed argument "
                              "in rule: " + rule.source->ToString());
    } else {
      atom_done[static_cast<size_t>(delta_atom)] = false;
    }
  }

  size_t positive_remaining = 0;
  for (size_t i = 0; i < rule.atoms.size(); ++i) {
    if (!atom_done[i] && !rule.atoms[i].negated) ++positive_remaining;
  }

  while (positive_remaining > 0) {
    int best = -1;
    int best_score = -1;
    size_t best_size = 0;
    int first_left = -1;
    for (size_t i = 0; i < rule.atoms.size(); ++i) {
      if (atom_done[i] || rule.atoms[i].negated) continue;
      if (first_left < 0) first_left = static_cast<int>(i);
      if (!placeable(rule.atoms[i])) continue;
      if (!reorder) {  // keep written order: first placeable atom wins
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
    // No atom can unify its computed arguments yet: place the first one
    // left, whose evaluation then reports the unbound variable.
    if (best < 0) best = first_left;
    if (best < 0) {
      return Status::Internal(
          "join planner found no placeable atom for rule head '" +
          rule.head_predicate + "' — unsatisfied positive atom");
    }
    add_join(best);
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

JoinSource ResolveSource(const Relation& rel, const PlanStep& step,
                         size_t begin, size_t end,
                         const std::vector<int>* col_of) {
  JoinSource src;
  src.row_begin = begin;
  src.row_end = end;
  auto column = [col_of](size_t i) {
    return col_of != nullptr ? (*col_of)[i] : static_cast<int>(i);
  };
  if (step.kind == PlanStep::kJoinAtom) {
    // Borrow the storage columns now, while still single-threaded:
    // workers then scan without materializing rows (and without racing on
    // the lazily-folded rows() cache).
    const size_t n = col_of != nullptr ? col_of->size() : rel.arity();
    src.cols.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const int c = column(i);
      src.cols.push_back(c >= 0 ? rel.Column(static_cast<size_t>(c))
                                : Relation::ColumnView{});
    }
  }
  if (step.probe_cols.empty()) return src;
  if (col_of == nullptr) {
    src.index = rel.EnsureIndex(step.probe_cols);
  } else {
    std::vector<int> mapped;
    mapped.reserve(step.probe_cols.size());
    for (int p : step.probe_cols) mapped.push_back(column(static_cast<size_t>(p)));
    src.index = rel.EnsureIndex(mapped);
  }
  return src;
}

Result<bool> Derives(const VariantPlan& plan, const Tuple& target,
                     const SymbolTable& symbols) {
  const CompiledRule& rule = *plan.rule;
  Env env(rule.num_vars, plan.steps.size());
  // Pre-bind env slots from the target's head positions; a constant
  // mismatch (or inconsistent repeated variable) proves non-derivability
  // outright. Computed head terms are left to the emission-time compare.
  for (size_t i = 0; i < rule.head_args.size(); ++i) {
    const CompiledTerm& arg = rule.head_args[i];
    if (arg.kind == CompiledTerm::kConst) {
      if (!(arg.constant == target[i])) return false;
    } else if (arg.kind == CompiledTerm::kVar) {
      size_t slot = static_cast<size_t>(arg.var);
      if (env.bound[slot]) {
        if (!(env.values[slot] == target[i])) return false;
      } else {
        env.values[slot] = target[i];
        env.bound[slot] = true;
      }
    }
  }
  CheckSink sink{&target};
  StepInterpreter<CheckSink> interpreter(
      plan, 0, std::numeric_limits<size_t>::max(), symbols, &sink);
  RAQLET_RETURN_IF_ERROR(interpreter.Execute(0, &env));
  return sink.found;
}

RuleKernel::RuleKernel(runtime::ExecutionContext* context,
                       const runtime::QueryGuard* guard,
                       const SymbolTable* symbols)
    : pool_(context->pool()),
      guard_(guard),
      symbols_(symbols),
      buffer_pool_(context->PoolFor<EmitBuffer>()),
      scratch_pool_(context->PoolFor<ShardedRuns>()) {}

void RuleKernel::Recycle(std::vector<EmitBuffer>* buffers) {
  for (EmitBuffer& buffer : *buffers) {
    buffer.Reset();
    buffer_pool_->Release(std::move(buffer));
  }
  buffers->clear();
}

Status RuleKernel::Evaluate(const std::vector<VariantPlan>& plans,
                            std::vector<EmitBuffer>* out, EvalStats* stats) {
  // Split each variant's outer join range into chunks. Aggregate rules
  // stay single-task (the group accumulator spans the whole range), and so
  // do variants whose outer join reads more than one source.
  std::vector<VariantTask> tasks;
  for (const VariantPlan& plan : plans) {
    VariantTask whole;
    whole.plan = &plan;
    const PlanStep* range_step = nullptr;
    if (pool_ != nullptr && !plan.rule->has_agg) {
      for (const PlanStep& step : plan.steps) {
        if (step.kind == PlanStep::kJoinAtom &&
            step.atom_index == plan.range_atom) {
          range_step = &step;
        }
      }
    }
    if (range_step == nullptr || range_step->sources.size() != 1) {
      tasks.push_back(whole);
      continue;
    }
    const size_t begin = range_step->sources[0].row_begin;
    const size_t end = range_step->sources[0].row_end;
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
    buffer.target = task.plan->rule->head_relation;
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
    const VariantTask& task = tasks[i];
    EmitBuffer& shared = buffers[i];
    EmitBuffer local;
    local.target = shared.target;
    local.staged.resize(shared.staged.size());
    for (size_t c = 0; c < local.staged.size(); ++c) {
      local.staged[c].swap(shared.staged[c]);
    }
    std::map<Tuple, AggState> agg;
    const CompiledRule& rule = *task.plan->rule;
    Env env(rule.num_vars, task.plan->steps.size());
    StageSink sink{&local, &agg};
    StepInterpreter<StageSink> interpreter(*task.plan, task.range_begin,
                                           task.range_end, *symbols_, &sink);
    Status s = interpreter.Execute(0, &env);
    if (s.ok() && rule.has_agg) {
      FinalizeAggregates(rule, agg, &local);
    }
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
    Recycle(&buffers);
    return guard_->TripStatus();
  }

  // Task order equals the order a serial evaluation visits the same rows,
  // so handing the buffers over in task order keeps every relation's
  // staged run — and therefore its insertion order — identical for any
  // thread count. Stats merge stops at the first error, matching what a
  // serial evaluation would have accumulated before failing.
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (!statuses[i].ok()) {
      Recycle(&buffers);
      return statuses[i];
    }
    stats->tuples_considered += buffers[i].stats.tuples_considered;
  }
  for (EmitBuffer& buffer : buffers) out->push_back(std::move(buffer));
  return Status::OK();
}

Result<size_t> RuleKernel::Merge(std::vector<EmitBuffer>* buffers,
                                 const PreMergeFn& pre_merge) {
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
    if (pre_merge != nullptr) pre_merge(rel, runs, parallel_for);
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
  Recycle(buffers);
  for (Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return total_inserted;
}

}  // namespace raqlet::engine::datalog
