#include "engine/datalog/incremental.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/dependency_graph.h"
#include "engine/datalog/rule_kernel.h"
#include "obs/trace.h"

namespace raqlet::engine {

namespace {

using datalog::CompiledAtom;
using datalog::CompiledRule;
using datalog::EmitBuffer;
using datalog::PlanStep;
using datalog::RuleKernel;
using datalog::VariantPlan;
using dlir::LatticeKind;
using dlir::Rule;
using dlir::Term;
using dlir::TermKind;

// ---------------------------------------------------------------------------
// Per-predicate delta state: the net change one ApplyDelta made, sealed
// into small columnar relations. The OLD (pre-delta) contents of a changed
// relation R are (live(R) ∖ added) ∪ removed, which rule variants read as
// two join sources: the live relation with its `added_rows` masked out,
// and the `removed` relation. Rederivation appends tuples in arbitrary row
// positions, so a row watermark cannot stand in for the mask.
// ---------------------------------------------------------------------------

struct PredState {
  std::unique_ptr<Relation> added;    // net-new tuples, in insertion order
  std::unique_ptr<Relation> removed;  // net-erased tuples, in erase order
  std::vector<uint8_t> added_rows;    // live rows that are net-new

  bool changed() const { return !added->empty() || !removed->empty(); }
};

using PredStates = std::unordered_map<std::string, PredState>;

const PredState* StateOf(const PredStates& states, const std::string& pred) {
  auto it = states.find(pred);
  return it == states.end() ? nullptr : &it->second;
}

// Seals the net change of `live`, which already holds `added` and no
// longer holds `removed`. `live` must not mutate while the state is read.
Result<PredState> Seal(const Relation& live, std::vector<Tuple> added,
                       std::vector<Tuple> removed) {
  PredState st;
  st.added_rows.assign(live.size(), 0);
  for (const Tuple& t : added) {
    const size_t row = live.RowOf(t);
    if (row == Relation::kNoRow) {
      return Status::Internal("net-added tuple missing from '" + live.name() +
                              "'");
    }
    st.added_rows[row] = 1;
  }
  st.added = std::make_unique<Relation>(live.schema());
  st.removed = std::make_unique<Relation>(live.schema());
  RAQLET_RETURN_IF_ERROR(st.added->InsertBatch(std::move(added)).status());
  RAQLET_RETURN_IF_ERROR(st.removed->InsertBatch(std::move(removed)).status());
  return st;
}

// Does the NEW (or, with `old`, the pre-delta) state of `live` hold a row
// matching `key` on `cols`? Empty `cols` asks whether it holds any row.
bool Exists(const Relation& live, const PredState* st, bool old,
            const std::vector<int>& cols, const Tuple& key) {
  auto any = [&](const Relation& rel, const std::vector<uint8_t>* skip) {
    auto kept = [skip](size_t row) { return skip == nullptr || !(*skip)[row]; };
    if (cols.empty()) {
      for (size_t row = 0; row < rel.size(); ++row) {
        if (kept(row)) return true;
      }
      return false;
    }
    const Relation::KeyIndex* index = rel.EnsureIndex(cols);
    auto it = index->find(key);
    if (it == index->end()) return false;
    return std::any_of(it->second.begin(), it->second.end(), kept);
  };
  if (!old || st == nullptr) return any(live, nullptr);
  return any(live, &st->added_rows) || any(*st->removed, nullptr);
}

// For a changed negated atom: the distinct projection keys (onto the
// atom's non-wildcard positions) whose ¬∃ truth value flipped, as key
// relations. `plus` keys flipped false→true (¬ now holds), `minus` keys
// true→false; `col_of` maps each atom position onto its key column.
struct NegFlips {
  std::unique_ptr<Relation> plus;
  std::unique_ptr<Relation> minus;
  std::vector<int> col_of;
};

Result<NegFlips> NegKeyDeltas(const CompiledAtom& atom, const PredState& st,
                              const PredStates& states) {
  NegFlips flips;
  std::vector<int> proj;
  RelationSchema schema;
  schema.name = atom.predicate;
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (atom.args[i].kind == datalog::CompiledTerm::kWildcard) {
      flips.col_of.push_back(-1);
      continue;
    }
    flips.col_of.push_back(static_cast<int>(proj.size()));
    proj.push_back(static_cast<int>(i));
    schema.columns.push_back(atom.relation->schema().columns[i]);
  }
  const PredState* state = StateOf(states, atom.predicate);
  std::unordered_set<Tuple, TupleHash> seen;
  std::vector<Tuple> plus;
  std::vector<Tuple> minus;
  auto consider = [&](const Tuple& t) {
    Tuple key;
    key.reserve(proj.size());
    for (int p : proj) key.push_back(t[static_cast<size_t>(p)]);
    if (!seen.insert(key).second) return;
    const bool new_ex = Exists(*atom.relation, state, false, proj, key);
    const bool old_ex = Exists(*atom.relation, state, true, proj, key);
    if (old_ex && !new_ex) plus.push_back(std::move(key));
    if (new_ex && !old_ex) minus.push_back(std::move(key));
  };
  for (const Tuple& t : st.added->MaterializeRows()) consider(t);
  for (const Tuple& t : st.removed->MaterializeRows()) consider(t);
  flips.plus = std::make_unique<Relation>(schema);
  flips.minus = std::make_unique<Relation>(schema);
  RAQLET_RETURN_IF_ERROR(flips.plus->InsertBatch(std::move(plus)).status());
  RAQLET_RETURN_IF_ERROR(flips.minus->InsertBatch(std::move(minus)).status());
  return flips;
}

// Where a variant's delta atom reads its rows: [begin, end) of `rel`. A
// negated delta atom reads projection keys, `col_of` mapping its argument
// positions onto key columns.
struct DeltaRows {
  const Relation* rel = nullptr;
  size_t begin = 0;
  size_t end = 0;
  const std::vector<int>* col_of = nullptr;

  static DeltaRows All(const Relation& rel,
                       const std::vector<int>* col_of = nullptr) {
    return {&rel, 0, rel.size(), col_of};
  }
};

// `Variant::first_old` when every atom reads its NEW state.
constexpr size_t kAllNew = std::numeric_limits<size_t>::max();

// One rule variant of a maintenance pass: the delta atom reads `delta`,
// every other atom before `first_old` its NEW state and every one from
// `first_old` on its pre-delta OLD state.
struct Variant {
  const CompiledRule* rule = nullptr;
  int delta_atom = -1;
  DeltaRows delta;
  size_t first_old = kAllNew;
};

// Calls fn(head relation, tuple) for every derivation the buffers staged,
// in task order, then recycles the buffers.
template <typename Fn>
Status ForEachHead(RuleKernel* kernel, std::vector<EmitBuffer>* buffers,
                   Fn&& fn) {
  Status status = Status::OK();
  for (const EmitBuffer& buffer : *buffers) {
    for (size_t row = 0; row < buffer.staged_rows && status.ok(); ++row) {
      Tuple t;
      t.reserve(buffer.staged.size());
      for (const std::vector<Value>& col : buffer.staged) t.push_back(col[row]);
      status = fn(buffer.target, std::move(t));
    }
  }
  kernel->Recycle(buffers);
  return status;
}

}  // namespace

// ---------------------------------------------------------------------------
// IncrementalView implementation.
// ---------------------------------------------------------------------------

struct IncrementalView::Impl {
  enum class Policy { kCounting, kDred, kRecompute };

  struct SccPlan {
    std::vector<std::string> preds;
    std::set<std::string> pred_set;
    bool recursive = false;
    Policy policy = Policy::kCounting;
    std::vector<CompiledRule> rules;
    std::vector<const Rule*> dlir_rules;  // into program.rules, same order
    std::set<std::string> body_preds;
  };

  // One ApplyDelta in flight: the kernel on the engine's context, the
  // caller's guard, the states sealed so far and this delta's counters.
  struct Pass {
    RuleKernel kernel;
    const runtime::QueryGuard* guard;
    PredStates states;
    IncrementalStats local;
  };

  IncrementalOptions options;
  Database* db = nullptr;
  dlir::Program program;
  bool initialized = false;
  bool poisoned = false;
  IncrementalStats stats;
  std::vector<SccPlan> sccs;
  std::unordered_map<std::string, Relation*> relations;
  std::set<std::string> input_preds;
  // Per-predicate support counts (number of distinct derivations) for
  // counting-policy SCCs.
  std::unordered_map<std::string, std::unordered_map<Tuple, int64_t, TupleHash>>
      support;
  // Evaluates from scratch (Initialize, recompute) and lends its execution
  // context to every maintenance pass.
  std::unique_ptr<DatalogEngine> engine;

  Status Initialize(const dlir::Program& prog, Database* database,
                    EvalStats* eval_stats, const runtime::QueryGuard* guard);
  Result<AppliedDelta> Apply(const DeltaBatch& batch,
                             obs::IncrementalMetrics* metrics,
                             const runtime::QueryGuard* guard);

 private:
  Status Guard(const Pass& pass, size_t rows) const {
    if (pass.guard == nullptr) return Status::OK();
    RAQLET_RETURN_IF_ERROR(pass.guard->AddRows(rows));
    return pass.guard->Check();
  }

  // Plans `v` (in check mode with `bind_head`) and points every step at
  // its rows: the delta atom at `v.delta`, any other atom at its live
  // relation — with the net-added rows masked out and the erased rows
  // added as a second source when it reads OLD.
  Result<VariantPlan> Plan(const Variant& v, const PredStates& states,
                           bool bind_head = false) const;

  // Plans and evaluates `variants`; `out` receives their raw derivations,
  // one emit buffer per task in serial order, so every thread count
  // derives the same sequence.
  Status Derive(const std::vector<Variant>& variants, Pass* pass,
                std::vector<EmitBuffer>* out) const;

  Status ApplyCounting(SccPlan* scc, Pass* pass);
  Status ApplyDred(SccPlan* scc, Pass* pass, bool* bailed);
  Status ApplyRecompute(SccPlan* scc, Pass* pass);
};

Status IncrementalView::Impl::Initialize(const dlir::Program& prog,
                                         Database* database,
                                         EvalStats* eval_stats,
                                         const runtime::QueryGuard* guard) {
  initialized = false;
  poisoned = false;
  stats = IncrementalStats{};
  sccs.clear();
  relations.clear();
  input_preds.clear();
  support.clear();
  db = database;
  program = prog;
  RAQLET_RETURN_IF_ERROR(program.Validate());

  if (engine == nullptr) {
    EvalOptions eval_options;
    eval_options.max_iterations = options.max_iterations;
    eval_options.reorder_atoms = options.reorder_atoms;
    eval_options.overwrite_idb = true;
    eval_options.num_threads = options.num_threads;
    engine = std::make_unique<DatalogEngine>(eval_options);
  }

  // From-scratch evaluation (also validates stratification).
  RAQLET_RETURN_IF_ERROR(engine->Run(program, db, eval_stats, nullptr, guard));

  for (const dlir::RelationDecl& decl : program.decls) {
    RAQLET_ASSIGN_OR_RETURN(Relation * rel, db->GetRelation(decl.name));
    relations[decl.name] = rel;
    if (decl.is_input) input_preds.insert(decl.name);
  }

  analysis::DependencyGraph graph = analysis::DependencyGraph::Build(program);
  const auto& topo = graph.SccsInTopologicalOrder();
  sccs.reserve(topo.size());
  for (size_t i = 0; i < topo.size(); ++i) {
    SccPlan scc;
    scc.preds = topo[i];
    scc.pred_set.insert(topo[i].begin(), topo[i].end());
    scc.recursive = graph.IsRecursiveScc(static_cast<int>(i));
    bool needs_recompute = false;
    for (const std::string& pred : scc.preds) {
      const dlir::RelationDecl* decl = program.FindDecl(pred);
      if (decl != nullptr && decl->lattice != LatticeKind::kNone) {
        needs_recompute = true;
      }
    }
    for (const Rule& rule : program.rules) {
      if (scc.pred_set.count(rule.head.predicate) == 0) continue;
      if (rule.agg.has_value()) needs_recompute = true;
      for (const dlir::Atom& atom : rule.body) {
        scc.body_preds.insert(atom.predicate);
        if (atom.negated) {
          // A negated atom with computed args cannot source projection-key
          // deltas; fall back to recomputing the SCC.
          for (const Term& arg : atom.args) {
            if (arg.kind == TermKind::kBinary) needs_recompute = true;
          }
        }
      }
      RAQLET_ASSIGN_OR_RETURN(
          CompiledRule compiled,
          datalog::CompileRule(rule, scc.pred_set, relations,
                               LatticeKind::kNone, &db->symbols()));
      scc.rules.push_back(std::move(compiled));
      scc.dlir_rules.push_back(&rule);
    }
    scc.policy = needs_recompute
                     ? Policy::kRecompute
                     : (scc.recursive ? Policy::kDred : Policy::kCounting);
    sccs.push_back(std::move(scc));
  }

  // Support counts: one full-join enumeration per counting rule, counting
  // every distinct derivation of each head tuple.
  Pass pass{RuleKernel(engine->context(), guard, &db->symbols()), guard, {},
            {}};
  for (SccPlan& scc : sccs) {
    if (scc.policy != Policy::kCounting || scc.rules.empty()) continue;
    auto& counts = support[scc.preds[0]];
    std::vector<Variant> variants;
    for (const CompiledRule& rule : scc.rules) variants.push_back({&rule, -1, {}, kAllNew});
    std::vector<EmitBuffer> heads;
    RAQLET_RETURN_IF_ERROR(Derive(variants, &pass, &heads));
    RAQLET_RETURN_IF_ERROR(
        ForEachHead(&pass.kernel, &heads, [&](Relation*, Tuple t) {
          counts[std::move(t)] += 1;
          return Status::OK();
        }));
    if (guard != nullptr) RAQLET_RETURN_IF_ERROR(guard->Check());
  }

  initialized = true;
  return Status::OK();
}

Result<VariantPlan> IncrementalView::Impl::Plan(const Variant& v,
                                                const PredStates& states,
                                                bool bind_head) const {
  RAQLET_ASSIGN_OR_RETURN(
      VariantPlan plan, datalog::PlanVariant(*v.rule, v.delta_atom,
                                             options.reorder_atoms, bind_head));
  for (PlanStep& step : plan.steps) {
    if (step.atom_index < 0) continue;
    if (step.atom_index == v.delta_atom) {
      step.sources.push_back(datalog::ResolveSource(
          *v.delta.rel, step, v.delta.begin, v.delta.end, v.delta.col_of));
      continue;
    }
    const size_t i = static_cast<size_t>(step.atom_index);
    const CompiledAtom& atom = v.rule->atoms[i];
    const Relation& live = *atom.relation;
    step.sources.push_back(datalog::ResolveSource(live, step, 0, live.size()));
    const PredState* st =
        i >= v.first_old ? StateOf(states, atom.predicate) : nullptr;
    if (st == nullptr) continue;
    step.sources.back().skip = &st->added_rows;
    if (!st->removed->empty()) {
      step.sources.push_back(datalog::ResolveSource(
          *st->removed, step, 0, st->removed->size()));
    }
  }
  return plan;
}

Status IncrementalView::Impl::Derive(const std::vector<Variant>& variants,
                                     Pass* pass,
                                     std::vector<EmitBuffer>* out) const {
  std::vector<VariantPlan> plans;
  plans.reserve(variants.size());
  for (const Variant& v : variants) {
    RAQLET_ASSIGN_OR_RETURN(VariantPlan plan, Plan(v, pass->states));
    plans.push_back(std::move(plan));
  }
  EvalStats considered;  // the view keeps no join counters
  return pass->kernel.Evaluate(plans, out, &considered);
}

Status IncrementalView::Impl::ApplyCounting(SccPlan* scc, Pass* pass) {
  obs::TraceScope span("incremental.counting");
  const std::string& pred = scc->preds[0];
  Relation* rel = relations.at(pred);
  auto& counts = support[pred];

  // Signed support deltas, accumulated in first-touch order so the
  // resulting insert/erase batches are deterministic. Each variant's
  // derivations are counted with their multiplicity.
  std::unordered_map<Tuple, int64_t, TupleHash> dcount;
  std::vector<Tuple> touched;
  auto count = [&](const Variant& v, int64_t sign) -> Status {
    std::vector<EmitBuffer> heads;
    RAQLET_RETURN_IF_ERROR(Derive({v}, pass, &heads));
    return ForEachHead(&pass->kernel, &heads, [&](Relation*, Tuple t) {
      auto [it, fresh] = dcount.emplace(std::move(t), 0);
      if (fresh) touched.push_back(it->first);
      it->second += sign;
      return Status::OK();
    });
  };

  for (const CompiledRule& rule : scc->rules) {
    for (size_t i = 0; i < rule.atoms.size(); ++i) {
      const CompiledAtom& atom = rule.atoms[i];
      const PredState* st = StateOf(pass->states, atom.predicate);
      if (st == nullptr || !st->changed()) continue;
      // Telescoping state assignment: atoms before the delta position see
      // the NEW state, atoms after it the OLD state.
      Variant v{&rule, static_cast<int>(i), {}, i + 1};
      if (!atom.negated) {
        if (!st->removed->empty()) {
          v.delta = DeltaRows::All(*st->removed);
          RAQLET_RETURN_IF_ERROR(count(v, -1));
        }
        if (!st->added->empty()) {
          v.delta = DeltaRows::All(*st->added);
          RAQLET_RETURN_IF_ERROR(count(v, +1));
        }
      } else {
        RAQLET_ASSIGN_OR_RETURN(NegFlips flips,
                                NegKeyDeltas(atom, *st, pass->states));
        if (!flips.plus->empty()) {
          v.delta = DeltaRows::All(*flips.plus, &flips.col_of);
          RAQLET_RETURN_IF_ERROR(count(v, +1));
        }
        if (!flips.minus->empty()) {
          v.delta = DeltaRows::All(*flips.minus, &flips.col_of);
          RAQLET_RETURN_IF_ERROR(count(v, -1));
        }
      }
    }
  }

  std::vector<Tuple> to_add;
  std::vector<Tuple> to_remove;
  for (const Tuple& h : touched) {
    int64_t delta = dcount[h];
    if (delta == 0) continue;
    auto it = counts.find(h);
    int64_t old_support = it == counts.end() ? 0 : it->second;
    int64_t new_support = old_support + delta;
    if (new_support < 0) {
      return Status::Internal(
          "support count underflow for '" + pred +
          "' — counting maintenance invariant violated");
    }
    ++pass->local.support_updates;
    if (new_support == 0) {
      counts.erase(h);
    } else {
      counts[h] = new_support;
    }
    if (old_support == 0 && new_support > 0) to_add.push_back(h);
    if (old_support > 0 && new_support == 0) to_remove.push_back(h);
  }
  pass->local.rounds += 1;
  RAQLET_RETURN_IF_ERROR(Guard(*pass, to_add.size() + to_remove.size()));

  if (!to_remove.empty()) {
    size_t erased;
    RAQLET_ASSIGN_OR_RETURN(erased, rel->EraseBatch(to_remove));
    if (erased != to_remove.size()) {
      return Status::Internal("counting erase removed " +
                              std::to_string(erased) + " of " +
                              std::to_string(to_remove.size()) +
                              " support-dead tuples in '" + pred + "'");
    }
  }
  std::vector<Tuple> added;
  for (Tuple& t : to_add) {
    bool fresh;
    RAQLET_ASSIGN_OR_RETURN(fresh, rel->Insert(t));
    if (fresh) added.push_back(std::move(t));
  }
  pass->local.tuples_inserted += added.size();
  pass->local.tuples_deleted += to_remove.size();
  if (!added.empty() || !to_remove.empty()) {
    RAQLET_ASSIGN_OR_RETURN(
        pass->states[pred],
        Seal(*rel, std::move(added), std::move(to_remove)));
  }
  return Status::OK();
}

Status IncrementalView::Impl::ApplyDred(SccPlan* scc, Pass* pass,
                                        bool* bailed) {
  *bailed = false;
  const PredStates& states = pass->states;
  // Overdeleted tuples per SCC relation, in discovery order. A round's
  // frontier is what the round before it admitted: a row suffix.
  std::unordered_map<const Relation*, std::unique_ptr<Relation>> over;
  for (const std::string& p : scc->preds) {
    const Relation* live = relations.at(p);
    over[live] = std::make_unique<Relation>(live->schema());
  }

  // Bail-out budget: when a deletion cascades through more than this many
  // of the SCC's pre-delta rows, DRed degenerates — it would erase and
  // rederive most of the view, which loses to handing the SCC to the
  // batch engine. Overdeletion mutates nothing, so aborting there and
  // falling back to recompute-and-diff is clean. The threshold is a pure
  // function of deterministic sizes (and the cascade is a set), so the
  // chosen path is identical across thread counts.
  size_t scc_rows = 0;
  for (const std::string& p : scc->preds) scc_rows += relations.at(p)->size();
  const double threshold = options.dred_recompute_threshold;
  const size_t bail_at =
      threshold > 0.0
          ? std::max(static_cast<size_t>(threshold *
                                         static_cast<double>(scc_rows)),
                     options.dred_recompute_min_over)
          : std::numeric_limits<size_t>::max();
  size_t total_over = 0;

  // Pre-compute the negated-atom key flips once per (rule, atom): both the
  // deletion seeds (minus keys) and the insertion seeds (plus keys) need
  // them, and they must be evaluated before any SCC mutation.
  std::map<std::pair<size_t, size_t>, NegFlips> neg_flips;
  for (size_t r = 0; r < scc->rules.size(); ++r) {
    const CompiledRule& rule = scc->rules[r];
    for (size_t i = 0; i < rule.atoms.size(); ++i) {
      const CompiledAtom& atom = rule.atoms[i];
      if (!atom.negated || atom.recursive) continue;
      const PredState* st = StateOf(states, atom.predicate);
      if (st == nullptr || !st->changed()) continue;
      NegFlips& flips = neg_flips[{r, i}];
      RAQLET_ASSIGN_OR_RETURN(flips, NegKeyDeltas(atom, *st, states));
    }
  }
  // Seed variants from lower strata: positive atoms read `side` of their
  // state (removed or added), negated atoms the matching key flips, and
  // every other atom OLD (`first_old` 0) or NEW.
  auto seeds = [&](bool deleting) {
    std::vector<Variant> out;
    for (size_t r = 0; r < scc->rules.size(); ++r) {
      const CompiledRule& rule = scc->rules[r];
      for (size_t i = 0; i < rule.atoms.size(); ++i) {
        const CompiledAtom& atom = rule.atoms[i];
        if (atom.recursive) continue;  // in-SCC deltas come from rounds
        const PredState* st = StateOf(states, atom.predicate);
        if (st == nullptr || !st->changed()) continue;
        Variant v{&rule, static_cast<int>(i), {}, deleting ? 0 : kAllNew};
        if (!atom.negated) {
          const Relation& side = deleting ? *st->removed : *st->added;
          if (side.empty()) continue;
          v.delta = DeltaRows::All(side);
        } else {
          const NegFlips& flips = neg_flips.at({r, i});
          const Relation& keys = deleting ? *flips.minus : *flips.plus;
          if (keys.empty()) continue;
          v.delta = DeltaRows::All(keys, &flips.col_of);
        }
        out.push_back(v);
      }
    }
    return out;
  };

  // ---- Phase A: overdeletion fixpoint (all body atoms in OLD state). ----
  {
    obs::TraceScope span("incremental.dred.overdelete");
    // Admits derived deletion candidates: present in the (still
    // pre-delta) SCC relation and not already overdeleted.
    auto admit = [&](std::vector<EmitBuffer>* heads) {
      return ForEachHead(&pass->kernel, heads,
                         [&](Relation* head, Tuple t) -> Status {
        if (!head->Contains(t)) return Status::OK();
        RAQLET_ASSIGN_OR_RETURN(bool fresh, over.at(head)->Insert(std::move(t)));
        if (fresh) ++total_over;
        return Status::OK();
      });
    };
    auto bail = [&]() {
      if (*bailed) return true;
      if (total_over <= bail_at) return false;
      *bailed = true;
      pass->local.dred_bailouts += 1;
      return true;
    };
    span.Arg("bail_at", threshold > 0.0 ? static_cast<int64_t>(bail_at) : -1);
    std::vector<EmitBuffer> heads;
    RAQLET_RETURN_IF_ERROR(Derive(seeds(/*deleting=*/true), pass, &heads));
    RAQLET_RETURN_IF_ERROR(admit(&heads));
    std::unordered_map<const Relation*, size_t> frontier_begin;
    size_t deletion_rounds = 0;
    while (!bail()) {
      size_t frontier = 0;
      for (const auto& [live, o] : over) frontier += o->size() - frontier_begin[live];
      if (frontier == 0) break;
      pass->local.rounds += 1;
      RAQLET_RETURN_IF_ERROR(Guard(*pass, frontier));
      if (options.max_iterations > 0 &&
          ++deletion_rounds > options.max_iterations) {
        return Status::ResourceExhausted(
            "incremental overdeletion exceeded max_iterations");
      }
      std::unordered_map<const Relation*, size_t> frontier_end;
      for (const auto& [live, o] : over) frontier_end[live] = o->size();
      for (const CompiledRule& rule : scc->rules) {
        for (size_t i = 0; i < rule.atoms.size(); ++i) {
          const CompiledAtom& atom = rule.atoms[i];
          if (!atom.recursive || atom.negated) continue;
          const size_t begin = frontier_begin[atom.relation];
          const size_t end = frontier_end[atom.relation];
          if (begin == end) continue;
          Variant v{&rule, static_cast<int>(i),
                    {over.at(atom.relation).get(), begin, end, nullptr}, 0};
          RAQLET_RETURN_IF_ERROR(Derive({v}, pass, &heads));
          RAQLET_RETURN_IF_ERROR(admit(&heads));
          // A single round can blow far past the budget (the cascade can
          // multiply per rule), so check between rules, not just between
          // rounds.
          if (bail()) break;
        }
        if (*bailed) break;
      }
      frontier_begin = std::move(frontier_end);
    }
    span.Arg("overdeleted", static_cast<int64_t>(total_over));
    span.Arg("bailed", *bailed ? 1 : 0);
    if (*bailed) return Status::OK();
  }

  // ---- Phase B: erase the overdeleted tuples. ----
  std::unordered_map<const Relation*, size_t> post_erase;
  {
    obs::TraceScope span("incremental.dred.erase");
    for (const std::string& p : scc->preds) {
      Relation* live = relations.at(p);
      const Relation& o = *over.at(live);
      if (!o.empty()) {
        size_t erased;
        RAQLET_ASSIGN_OR_RETURN(erased, live->EraseBatch(o.MaterializeRows()));
        if (erased != o.size()) {
          return Status::Internal("DRed erase removed " +
                                  std::to_string(erased) + " of " +
                                  std::to_string(o.size()) +
                                  " overdeleted tuples in '" + p + "'");
        }
        pass->local.overdeleted += o.size();
      }
      post_erase[live] = live->size();
    }
  }

  // ---- Phase C: rederive what is still derivable from the remainder.
  // One pass suffices: rederived tuples re-enter as insertion deltas, so
  // transitive rederivations happen in the continuation below. Every check
  // runs against the pure post-erase state before any rederived tuple is
  // inserted back: interleaving inserts would both blur the semantics and
  // invalidate the plans' borrowed columns and indexes between probes.
  // Check plans are planned once per rule with the head variables bound
  // (the check pre-binds them from the target), so probes run against
  // the target's keys instead of rescanning the first atom per tuple; a
  // rule whose head lost nothing is not planned, so its plan's indexes
  // are not built. ----
  if (total_over > 0) {
    obs::TraceScope span("incremental.dred.rederive");
    std::unordered_map<const Relation*, std::vector<VariantPlan>> checks;
    for (const CompiledRule& rule : scc->rules) {
      if (over.at(rule.head_relation)->empty()) continue;
      RAQLET_ASSIGN_OR_RETURN(
          VariantPlan plan,
          Plan({&rule, -1, {}, kAllNew}, states, /*bind_head=*/true));
      checks[rule.head_relation].push_back(std::move(plan));
    }
    std::vector<std::pair<Relation*, std::vector<Tuple>>> rederived;
    for (const std::string& p : scc->preds) {
      Relation* live = relations.at(p);
      std::vector<Tuple> derivable;
      for (Tuple& t : over.at(live)->MaterializeRows()) {
        for (const VariantPlan& plan : checks[live]) {
          RAQLET_ASSIGN_OR_RETURN(bool derives,
                                  datalog::Derives(plan, t, db->symbols()));
          if (derives) {
            derivable.push_back(std::move(t));
            break;
          }
        }
      }
      rederived.emplace_back(live, std::move(derivable));
    }
    for (auto& [live, tuples] : rederived) {
      RAQLET_RETURN_IF_ERROR(live->InsertBatch(std::move(tuples)).status());
    }
  }

  // ---- Phase D: semi-naive insertion continuation. Seeds: incoming adds
  // and ¬-became-true key flips from lower strata. Then the batch engine's
  // rounds over each SCC relation's rows past its post-erase size — the
  // rederivations plus whatever the seeds and earlier rounds added. This
  // is the entire algorithm for insert-only deltas. ----
  {
    obs::TraceScope span("incremental.dred.continuation");
    std::vector<EmitBuffer> heads;
    RAQLET_RETURN_IF_ERROR(Derive(seeds(/*deleting=*/false), pass, &heads));
    RAQLET_RETURN_IF_ERROR(pass->kernel.Merge(&heads).status());
    std::unordered_map<const Relation*, size_t> delta_begin = post_erase;
    size_t insertion_rounds = 0;
    while (true) {
      size_t frontier = 0;
      for (const auto& [live, begin] : delta_begin) {
        frontier += live->size() - begin;
      }
      if (frontier == 0) break;
      pass->local.rounds += 1;
      RAQLET_RETURN_IF_ERROR(Guard(*pass, frontier));
      if (options.max_iterations > 0 &&
          ++insertion_rounds > options.max_iterations) {
        return Status::ResourceExhausted(
            "incremental insertion exceeded max_iterations");
      }
      std::vector<Variant> variants;
      for (const CompiledRule& rule : scc->rules) {
        for (int i : rule.recursive_atoms) {
          const Relation* live = rule.atoms[static_cast<size_t>(i)].relation;
          const size_t begin = delta_begin.at(live);
          if (begin == live->size()) continue;
          variants.push_back(
              {&rule, i, {live, begin, live->size(), nullptr}, kAllNew});
        }
      }
      for (auto& [live, begin] : delta_begin) begin = live->size();
      RAQLET_RETURN_IF_ERROR(Derive(variants, pass, &heads));
      RAQLET_RETURN_IF_ERROR(pass->kernel.Merge(&heads).status());
    }
  }

  // ---- Finalize the per-pred net deltas. A tuple that was overdeleted
  // and later re-inserted (rederived directly or via the continuation) is
  // a net no-op; a fresh insertion that was never overdeleted is net-new.
  for (const std::string& p : scc->preds) {
    Relation* live = relations.at(p);
    const Relation& o = *over.at(live);
    std::vector<Tuple> removed;
    for (Tuple& t : o.MaterializeRows()) {
      if (!live->Contains(t)) removed.push_back(std::move(t));
    }
    pass->local.rederived += o.size() - removed.size();
    std::vector<Tuple> added;
    for (Tuple& t : live->MaterializeRows(post_erase.at(live))) {
      if (!o.Contains(t)) added.push_back(std::move(t));
    }
    pass->local.tuples_inserted += added.size();
    pass->local.tuples_deleted += removed.size();
    if (!added.empty() || !removed.empty()) {
      RAQLET_ASSIGN_OR_RETURN(
          pass->states[p], Seal(*live, std::move(added), std::move(removed)));
    }
  }
  return Status::OK();
}

Status IncrementalView::Impl::ApplyRecompute(SccPlan* scc, Pass* pass) {
  std::unordered_map<std::string, std::vector<Tuple>> old_rows;
  {
    obs::TraceScope span("incremental.recompute");
    // Snapshot the previous rows of every head predicate.
    for (const std::string& p : scc->preds) {
      old_rows[p] = relations.at(p)->MaterializeRows();
    }

    // Build the sub-program: this SCC's rules, with every lower-stratum
    // dependency redeclared as an input so the engine reads it as-is.
    dlir::Program sub;
    for (const dlir::RelationDecl& decl : program.decls) {
      const bool is_head = scc->pred_set.count(decl.name) > 0;
      if (!is_head && scc->body_preds.count(decl.name) == 0) continue;
      dlir::RelationDecl copy = decl;
      if (!is_head) copy.is_input = true;
      sub.decls.push_back(std::move(copy));
    }
    for (const Rule* rule : scc->dlir_rules) sub.rules.push_back(*rule);

    RAQLET_RETURN_IF_ERROR(engine->Run(sub, db, nullptr, nullptr, pass->guard));
    pass->local.rounds += 1;
    pass->local.recomputed_sccs += 1;
  }

  obs::TraceScope span("incremental.diff");
  for (const std::string& p : scc->preds) {
    Relation* rel = relations.at(p);
    std::vector<Tuple> new_rows = rel->MaterializeRows();
    // Diff against a columnar snapshot of the old rows: the relation's own
    // dedup answers "still present?" for the removed side, and a throwaway
    // Relation answers "already present?" for the added side — both flat
    // open-addressing probes, an order of magnitude cheaper at closure
    // scale than building node-based hash sets of materialized tuples.
    Relation old_snapshot(rel->schema());
    RAQLET_RETURN_IF_ERROR(old_snapshot.InsertBatch(old_rows[p]).status());
    std::vector<Tuple> added;
    std::vector<Tuple> removed;
    for (Tuple& t : new_rows) {
      if (!old_snapshot.Contains(t)) added.push_back(std::move(t));
    }
    for (Tuple& t : old_rows[p]) {
      if (!rel->Contains(t)) removed.push_back(std::move(t));
    }
    pass->local.tuples_inserted += added.size();
    pass->local.tuples_deleted += removed.size();
    RAQLET_RETURN_IF_ERROR(Guard(*pass, added.size() + removed.size()));
    if (!added.empty() || !removed.empty()) {
      RAQLET_ASSIGN_OR_RETURN(
          pass->states[p], Seal(*rel, std::move(added), std::move(removed)));
    }
  }
  return Status::OK();
}

Result<AppliedDelta> IncrementalView::Impl::Apply(
    const DeltaBatch& batch, obs::IncrementalMetrics* metrics,
    const runtime::QueryGuard* guard) {
  obs::TraceScope span("incremental.apply");
  // Apply the base delta and collapse it into one net change per changed
  // relation (a relation may appear in several batch entries).
  AppliedDelta base;
  RAQLET_ASSIGN_OR_RETURN(base, db->ApplyDelta(batch));

  struct NetChange {
    std::vector<Tuple> added;
    std::vector<Tuple> removed;
  };
  std::unordered_map<std::string, NetChange> net;
  std::vector<std::string> base_order;
  for (AppliedRelationDelta& ard : base.relations) {
    auto [it, fresh] = net.try_emplace(ard.relation);
    if (fresh) base_order.push_back(ard.relation);
    NetChange& change = it->second;
    std::unordered_set<Tuple, TupleHash> removed_set(change.removed.begin(),
                                                     change.removed.end());
    for (Tuple& t : ard.added) {
      if (removed_set.count(t) > 0) {
        // Removed earlier in the batch, re-added now: net no-op.
        removed_set.erase(t);
        change.removed.erase(
            std::find(change.removed.begin(), change.removed.end(), t));
      } else {
        change.added.push_back(std::move(t));
      }
    }
    std::unordered_set<Tuple, TupleHash> added_set(change.added.begin(),
                                                   change.added.end());
    for (Tuple& t : ard.removed) {
      if (added_set.count(t) > 0) {
        change.added.erase(
            std::find(change.added.begin(), change.added.end(), t));
      } else {
        change.removed.push_back(std::move(t));
      }
    }
  }
  Pass pass{RuleKernel(engine->context(), guard, &db->symbols()), guard, {},
            {}};
  IncrementalStats& local = pass.local;
  for (const std::string& pred : base_order) {
    NetChange& change = net[pred];
    local.base_added += change.added.size();
    local.base_removed += change.removed.size();
    RAQLET_ASSIGN_OR_RETURN(pass.states[pred],
                            Seal(*relations.at(pred), std::move(change.added),
                                 std::move(change.removed)));
  }
  RAQLET_RETURN_IF_ERROR(Guard(pass, local.base_added + local.base_removed));

  // Re-fire only the SCCs whose body predicates changed, in topological
  // order, so each SCC sees final lower-stratum states.
  for (SccPlan& scc : sccs) {
    if (scc.rules.empty()) continue;
    bool affected = false;
    for (const std::string& dep : scc.body_preds) {
      const PredState* st = StateOf(pass.states, dep);
      if (st != nullptr && st->changed()) {
        affected = true;
        break;
      }
    }
    if (!affected) {
      ++local.sccs_skipped;
      continue;
    }
    ++local.sccs_touched;
    switch (scc.policy) {
      case Policy::kCounting:
        RAQLET_RETURN_IF_ERROR(ApplyCounting(&scc, &pass));
        break;
      case Policy::kDred: {
        bool bailed = false;
        RAQLET_RETURN_IF_ERROR(ApplyDred(&scc, &pass, &bailed));
        if (bailed) RAQLET_RETURN_IF_ERROR(ApplyRecompute(&scc, &pass));
        break;
      }
      case Policy::kRecompute:
        RAQLET_RETURN_IF_ERROR(ApplyRecompute(&scc, &pass));
        break;
    }
  }

  // Assemble the net result: base relations in first-appearance batch
  // order, then derived relations in topological order.
  AppliedDelta out;
  auto append = [&out](const std::string& pred, const PredState& st) {
    if (!st.changed()) return;
    AppliedRelationDelta ard;
    ard.relation = pred;
    ard.added = st.added->MaterializeRows();
    ard.removed = st.removed->MaterializeRows();
    out.total_added += ard.added.size();
    out.total_removed += ard.removed.size();
    out.relations.push_back(std::move(ard));
  };
  for (const std::string& pred : base_order) append(pred, pass.states[pred]);
  for (const SccPlan& scc : sccs) {
    for (const std::string& pred : scc.preds) {
      if (input_preds.count(pred) > 0) continue;
      const PredState* st = StateOf(pass.states, pred);
      if (st != nullptr) append(pred, *st);
    }
  }

  // IncrementalStats and obs::IncrementalMetrics share these counters.
  auto accumulate = [&local](auto* into) {
    into->base_added += local.base_added;
    into->base_removed += local.base_removed;
    into->sccs_touched += local.sccs_touched;
    into->sccs_skipped += local.sccs_skipped;
    into->rounds += local.rounds;
    into->tuples_inserted += local.tuples_inserted;
    into->tuples_deleted += local.tuples_deleted;
    into->overdeleted += local.overdeleted;
    into->rederived += local.rederived;
    into->support_updates += local.support_updates;
    into->recomputed_sccs += local.recomputed_sccs;
    into->dred_bailouts += local.dred_bailouts;
  };
  stats.deltas_applied += 1;
  accumulate(&stats);
  if (metrics != nullptr) accumulate(metrics);
  return out;
}

// ---------------------------------------------------------------------------
// Public surface.
// ---------------------------------------------------------------------------

IncrementalView::IncrementalView(IncrementalOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->options = options;
}

IncrementalView::~IncrementalView() = default;

Status IncrementalView::Initialize(const dlir::Program& program, Database* db,
                                   EvalStats* stats,
                                   const runtime::QueryGuard* guard) {
  return impl_->Initialize(program, db, stats, guard);
}

bool IncrementalView::initialized() const { return impl_->initialized; }

const IncrementalStats& IncrementalView::stats() const { return impl_->stats; }

Database* IncrementalView::database() const { return impl_->db; }

Result<AppliedDelta> IncrementalView::ApplyDelta(
    const DeltaBatch& delta, obs::IncrementalMetrics* metrics,
    const runtime::QueryGuard* guard) {
  if (!impl_->initialized) {
    return Status::InvalidArgument(
        "IncrementalView::ApplyDelta before Initialize");
  }
  if (impl_->poisoned) {
    return Status::InvalidArgument(
        "incremental view poisoned by a previous failed ApplyDelta; call "
        "Initialize again");
  }
  for (const RelationDelta& rd : delta.relations) {
    if (impl_->input_preds.count(rd.relation) == 0) {
      return Status::InvalidArgument(
          "delta targets non-input relation '" + rd.relation +
          "' — only declared input relations accept base-fact deltas");
    }
  }
  Result<AppliedDelta> result = impl_->Apply(delta, metrics, guard);
  // Any failure past validation may have left base or derived relations
  // half-repaired; poison the view until re-initialized.
  if (!result.ok()) impl_->poisoned = true;
  return result;
}

std::string IncrementalStats::ToString() const {
  std::ostringstream os;
  os << "deltas=" << deltas_applied << " base_added=" << base_added
     << " base_removed=" << base_removed << " sccs_touched=" << sccs_touched
     << " sccs_skipped=" << sccs_skipped << " rounds=" << rounds
     << " inserted=" << tuples_inserted << " deleted=" << tuples_deleted
     << " overdeleted=" << overdeleted << " rederived=" << rederived
     << " support_updates=" << support_updates
     << " recomputed_sccs=" << recomputed_sccs
     << " dred_bailouts=" << dred_bailouts;
  return os.str();
}

}  // namespace raqlet::engine
