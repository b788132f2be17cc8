#include "engine/datalog/engine.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <span>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "analysis/dependency_graph.h"
#include "engine/datalog/rule_kernel.h"
#include "engine/value_ops.h"
#include "obs/trace.h"
#include "runtime/scc_scheduler.h"
#include "runtime/thread_pool.h"
#include "storage/merge.h"

namespace raqlet::engine {

namespace {

using datalog::CompiledAtom;
using datalog::CompiledRule;
using datalog::EmitBuffer;
using datalog::PlanStep;
using datalog::RuleKernel;
using datalog::VariantPlan;
using dlir::Atom;
using dlir::LatticeKind;
using dlir::Program;
using dlir::RelationDecl;
using dlir::Rule;

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
// Engine implementation proper. Rule compilation, planning, the join loop,
// the task fan-out and the staged-run merge are the shared rule kernel's
// (rule_kernel.h); an Evaluation decides which rows each plan step sees
// (the round's snapshot, and the delta range of the delta atom) and drives
// the SCCs to their fixpoints.
// ---------------------------------------------------------------------------

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
        kernel_(context, guard, &db->symbols()),
        lattice_pool_(context->PoolFor<LatticeTable>()) {}

  ~Evaluation() {
    for (auto& [rel, table] : lattices_) {
      lattice_pool_->Release(std::move(table));
    }
  }

  Status Run();

 private:
  Status PrepareRelations();
  Status CheckStratification(const analysis::DependencyGraph& graph) const;
  Status EvaluateScc(SccWork* work);

  // Plans the given (rule, delta_atom) variants, points every plan step at
  // its relation's rows as of `snapshot` (from `delta_begin` for the delta
  // atom), prebuilding every index the plans probe, and evaluates them on
  // the kernel, appending its emit buffers to `out` in serial task order.
  Status EvaluateVariants(
      const std::vector<std::pair<const CompiledRule*, int>>& variants,
      const std::unordered_map<std::string, size_t>& snapshot,
      const std::unordered_map<std::string, size_t>& delta_begin,
      std::vector<EmitBuffer>* out, EvalStats* scc_stats);

  // The single-writer phase of a round: the kernel's merge, with lattice
  // relations first filtering their runs through their LatticeTable,
  // keeping only improving candidates. Returns #tuples inserted.
  Result<size_t> ApplyStaged(std::vector<EmitBuffer>* buffers);

  // Drops the rows of the SCC's lattice relations that no longer hold
  // their key's best value, keeping survivors in insertion order, and
  // records the lattice counters into `slot` (when non-null).
  void CompactLattices(const SccWork& work, obs::SccMetrics* slot);

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
  // Runs the plans and merges on the context's pool (null pool =>
  // strictly serial evaluation), recycling EmitBuffers through the
  // context so their capacity survives across rounds and queries.
  RuleKernel kernel_;
  // Recycles LatticeTables across evaluations the same way.
  runtime::ObjectPool<LatticeTable>* lattice_pool_;

  // Read-only after PrepareRelations; safe to share across SCC tasks.
  std::unordered_map<std::string, Relation*> relations_;
  // Best-value tables of the lattice relations. The map itself is
  // read-only after PrepareRelations; each table is only ever touched by
  // the SCC owning its relation (by that SCC's merge task, then by its
  // compaction), so tables need no lock.
  std::unordered_map<const Relation*, LatticeTable> lattices_;
  std::mutex stats_mutex_;  // guards *stats_ merges from SCC tasks
};

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
      auto snap = snapshot.find(atom.predicate);
      size_t begin = 0;
      if (plan.delta_atom == step.atom_index) {
        auto delta = delta_begin.find(atom.predicate);
        if (delta != delta_begin.end()) begin = delta->second;
      }
      step.sources.push_back(ResolveSource(
          *atom.relation, step, begin,
          snap != snapshot.end() ? snap->second : atom.relation->size()));
    }
    plans.push_back(std::move(plan));
  }
  return kernel_.Evaluate(plans, out, scc_stats);
}

Result<size_t> Evaluation::ApplyStaged(std::vector<EmitBuffer>* buffers) {
  return kernel_.Merge(
      buffers, [this](Relation* rel, const std::vector<StagedRun*>& runs,
                      const ParallelForFn& parallel_for) {
        auto lattice = lattices_.find(rel);
        if (lattice == lattices_.end()) return;
        obs::TraceScope lattice_span("datalog.merge.lattice");
        lattice->second.Filter(runs, db_->symbols(), parallel_for);
      });
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
      const RelationDecl* head_decl = program_.FindDecl(rule.head.predicate);
      RAQLET_ASSIGN_OR_RETURN(
          CompiledRule cr,
          datalog::CompileRule(
              rule, scc_set, relations_,
              head_decl == nullptr ? LatticeKind::kNone : head_decl->lattice,
              &db_->symbols()));
      work[i].snapshot_preds.insert(rule.head.predicate);
      for (const CompiledAtom& atom : cr.atoms) {
        work[i].snapshot_preds.insert(atom.predicate);
      }
      work[i].rules.push_back(std::move(cr));
    }
  }

  if (kernel_.pool() == nullptr) {
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
      dag, kernel_.pool(),
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
