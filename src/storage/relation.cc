#include "storage/relation.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "common/str_util.h"
#include "runtime/failpoint.h"

namespace raqlet {

namespace {

// TupleHash for an arity-2 all-kNumber row given the raw payload words —
// bit-identical to TupleHash{}({Number(a), Number(b)}): a kNumber's
// Value::Hash is its own bits.
inline uint64_t PairNumericHash(int64_t a, int64_t b) {
  return HashCombine(HashCombine(2, static_cast<uint64_t>(a)),
                     static_cast<uint64_t>(b));
}

// TupleHash of the row whose column-c value is value(c).
template <typename ValueFn>
inline uint64_t RowHash(size_t arity, ValueFn&& value) {
  uint64_t h = arity;
  for (size_t c = 0; c < arity; ++c) h = HashCombine(h, value(c).Hash());
  return h;
}

inline bool AllNumbers(const std::vector<Value>& vals) {
  for (const Value& v : vals) {
    if (v.kind() != ValueType::kNumber) return false;
  }
  return true;
}

}  // namespace

int RelationSchema::ColumnIndex(const std::string& column_name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == column_name) return static_cast<int>(i);
  }
  return -1;
}

std::string RelationSchema::ToString() const {
  std::vector<std::string> cols;
  cols.reserve(columns.size());
  for (const Column& c : columns) {
    cols.push_back(c.name + ": " + ValueTypeToString(c.type));
  }
  return name + "(" + Join(cols, ", ") + ")";
}

Status Relation::CheckRoom(size_t extra) const {
  if (row_count_ + extra <= row_limit_) return Status::OK();
  return Status::Internal(
      "relation '" + schema_.name + "' would exceed " +
      std::to_string(row_limit_) +
      " rows (32-bit row-index ceiling): " + std::to_string(row_count_) +
      " stored + batch of " + std::to_string(extra));
}

uint32_t Relation::PairProbe(int64_t a, int64_t b, uint32_t h32,
                             size_t* slot_out) const {
  const int64_t* s0 = columns_[0].word_data();
  const int64_t* s1 = columns_[1].word_data();
  const size_t mask = dedup_slots_.size() - 1;
  for (size_t pos = h32 & mask;; pos = (pos + 1) & mask) {
    const HashSlot& slot = dedup_slots_[pos];
    if (slot.index == kEmptySlot) {
      if (slot_out != nullptr) *slot_out = pos;
      return kEmptySlot;
    }
    if (slot.hash == h32 && s0[slot.index] == a && s1[slot.index] == b) {
      return slot.index;
    }
  }
}

bool Relation::PairColumnsReady() const {
  return columns_.size() == 2 && columns_[0].uniform() &&
         columns_[1].uniform() &&
         (row_count_ == 0 ||
          (columns_[0].uniform_kind() == ValueType::kNumber &&
           columns_[1].uniform_kind() == ValueType::kNumber));
}

void Relation::PrepareColumns(size_t arity, size_t want) {
  if (columns_.size() < arity) columns_.resize(arity);
  // One reservation for the whole batch; doubling (rather than
  // reserve(size + k) per batch) keeps growth geometric across rounds.
  for (ValueColumn& c : columns_) {
    if (want > c.capacity()) c.Reserve(std::max(want, c.capacity() * 2));
  }
}

void Relation::AppendRow(const Tuple& t) {
  for (size_t c = 0; c < t.size(); ++c) columns_[c].Append(t[c]);
}

size_t Relation::RowOf(const Tuple& t) const {
  if (dedup_slots_.empty()) return kNoRow;
  auto cand = [&t](size_t c) -> const Value& { return t[c]; };
  const uint32_t row =
      DedupProbe(t.size(), cand, FoldHash(TupleHash{}(t)), nullptr);
  return row == kEmptySlot ? kNoRow : row;
}

Result<bool> Relation::Insert(Tuple t) {
  RAQLET_RETURN_IF_ERROR(CheckRoom(1));
  PrepareColumns(t.size(), row_count_ + 1);
  ReserveHashSlots(&dedup_slots_, row_count_ + 1);  // room for this row
  uint32_t h32 = FoldHash(TupleHash{}(t));
  size_t slot;
  auto cand = [&t](size_t c) -> const Value& { return t[c]; };
  if (DedupProbe(t.size(), cand, h32, &slot) != kEmptySlot) return false;
  AppendRow(t);
  dedup_slots_[slot] = HashSlot{h32, static_cast<uint32_t>(row_count_)};
  ++row_count_;
  return true;
}

Result<size_t> Relation::InsertBatch(std::vector<Tuple> batch) {
  return InsertBatchInPlace(&batch);
}

Result<size_t> Relation::InsertBatchInPlace(std::vector<Tuple>* batch) {
  if (batch->empty()) return static_cast<size_t>(0);
  RAQLET_FAILPOINT("storage.insert_batch");
  RAQLET_RETURN_IF_ERROR(CheckRoom(batch->size()));
  PrepareColumns((*batch)[0].size(), row_count_ + batch->size());
  size_t inserted = 0;
  for (const Tuple& t : *batch) {
    ReserveHashSlots(&dedup_slots_, row_count_ + 1);  // admitted rows only
    uint32_t h32 = FoldHash(TupleHash{}(t));
    size_t slot;
    auto cand = [&t](size_t c) -> const Value& { return t[c]; };
    if (DedupProbe(t.size(), cand, h32, &slot) != kEmptySlot) continue;
    AppendRow(t);
    dedup_slots_[slot] = HashSlot{h32, static_cast<uint32_t>(row_count_)};
    ++row_count_;
    ++inserted;
  }
  batch->clear();  // capacity retained for staging-buffer reuse
  FoldAllIndexes();
  return inserted;
}

Result<size_t> Relation::InsertColumns(std::vector<std::vector<Value>>* cols) {
  return InsertRuns({cols});
}

Result<size_t> Relation::InsertRuns(const std::vector<StagedRun*>& runs,
                                    const ParallelForFn& parallel_for,
                                    const MergePhaseFn& on_phase,
                                    ShardedRuns* scratch) {
  size_t arity = 0;
  size_t n = 0;
  for (const StagedRun* run : runs) {
    if (StagedRows(*run) == 0) continue;
    arity = run->size();
    n += StagedRows(*run);
  }
  if (n == 0) return static_cast<size_t>(0);
  RAQLET_FAILPOINT("storage.insert_columns");
  RAQLET_RETURN_IF_ERROR(CheckRoom(n));
  auto phase = [&on_phase](MergePhase p) {
    if (on_phase != nullptr) on_phase(p);
  };
  phase(MergePhase::kProbe);
  if (columns_.size() < arity) columns_.resize(arity);
  bool pair = arity == 2 && PairColumnsReady();
  for (const StagedRun* run : runs) {
    if (!pair) break;
    for (const std::vector<Value>& col : *run) pair = pair && AllNumbers(col);
  }
  size_t inserted;
  if (parallel_for != nullptr && n >= ShardedRuns::kMinRows) {
    std::optional<ShardedRuns> local;
    if (scratch == nullptr) scratch = &local.emplace();
    inserted =
        InsertRunsSharded(runs, arity, pair, parallel_for, on_phase, scratch);
  } else {
    inserted = InsertRunsSerial(runs, arity, pair);
  }
  for (StagedRun* run : runs) {
    for (std::vector<Value>& col : *run) col.clear();  // capacity retained
  }
  phase(MergePhase::kIndexFold);
  FoldAllIndexes();
  return inserted;
}

size_t Relation::InsertRunsSerial(const std::vector<StagedRun*>& runs,
                                  size_t arity, bool pair) {
  size_t n = 0;
  for (const StagedRun* run : runs) n += StagedRows(*run);
  // Columns are reserved for every candidate (address space only: pages
  // are touched as rows land), so borrowed word pointers stay valid.
  PrepareColumns(arity, row_count_ + n);
  size_t inserted = 0;
  size_t offered = 0;
  for (const StagedRun* run_ptr : runs) {
    const StagedRun& run = *run_ptr;
    const size_t rows = StagedRows(run);
    for (size_t i = 0; i < rows; ++i, ++offered) {
      // Room for this row, should it be new. The table grows with the
      // admitted rows, not the candidates: when it must grow, it makes
      // room for the rows the rest of the batch would admit at the rate
      // it has admitted so far, but at most 4x the rows stored — few
      // steps for an all-new batch, little slack for a duplicate-heavy
      // one.
      if ((row_count_ + 1) * 2 > dedup_slots_.size()) {
        const size_t projected =
            (n - offered) * (inserted + 1) / (offered + 1);
        ReserveHashSlots(&dedup_slots_,
                         row_count_ + 1 +
                             std::min(projected, 3 * (row_count_ + 1)));
      }
      size_t slot;
      uint32_t h32;
      if (pair) {
        const int64_t a = run[0][i].RawBits();
        const int64_t b = run[1][i].RawBits();
        h32 = FoldHash(PairNumericHash(a, b));
        if (PairProbe(a, b, h32, &slot) != kEmptySlot) continue;
        columns_[0].AppendUniform(ValueType::kNumber, a);
        columns_[1].AppendUniform(ValueType::kNumber, b);
      } else {
        auto cand = [&run, i](size_t c) -> const Value& { return run[c][i]; };
        h32 = FoldHash(RowHash(arity, cand));
        if (DedupProbe(arity, cand, h32, &slot) != kEmptySlot) continue;
        for (size_t c = 0; c < arity; ++c) columns_[c].Append(run[c][i]);
      }
      dedup_slots_[slot] = HashSlot{h32, static_cast<uint32_t>(row_count_)};
      ++row_count_;
      ++inserted;
    }
  }
  return inserted;
}

size_t Relation::InsertRunsSharded(const std::vector<StagedRun*>& runs,
                                   size_t arity, bool pair,
                                   const ParallelForFn& parallel_for,
                                   const MergePhaseFn& on_phase,
                                   ShardedRuns* scratch) {
  // Hash once, bucket by the hash's high bits (storage/merge.h).
  ShardedRuns& sharded = *scratch;
  sharded.Build(
      runs,
      [arity, pair](const StagedRun& run, size_t i) -> uint32_t {
        if (pair) {
          return FoldHash(PairNumericHash(run[0][i].RawBits(),
                                          run[1][i].RawBits()));
        }
        return FoldHash(RowHash(
            arity, [&run, i](size_t c) -> const Value& { return run[c][i]; }));
      },
      parallel_for);

  // Decide, per shard and in parallel, which candidates are new. The
  // dedup table is only read here; each shard's first-occurrence table
  // holds (hash, position) of the shard's winners so far and grows as
  // winners are admitted. Candidates, and their dedup-table slots, are
  // prefetched a few positions ahead: a shard's positions are scattered
  // over the runs, so each is a cache miss otherwise.
  const size_t table_mask =
      dedup_slots_.empty() ? 0 : dedup_slots_.size() - 1;
  ForEachIndex(parallel_for, ShardedRuns::kShards, [&](size_t s) {
    const std::span<const uint32_t> positions = sharded.positions(s);
    if (positions.empty()) return;
    ShardedRuns::Shard& shard = sharded.shard(s);
    std::vector<uint32_t>& won = shard.picked;
    std::vector<HashSlot>& seen = shard.seen;
    size_t capacity = 16;  // within the size an earlier merge reached
    while (capacity < seen.size() && capacity < 2 * positions.size()) {
      capacity *= 2;
    }
    seen.assign(capacity, HashSlot{});
    constexpr size_t kAhead = 8;
    size_t r = sharded.RunOf(positions.front());
    size_t r_ahead = r;
    for (size_t k = 0; k < positions.size(); ++k) {
      if (k + kAhead < positions.size()) {
        const uint32_t ahead = positions[k + kAhead];
        while (ahead >= sharded.RunStart(r_ahead + 1)) ++r_ahead;
        const size_t i_ahead = ahead - sharded.RunStart(r_ahead);
        for (const std::vector<Value>& col : *runs[r_ahead]) {
          Prefetch(col.data() + i_ahead);
        }
        if (table_mask != 0) {
          Prefetch(&dedup_slots_[sharded.hash(ahead) & table_mask]);
        }
      }
      const uint32_t pos = positions[k];
      while (pos >= sharded.RunStart(r + 1)) ++r;
      const size_t i = pos - sharded.RunStart(r);
      const StagedRun& run = *runs[r];
      const uint32_t h32 = sharded.hash(pos);
      if (table_mask != 0) {
        uint32_t found;
        if (pair) {
          found = PairProbe(run[0][i].RawBits(), run[1][i].RawBits(), h32,
                            nullptr);
        } else {
          auto cand = [&run, i](size_t c) -> const Value& { return run[c][i]; };
          found = DedupProbe(arity, cand, h32, nullptr);
        }
        if (found != kEmptySlot) continue;
      }
      const size_t mask = seen.size() - 1;
      size_t p = h32 & mask;
      bool repeat = false;
      for (; seen[p].index != HashSlot::kEmpty; p = (p + 1) & mask) {
        if (seen[p].hash != h32) continue;
        // An earlier winner with the same hash: compare the rows.
        const uint32_t q = seen[p].index;
        const size_t rq = sharded.RunOf(q);
        const StagedRun& earlier = *runs[rq];
        const size_t iq = q - sharded.RunStart(rq);
        repeat = true;
        for (size_t c = 0; c < arity && repeat; ++c) {
          repeat = run[c][i] == earlier[c][iq];
        }
        if (repeat) break;
      }
      if (repeat) continue;
      if (ReserveHashSlots(&seen, won.size() + 1)) p = EmptyHashSlot(seen, h32);
      seen[p] = HashSlot{h32, pos};
      won.push_back(pos);
    }
  });

  // Append the winners in global order and seat them in the dedup table,
  // which grows once, by the admitted count. A winner is known absent, so
  // seating it takes the first empty slot on its chain, with no compare.
  if (on_phase != nullptr) on_phase(MergePhase::kAppend);
  const size_t admitted = sharded.Picked();
  if (admitted == 0) return 0;
  const std::vector<uint8_t>& admit = sharded.picked_flags();
  PrepareColumns(arity, row_count_ + admitted);
  ReserveHashSlots(&dedup_slots_, row_count_ + admitted);
  const size_t mask = dedup_slots_.size() - 1;
  // The slot each winner lands near is prefetched a few winners ahead.
  size_t ahead = 0;
  auto prefetch_next_winner = [&] {
    while (ahead < admit.size() && admit[ahead] == 0) ++ahead;
    if (ahead < admit.size()) {
      Prefetch(&dedup_slots_[sharded.hash(ahead) & mask]);
      ++ahead;
    }
  };
  for (int k = 0; k < 8; ++k) prefetch_next_winner();
  for (size_t r = 0; r < runs.size(); ++r) {
    const StagedRun& run = *runs[r];
    const size_t base = sharded.RunStart(r);
    const size_t rows = StagedRows(run);
    for (size_t i = 0; i < rows; ++i) {
      if (admit[base + i] == 0) continue;
      prefetch_next_winner();
      if (pair) {
        columns_[0].AppendUniform(ValueType::kNumber, run[0][i].RawBits());
        columns_[1].AppendUniform(ValueType::kNumber, run[1][i].RawBits());
      } else {
        for (size_t c = 0; c < arity; ++c) columns_[c].Append(run[c][i]);
      }
      const uint32_t h32 = sharded.hash(base + i);
      dedup_slots_[EmptyHashSlot(dedup_slots_, h32)] =
          HashSlot{h32, static_cast<uint32_t>(row_count_)};
      ++row_count_;
    }
  }
  return admitted;
}

Result<size_t> Relation::EraseBatch(const std::vector<Tuple>& batch) {
  if (batch.empty() || row_count_ == 0) return static_cast<size_t>(0);
  RAQLET_FAILPOINT("storage.erase_batch");
  // Phase 1: probe and tombstone. A tombstoned slot keeps its position in
  // the table so linear-probe chains running through it stay intact —
  // later candidates of the same batch whose chains pass the erased slot
  // still find their rows. The shared DedupProbe stops at the first empty
  // slot and compares against live rows only, so this phase runs its own
  // probe loop that skips (rather than stops at) tombstones.
  static constexpr uint32_t kTombstone = kEmptySlot - 1;
  const size_t mask = dedup_slots_.size() - 1;
  std::vector<uint32_t> dead_rows;
  for (const Tuple& t : batch) {
    if (t.size() != columns_.size()) continue;  // wrong arity: never present
    const uint32_t h32 = FoldHash(TupleHash{}(t));
    auto cand = [&t](size_t c) -> const Value& { return t[c]; };
    size_t pos = h32 & mask;
    while (true) {
      HashSlot& slot = dedup_slots_[pos];
      if (slot.index == kEmptySlot) break;  // absent (or erased earlier)
      if (slot.index != kTombstone && slot.hash == h32 &&
          RowEquals(slot.index, t.size(), cand)) {
        dead_rows.push_back(slot.index);
        slot.index = kTombstone;
        break;
      }
      pos = (pos + 1) & mask;
    }
  }
  if (dead_rows.empty()) return static_cast<size_t>(0);
  // Phase 2: the order-preserving compaction.
  std::vector<uint8_t> dead(row_count_, 0);
  for (uint32_t r : dead_rows) dead[r] = 1;
  return EraseRows(dead);
}

size_t Relation::EraseRows(const std::vector<uint8_t>& dead) {
  const size_t erased =
      static_cast<size_t>(std::count_if(dead.begin(), dead.end(),
                                        [](uint8_t d) { return d != 0; }));
  if (erased == 0) return 0;
  // Compact the columns (survivors keep relative order) and rebuild the
  // dedup table from the survivors. Indexes and the boxed row cache are
  // watermark-folded structures keyed by now-shifted row indices, so they
  // are dropped wholesale (see the deletion contract in the header).
  for (ValueColumn& c : columns_) c.EraseRows(dead);
  row_count_ -= erased;
  index_cache_.clear();
  row_cache_.clear();
  rows_cached_ = 0;
  std::fill(dedup_slots_.begin(), dedup_slots_.end(), HashSlot{});
  for (uint32_t i = 0; i < row_count_; ++i) {
    const uint32_t h32 = FoldHash(RowHash(
        columns_.size(), [this, i](size_t c) { return columns_[c].Get(i); }));
    dedup_slots_[EmptyHashSlot(dedup_slots_, h32)] = HashSlot{h32, i};
  }
  return erased;
}

std::vector<Tuple> Relation::ReleaseRows() {
  rows();  // fold the compatibility cache to completion
  std::vector<Tuple> out = std::move(row_cache_);
  row_cache_ = std::vector<Tuple>();
  Clear();
  return out;
}

std::vector<std::vector<Value>> Relation::ReleaseColumns() {
  std::vector<std::vector<Value>> out(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    out[c].reserve(row_count_);
    for (size_t i = 0; i < row_count_; ++i) {
      out[c].push_back(columns_[c].Get(i));
    }
  }
  Clear();
  return out;
}

const std::vector<Tuple>& Relation::rows() const {
  if (rows_cached_ < row_count_) {
    row_cache_.reserve(row_count_);
    for (size_t i = rows_cached_; i < row_count_; ++i) {
      Tuple t;
      t.reserve(columns_.size());
      for (const ValueColumn& c : columns_) t.push_back(c.Get(i));
      row_cache_.push_back(std::move(t));
    }
    rows_cached_ = row_count_;
  }
  return row_cache_;
}

std::vector<Tuple> Relation::MaterializeRows(size_t begin) const {
  std::vector<Tuple> out;
  if (begin >= row_count_) return out;
  out.reserve(row_count_ - begin);
  for (size_t i = begin; i < row_count_; ++i) {
    Tuple t;
    t.reserve(columns_.size());
    for (const ValueColumn& c : columns_) t.push_back(c.Get(i));
    out.push_back(std::move(t));
  }
  return out;
}

Relation::ColumnView Relation::ColumnSlice(size_t col, size_t begin,
                                           size_t end) const {
  ColumnView v;
  if (col >= columns_.size() || begin >= end) return v;
  const ValueColumn& c = columns_[col];
  v.words_ = c.word_data() + begin;
  const uint8_t* kinds = c.kind_data();
  v.kinds_ = kinds == nullptr ? nullptr : kinds + begin;
  v.kind_ = c.uniform_kind();
  v.size_ = end - begin;
  return v;
}

void Relation::Clear() {
  for (ValueColumn& c : columns_) c.Clear();
  // Keep the dedup table for a refill of similar size (an engine re-run),
  // but not one sized for far more rows than were stored: every Clear()
  // passes over all the slots, and a name reused by a much smaller
  // program would pay for the big table on every run.
  if (dedup_slots_.size() > 16 * std::max<size_t>(row_count_, 16)) {
    dedup_slots_ = std::vector<HashSlot>();
  } else {
    std::fill(dedup_slots_.begin(), dedup_slots_.end(), HashSlot{});
  }
  row_count_ = 0;
  index_cache_.clear();
  row_cache_.clear();
  rows_cached_ = 0;
}

const Relation::KeyIndex& Relation::GetIndex(
    const std::vector<int>& key_columns) const {
  return FoldIndex(key_columns);
}

const Relation::KeyIndex* Relation::EnsureIndex(
    const std::vector<int>& key_columns) const {
  std::lock_guard<std::mutex> lock(index_mutex_);
  return &FoldIndex(key_columns);
}

const Relation::KeyIndex& Relation::FoldIndex(
    const std::vector<int>& key_columns) const {
  std::string cache_key;
  for (int c : key_columns) {
    cache_key += std::to_string(c);
    cache_key += ',';
  }
  auto it = index_cache_.find(cache_key);
  if (it == index_cache_.end()) {
    it = index_cache_.emplace(cache_key, CachedIndex{}).first;
    it->second.key_columns = key_columns;
  }
  FoldSuffix(&it->second);
  return it->second.index;
}

void Relation::FoldSuffix(CachedIndex* cached) const {
  RAQLET_FAILPOINT_DELAY("storage.index_build");
  for (uint32_t i = static_cast<uint32_t>(cached->rows_indexed);
       i < row_count_; ++i) {
    Tuple key;
    key.reserve(cached->key_columns.size());
    for (int c : cached->key_columns) {
      key.push_back(columns_[static_cast<size_t>(c)].Get(i));
    }
    cached->index[std::move(key)].push_back(i);
  }
  cached->rows_indexed = row_count_;
}

void Relation::FoldAllIndexes() {
  // One fold per cached index for the whole batch, so interleaved probe
  // sites never re-fold tuple by tuple.
  for (auto& [key, cached] : index_cache_) FoldSuffix(&cached);
}

size_t Relation::MemoryBytes() const {
  size_t bytes = 0;
  for (const ValueColumn& c : columns_) bytes += c.MemoryBytes();
  bytes += dedup_slots_.capacity() * sizeof(HashSlot);
  // Boxed compatibility cache, if materialized (vector headers + value
  // payloads; per-tuple allocator overhead not counted).
  bytes += row_cache_.capacity() * sizeof(Tuple);
  for (const Tuple& t : row_cache_) bytes += t.capacity() * sizeof(Value);
  return bytes;
}

std::string Relation::ToString(const SymbolTable* symbols) const {
  std::ostringstream os;
  os << schema_.ToString() << " [" << row_count_ << " rows]\n";
  for (size_t i = 0; i < row_count_; ++i) {
    Tuple t;
    t.reserve(columns_.size());
    for (const ValueColumn& c : columns_) t.push_back(c.Get(i));
    os << "  " << TupleToString(t, symbols) << "\n";
  }
  return os.str();
}

}  // namespace raqlet
