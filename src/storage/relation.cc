#include "storage/relation.h"

#include <algorithm>
#include <sstream>

#include "common/str_util.h"
#include "runtime/failpoint.h"

namespace raqlet {

namespace {

constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

// Finalizer spreading TupleHash output across slot indices: the table
// indexes with the low bits, so fold the high bits down first.
inline uint32_t MixHash(size_t h) {
  uint64_t x = static_cast<uint64_t>(h) * kGolden;
  return static_cast<uint32_t>(x ^ (x >> 32));
}

// TupleHash for an arity-2 all-kNumber row given the raw payload words —
// bit-identical to TupleHash{}({Number(a), Number(b)}). Value::Hash for a
// kNumber is bits + kGolden (the kind term is zero).
inline size_t PairNumericHash(int64_t a, int64_t b) {
  size_t h = 2;
  h ^= (static_cast<uint64_t>(a) + kGolden) + kGolden + (h << 6) + (h >> 2);
  h ^= (static_cast<uint64_t>(b) + kGolden) + kGolden + (h << 6) + (h >> 2);
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

void Relation::DedupReserve(size_t want) {
  // Max load factor 1/2: at 7/8 the expected linear-probe chain for a miss
  // (every genuinely-new tuple) is ~32 slot touches; at 1/2 it is ~2.5. A
  // slot is 8 bytes, so even the doubled table stays far smaller than the
  // column storage it guards.
  size_t capacity = dedup_slots_.size();
  if (capacity >= 16 && want * 2 <= capacity) return;
  size_t new_capacity = capacity == 0 ? 16 : capacity;
  while (want * 2 > new_capacity) new_capacity *= 2;
  std::vector<DedupSlot> old = std::move(dedup_slots_);
  dedup_slots_.assign(new_capacity, DedupSlot{});
  size_t mask = new_capacity - 1;
  for (const DedupSlot& slot : old) {
    if (slot.row == kEmptySlot) continue;
    size_t pos = slot.hash & mask;
    while (dedup_slots_[pos].row != kEmptySlot) pos = (pos + 1) & mask;
    dedup_slots_[pos] = slot;
  }
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

bool Relation::Contains(const Tuple& t) const {
  if (dedup_slots_.empty()) return false;
  auto cand = [&t](size_t c) -> const Value& { return t[c]; };
  return DedupProbe(t.size(), cand, MixHash(TupleHash{}(t)), nullptr) !=
         kEmptySlot;
}

Result<bool> Relation::Insert(Tuple t) {
  RAQLET_RETURN_IF_ERROR(CheckRoom(1));
  PrepareColumns(t.size(), row_count_ + 1);
  DedupReserve(row_count_ + 1);
  uint32_t h32 = MixHash(TupleHash{}(t));
  size_t slot;
  auto cand = [&t](size_t c) -> const Value& { return t[c]; };
  if (DedupProbe(t.size(), cand, h32, &slot) != kEmptySlot) return false;
  AppendRow(t);
  dedup_slots_[slot] = DedupSlot{h32, static_cast<uint32_t>(row_count_)};
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
  size_t want = row_count_ + batch->size();
  PrepareColumns((*batch)[0].size(), want);
  DedupReserve(want);
  size_t inserted = 0;
  for (const Tuple& t : *batch) {
    uint32_t h32 = MixHash(TupleHash{}(t));
    size_t slot;
    auto cand = [&t](size_t c) -> const Value& { return t[c]; };
    if (DedupProbe(t.size(), cand, h32, &slot) != kEmptySlot) continue;
    AppendRow(t);
    dedup_slots_[slot] = DedupSlot{h32, static_cast<uint32_t>(row_count_)};
    ++row_count_;
    ++inserted;
  }
  batch->clear();  // capacity retained for staging-buffer reuse
  FoldAllIndexes();
  return inserted;
}

Result<size_t> Relation::InsertColumns(std::vector<std::vector<Value>>* cols) {
  const size_t batch_arity = cols->size();
  const size_t n = batch_arity == 0 ? 0 : (*cols)[0].size();
  if (n == 0) return static_cast<size_t>(0);
  RAQLET_FAILPOINT("storage.insert_columns");
  RAQLET_RETURN_IF_ERROR(CheckRoom(n));
  size_t want = row_count_ + n;
  PrepareColumns(batch_arity, want);
  DedupReserve(want);
  size_t inserted;
  if (batch_arity == 2 && columns_[0].uniform() && columns_[1].uniform() &&
      (row_count_ == 0 ||
       (columns_[0].uniform_kind() == ValueType::kNumber &&
        columns_[1].uniform_kind() == ValueType::kNumber)) &&
      AllNumbers((*cols)[0]) && AllNumbers((*cols)[1])) {
    inserted = InsertPairNumeric((*cols)[0], (*cols)[1]);
  } else {
    inserted = 0;
    for (size_t i = 0; i < n; ++i) {
      size_t h = batch_arity;
      for (size_t c = 0; c < batch_arity; ++c) {
        h ^= (*cols)[c][i].Hash() + kGolden + (h << 6) + (h >> 2);
      }
      uint32_t h32 = MixHash(h);
      size_t slot;
      auto cand = [cols, i](size_t c) -> const Value& { return (*cols)[c][i]; };
      if (DedupProbe(batch_arity, cand, h32, &slot) != kEmptySlot) continue;
      for (size_t c = 0; c < batch_arity; ++c) {
        columns_[c].Append((*cols)[c][i]);
      }
      dedup_slots_[slot] = DedupSlot{h32, static_cast<uint32_t>(row_count_)};
      ++row_count_;
      ++inserted;
    }
  }
  for (std::vector<Value>& col : *cols) col.clear();  // capacity retained
  FoldAllIndexes();
  return inserted;
}

size_t Relation::InsertPairNumeric(const std::vector<Value>& c0,
                                   const std::vector<Value>& c1) {
  const size_t n = c0.size();
  ValueColumn& col0 = columns_[0];
  ValueColumn& col1 = columns_[1];
  // PrepareColumns reserved the whole batch, so these stay valid across
  // appends.
  const int64_t* s0 = col0.word_data();
  const int64_t* s1 = col1.word_data();
  const size_t mask = dedup_slots_.size() - 1;
  size_t inserted = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t a = c0[i].RawBits();
    const int64_t b = c1[i].RawBits();
    const uint32_t h32 = MixHash(PairNumericHash(a, b));
    size_t pos = h32 & mask;
    bool duplicate = false;
    while (true) {
      const DedupSlot& slot = dedup_slots_[pos];
      if (slot.row == kEmptySlot) break;
      if (slot.hash == h32 && s0[slot.row] == a && s1[slot.row] == b) {
        duplicate = true;
        break;
      }
      pos = (pos + 1) & mask;
    }
    if (duplicate) continue;
    col0.AppendUniform(ValueType::kNumber, a);
    col1.AppendUniform(ValueType::kNumber, b);
    dedup_slots_[pos] = DedupSlot{h32, static_cast<uint32_t>(row_count_)};
    ++row_count_;
    ++inserted;
  }
  return inserted;
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
    const uint32_t h32 = MixHash(TupleHash{}(t));
    auto cand = [&t](size_t c) -> const Value& { return t[c]; };
    size_t pos = h32 & mask;
    while (true) {
      DedupSlot& slot = dedup_slots_[pos];
      if (slot.row == kEmptySlot) break;  // absent (or erased earlier)
      if (slot.row != kTombstone && slot.hash == h32 &&
          RowEquals(slot.row, t.size(), cand)) {
        dead_rows.push_back(slot.row);
        slot.row = kTombstone;
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
  std::fill(dedup_slots_.begin(), dedup_slots_.end(), DedupSlot{});
  const size_t mask = dedup_slots_.size() - 1;
  for (uint32_t i = 0; i < row_count_; ++i) {
    size_t h = columns_.size();
    for (const ValueColumn& c : columns_) {
      h ^= c.Get(i).Hash() + kGolden + (h << 6) + (h >> 2);
    }
    const uint32_t h32 = MixHash(h);
    size_t pos = h32 & mask;
    while (dedup_slots_[pos].row != kEmptySlot) pos = (pos + 1) & mask;
    dedup_slots_[pos] = DedupSlot{h32, i};
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
  row_count_ = 0;
  dedup_slots_.clear();
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
  bytes += dedup_slots_.capacity() * sizeof(DedupSlot);
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
