#ifndef RAQLET_STORAGE_RELATION_H_
#define RAQLET_STORAGE_RELATION_H_

// Set-semantics columnar tuple storage shared by the Datalog, SQL, and
// graph engines and by the EDB loaders. Insertion order is preserved (the
// semi-naive evaluator identifies deltas as suffixes of the row index
// space).

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "storage/merge.h"

namespace raqlet {

/// A named column with a logical type.
struct Column {
  std::string name;
  ValueType type = ValueType::kNumber;
};

/// Schema of a stored relation. `primary_key` lists column positions that
/// form a key (used by semantic join elimination); empty means unknown.
struct RelationSchema {
  std::string name;
  std::vector<Column> columns;
  std::vector<int> primary_key;

  size_t arity() const { return columns.size(); }
  /// Position of a column by name, or -1.
  int ColumnIndex(const std::string& column_name) const;
  std::string ToString() const;
};

/// A deduplicated, insertion-ordered bag of tuples of fixed arity, stored
/// column-wise (structure of arrays).
///
/// ## Layout
///
/// Each schema column is one ValueColumn: a dense array of raw 64-bit
/// payload words plus a kind tag. While every value in a column shares one
/// ValueType — the overwhelmingly common case; the 2-column edge/TC shape
/// that dominates the benchmarks is two uniform kNumber columns — the
/// per-row kind array is not allocated at all and a stored value costs
/// exactly 8 bytes. The first kind-mismatched append materializes a lazy
/// byte-per-row kind sidecar and the column degrades gracefully to tagged
/// storage (9 bytes/value). Compare with the previous row layout, where
/// every row was a heap-allocated std::vector<Value> costing 24 bytes of
/// vector header plus 16 bytes per value plus allocator overhead.
///
/// Duplicate elimination is a flat open-addressing table of
/// (hash32, row-index) slots with linear probing; it stores no tuples, and
/// probes compare candidate values against the column arrays directly.
/// Insertion through any path (row-at-a-time, row batches, or columnar
/// runs via InsertColumns/InsertRuns, serial or sharded) makes
/// bit-identical dedup decisions in batch order: the first occurrence of a
/// duplicate wins, exactly as a per-tuple Insert loop would decide. The
/// table grows with the admitted rows (never with the candidates a batch
/// offers) and keeps its capacity across Clear(), so a relation refilled
/// by a re-run does not rehash its way back up.
///
/// ## Borrowing contract
///
/// Column(c) / ColumnSlice(c, begin, end) return zero-copy ColumnView
/// handles into the live column arrays. A borrowed view is valid only
/// until the next mutation of the relation (Insert / InsertBatch /
/// InsertColumns / EraseBatch / EraseRows / Clear / ReleaseRows), exactly
/// like the KeyIndex pointer returned by EnsureIndex: mutations may
/// reallocate the underlying arrays or materialize a kind sidecar.
/// Executors therefore re-borrow at plan/batch-build time each round, never
/// across rounds.
///
/// ## Threading contract (single writer / multiple readers)
///
/// At most one thread may mutate a Relation, and while it does, no other
/// thread may touch the relation at all. The writer need not be the same
/// thread every time: the parallel evaluator hands each relation's staged
/// runs to one pool task per round, which is fine — distinct relations may
/// be mutated by distinct threads concurrently, as long as each relation
/// has exactly one writer and no concurrent readers of that relation.
/// InsertRuns with a parallel loop is still one writer: its helper tasks
/// only read the relation (and their own scratch) while they decide, and
/// the calling thread alone appends. Between mutations — e.g. while a
/// fixpoint round fans out across the pool — any number of threads may
/// concurrently call the const accessors (size, Contains, Column,
/// ColumnSlice, ValueAt) plus EnsureIndex, which serializes index
/// construction internally. Two
/// exceptions are NOT safe to call concurrently even though they are
/// const, because they fold lazily-materialized caches without locking:
/// GetIndex (the historical single-threaded index entry point) and rows()
/// (the row-compatibility view, which materializes boxed tuples on
/// demand). Both must only run while the caller holds the relation
/// single-threadedly; the hot engine paths use EnsureIndex and
/// ColumnView instead.
class Relation {
 public:
  /// Zero-copy read-only view of a contiguous slice of one stored column.
  /// `at(i)` re-boxes the i-th value of the slice. Invalidated by the next
  /// mutation of the owning relation (see the borrowing contract above).
  class ColumnView {
   public:
    ColumnView() = default;

    size_t size() const { return size_; }

    Value at(size_t i) const {
      return Value::FromRaw(
          kinds_ != nullptr ? static_cast<ValueType>(kinds_[i]) : kind_,
          words_[i]);
    }

    /// Raw unboxed payload words of the slice (64-bit, floats bit-cast).
    const int64_t* words() const { return words_; }
    /// Per-row kind tags, or nullptr when the column is uniformly `kind()`.
    const uint8_t* kinds() const { return kinds_; }
    /// The shared ValueType when kinds() == nullptr.
    ValueType kind() const { return kind_; }
    /// True when every value in the slice is a kNumber with no kind
    /// sidecar — the unboxed fast-path shape.
    bool uniform_number() const {
      return kinds_ == nullptr && kind_ == ValueType::kNumber;
    }

   private:
    friend class Relation;
    const int64_t* words_ = nullptr;
    const uint8_t* kinds_ = nullptr;
    ValueType kind_ = ValueType::kNull;
    size_t size_ = 0;
  };

  Relation() = default;
  explicit Relation(RelationSchema schema) : schema_(std::move(schema)) {
    columns_.resize(schema_.arity());
  }

  /// Clears all rows and replaces the schema (and column layout). For
  /// callers that materialize derived relations into a shared Database
  /// and reuse a name across programs whose declarations differ: a bare
  /// Clear() keeps the old schema, so arity()-driven readers (column
  /// borrowing) would see a stale width once the new program inserts.
  void ResetSchema(RelationSchema schema) {
    Clear();
    schema_ = std::move(schema);
    columns_.assign(schema_.arity(), ValueColumn());
  }

  const RelationSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name; }
  size_t arity() const { return schema_.arity(); }
  size_t size() const { return row_count_; }
  bool empty() const { return row_count_ == 0; }

  /// Inserts `t` if not already present. Returns true if the tuple is new,
  /// or an error Status (relation unmodified) at the 2^32-1 row-index
  /// ceiling — the same contract as the batch paths. Callers that ignore
  /// the result (test fixtures, tiny loaders) lose only the overflow
  /// signal, never correctness of the rows that did fit.
  Result<bool> Insert(Tuple t);

  /// Bulk insert: appends every tuple of `batch` not already present (in
  /// the relation or earlier in the batch), preserving batch order — the
  /// first occurrence of a duplicate wins, exactly as a per-tuple Insert
  /// loop would decide. Reserves the columns and the dedup table once for
  /// the whole batch and folds the new row suffix into every cached index
  /// in a single pass per index. Returns the number of tuples actually
  /// inserted, or an error (with the relation unmodified) if the batch
  /// could overflow the 32-bit row-index space: the check is conservative
  /// — it counts the whole batch before deduplication.
  Result<size_t> InsertBatch(std::vector<Tuple> batch);

  /// In-place variant: consumes the tuples but leaves `*batch` cleared
  /// with its capacity intact, so callers staging through recycled
  /// buffers (the engine's pooled EmitBuffers) keep their allocation
  /// across rounds. On error the relation AND the batch are unmodified.
  Result<size_t> InsertBatchInPlace(std::vector<Tuple>* batch);

  /// Columnar bulk insert: `(*cols)[c][i]` is row i of column c, and
  /// cols->size() must equal the relation arity (each column the same
  /// length). Dedup decisions and insertion order are bit-identical to
  /// feeding the same rows through InsertBatch. Consumes the values and
  /// leaves every staged column cleared with capacity intact. The
  /// one-run, serial case of InsertRuns.
  Result<size_t> InsertColumns(std::vector<std::vector<Value>>* cols);

  /// The phases of one InsertRuns call, reported in order to an optional
  /// observer (the engines open one trace span per phase). The serial
  /// path appends as it probes, so it reports kProbe then kIndexFold.
  enum class MergePhase { kProbe, kAppend, kIndexFold };
  using MergePhaseFn = std::function<void(MergePhase)>;

  /// Multi-run columnar insert: the runs (each shaped like InsertColumns'
  /// `cols`, all of the relation's arity), taken in order, are one batch.
  /// Dedup decisions, insertion order and the returned admitted count are
  /// bit-identical to InsertColumns on their concatenation — which is
  /// never built. This is the native merge of the columnar producers: the
  /// Datalog engine's per-task staged runs, the SQL vectorized engine's
  /// per-chunk projections, and the graph column-batch DISTINCT.
  ///
  /// With `parallel_for` (and a batch big enough to pay for it) the merge
  /// runs the hash-partitioned kernel of storage/merge.h: every candidate
  /// is hashed once and bucketed into shards by the high bits of its
  /// hash, keeping global order; each shard decides in parallel which of
  /// its candidates are new (a read-only probe of the dedup table plus a
  /// first-occurrence table local to the shard); the winners are then
  /// appended in global order. `scratch`, when given, holds the kernel's
  /// partition arrays and keeps them for the caller's next merge (the
  /// engines recycle one through their execution context; without it the
  /// kernel allocates its own). Without `parallel_for`, the runs are
  /// probed and appended serially, row by row. The 2-column all-kNumber
  /// shape hashes and compares raw words on both paths. Consumes the
  /// values (columns cleared, capacity kept). On error — the
  /// "storage.insert_columns" failpoint, or the row-index ceiling, checked
  /// against the candidate count — the relation and the runs are
  /// unmodified.
  Result<size_t> InsertRuns(const std::vector<StagedRun*>& runs,
                            const ParallelForFn& parallel_for = nullptr,
                            const MergePhaseFn& on_phase = nullptr,
                            ShardedRuns* scratch = nullptr);

  /// Deletes every tuple of `batch` that is currently present and returns
  /// the number of rows actually erased (absent tuples and wrong-arity
  /// tuples are ignored; duplicates in the batch erase once).
  ///
  /// ## Deletion contract
  ///
  /// Deletion is a full mutation: surviving rows are compacted in place
  /// and KEEP their relative insertion order, but their row indices
  /// shift, so every cached KeyIndex, the rows() compatibility cache, and
  /// all borrowed ColumnViews are invalidated — exactly as if the
  /// relation had been rebuilt by re-inserting the survivors. Callers
  /// holding a KeyIndex pointer from EnsureIndex/GetIndex or a ColumnView
  /// across an EraseBatch must re-acquire them. The dedup table is
  /// maintained tombstone-aware during the batch (an erased slot keeps
  /// its probe chain intact so later candidates in the same batch still
  /// find their rows) and rebuilt from the survivors afterwards, so a
  /// delete-then-re-insert of the same tuple behaves exactly like a
  /// first-time insert. Single-writer rules apply (threading contract
  /// above). Never fails today; returns Result for symmetry with the
  /// insert paths and for fault injection ("storage.erase_batch").
  Result<size_t> EraseBatch(const std::vector<Tuple>& batch);

  /// Deletes every row r with dead[r] != 0 (`dead` has size() entries)
  /// and returns the number erased: the order-preserving compaction behind
  /// EraseBatch, for callers that already know which rows go by position
  /// (the Datalog engine's lattice compaction), so no tuple is boxed to
  /// name them. Same deletion contract as EraseBatch.
  size_t EraseRows(const std::vector<uint8_t>& dead);

  /// Materializes all rows, moves them out, and leaves the relation empty
  /// (schema kept, as after Clear()). For callers that use a scratch
  /// Relation purely as a batch deduplicator — insert, then take the
  /// surviving rows.
  std::vector<Tuple> ReleaseRows();

  /// Columnar analogue of ReleaseRows: moves the surviving values out as
  /// one boxed vector per column and leaves the relation empty.
  std::vector<std::vector<Value>> ReleaseColumns();

  bool Contains(const Tuple& t) const { return RowOf(t) != kNoRow; }

  /// Row index of `t`, or kNoRow when absent.
  static constexpr size_t kNoRow = static_cast<size_t>(-1);
  size_t RowOf(const Tuple& t) const;

  /// Row-compatibility view: boxed tuples in insertion order, materialized
  /// lazily from the columns and cached (indices stable across inserts).
  /// NOT safe to call concurrently with itself or any other access (it
  /// folds the cache without locking — see the threading contract);
  /// serial-only consumers (the tuple pipeline, loaders, result assembly,
  /// tests) use it freely, hot paths borrow ColumnViews instead.
  const std::vector<Tuple>& rows() const;

  /// Fresh boxed copies of rows [begin, size()), bypassing (and not
  /// populating) the rows() cache. Safe under the multi-reader phase.
  std::vector<Tuple> MaterializeRows(size_t begin = 0) const;

  /// Zero-copy view of column `col` (all rows). Returns an empty view for
  /// out-of-range columns. See the borrowing contract above.
  ColumnView Column(size_t col) const { return ColumnSlice(col, 0, row_count_); }

  /// Zero-copy view of rows [begin, end) of column `col`.
  ColumnView ColumnSlice(size_t col, size_t begin, size_t end) const;

  /// Boxes the single value at (row, col).
  Value ValueAt(size_t row, size_t col) const {
    return columns_[col].Get(row);
  }

  /// Removes every row and cached index. Column capacity is kept for the
  /// next fill, and so is the dedup table unless it is oversized for the
  /// rows it held.
  void Clear();

  /// Builds (or returns a cached) hash index mapping the projection of each
  /// row onto `key_columns` to the list of row indices with that key.
  /// Indexes are maintained incrementally: rows inserted after the index was
  /// built are folded in on the next GetIndex call (or eagerly, once per
  /// batch, by the batch inserters), so interleaving inserts and probes
  /// (semi-naive evaluation) stays linear.
  /// Row-index lists within one key are in ascending (insertion) order —
  /// the semi-naive evaluator's deterministic merge relies on this.
  using KeyIndex = std::unordered_map<Tuple, std::vector<uint32_t>, TupleHash>;
  const KeyIndex& GetIndex(const std::vector<int>& key_columns) const;

  /// Thread-safe variant of GetIndex for the single-writer/multi-reader
  /// phase: brings the index for `key_columns` up to date with the current
  /// rows under an internal lock and returns a pointer to it. The pointee
  /// is stable (never moved by other cache entries being built) and safe
  /// to probe lock-free for as long as the relation is not mutated. The
  /// engine calls this once per plan step at plan-build time, so the inner
  /// join loops pay neither the lock nor the cache lookup.
  const KeyIndex* EnsureIndex(const std::vector<int>& key_columns) const;

  /// Bytes of heap held by the column arrays, kind sidecars, dedup table,
  /// and (estimated) the row-compatibility cache if it has been
  /// materialized. Cached KeyIndexes are not counted (node-based
  /// unordered_map sizing is opaque). Drives the bytes_per_tuple bench
  /// counter.
  size_t MemoryBytes() const;

  /// Testing hook: lowers the row-count ceiling (default 2^32-2) so the
  /// overflow Status path is exercisable without inserting 4 billion rows.
  void SetRowLimitForTesting(size_t limit) { row_limit_ = limit; }

  std::string ToString(const SymbolTable* symbols = nullptr) const;

 private:
  // One stored column: unboxed payload words plus a lazy kind sidecar
  // (empty while every value shares kind_).
  class ValueColumn {
   public:
    size_t size() const { return words_.size(); }

    Value Get(size_t i) const {
      return Value::FromRaw(
          kinds_.empty() ? kind_ : static_cast<ValueType>(kinds_[i]),
          words_[i]);
    }

    void Append(const Value& v) {
      if (words_.empty()) {
        kind_ = v.kind();
      } else if (kinds_.empty() && v.kind() != kind_) {
        // First mixed-kind append: materialize the sidecar for the
        // existing uniform prefix.
        kinds_.assign(words_.size(), static_cast<uint8_t>(kind_));
      }
      if (!kinds_.empty()) kinds_.push_back(static_cast<uint8_t>(v.kind()));
      words_.push_back(v.RawBits());
    }

    // Unboxed append. Precondition: the column is empty or uniformly of
    // kind `k` (no sidecar).
    void AppendUniform(ValueType k, int64_t word) {
      if (words_.empty()) kind_ = k;
      words_.push_back(word);
    }

    void Reserve(size_t n) {
      words_.reserve(n);
      if (!kinds_.empty()) kinds_.reserve(n);
    }

    void Clear() {
      words_.clear();
      kinds_.clear();
      kind_ = ValueType::kNull;
    }

    // Compacts away every row r with dead[r] != 0, preserving survivor
    // order. The kind sidecar (if materialized) is compacted in lockstep;
    // it is not de-materialized even if the survivors happen to be
    // uniform again.
    void EraseRows(const std::vector<uint8_t>& dead) {
      size_t w = 0;
      for (size_t r = 0; r < words_.size(); ++r) {
        if (dead[r] != 0) continue;
        words_[w] = words_[r];
        if (!kinds_.empty()) kinds_[w] = kinds_[r];
        ++w;
      }
      words_.resize(w);
      if (!kinds_.empty()) kinds_.resize(w);
    }

    bool uniform() const { return kinds_.empty(); }
    ValueType uniform_kind() const { return kind_; }
    size_t capacity() const { return words_.capacity(); }
    const int64_t* word_data() const { return words_.data(); }
    const uint8_t* kind_data() const {
      return kinds_.empty() ? nullptr : kinds_.data();
    }
    size_t MemoryBytes() const {
      return words_.capacity() * sizeof(int64_t) + kinds_.capacity();
    }

   private:
    std::vector<int64_t> words_;
    std::vector<uint8_t> kinds_;  // empty while uniform
    ValueType kind_ = ValueType::kNull;
  };

  // The dedup structure stores row indices rather than tuple copies:
  // values are stored exactly once (in the columns) and inserting never
  // copies a tuple. It is a flat open-addressing table of
  // (hash, row-index) slots with linear probing — the semi-naive engine
  // probes it once per derived tuple, and a duplicate check costs one
  // cache line of slot metadata plus (only on a hash match) one
  // column-wise row comparison. Rehashing re-seats the cached hashes
  // without touching any value (ReserveHashSlots). A slot's index is a
  // row index.
  static constexpr uint32_t kEmptySlot = HashSlot::kEmpty;

  // Probes for a candidate row of `cand_arity` values (with precomputed
  // hash mix `h32`) whose column-c value is `cand(c)`. Returns the
  // matching row index, or kEmptySlot if absent — in which case *slot_out
  // is the insertion position (valid until the table grows).
  // The table must be non-empty.
  template <typename RowFn>
  uint32_t DedupProbe(size_t cand_arity, RowFn&& cand, uint32_t h32,
                      size_t* slot_out) const {
    size_t mask = dedup_slots_.size() - 1;  // size is a power of two
    size_t pos = h32 & mask;
    while (true) {
      const HashSlot& slot = dedup_slots_[pos];
      if (slot.index == kEmptySlot) {
        if (slot_out != nullptr) *slot_out = pos;
        return kEmptySlot;
      }
      if (slot.hash == h32 && RowEquals(slot.index, cand_arity, cand)) {
        return slot.index;
      }
      pos = (pos + 1) & mask;
    }
  }

  template <typename RowFn>
  bool RowEquals(uint32_t row, size_t cand_arity, RowFn&& cand) const {
    if (cand_arity != columns_.size()) return false;
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (!(columns_[c].Get(row) == cand(c))) return false;
    }
    return true;
  }

  // Fails (relation untouched) if `extra` more rows could pass the
  // 32-bit row-index ceiling or the injected test limit.
  Status CheckRoom(size_t extra) const;

  // DedupProbe for an arity-2 all-kNumber row given its raw words.
  uint32_t PairProbe(int64_t a, int64_t b, uint32_t h32,
                     size_t* slot_out) const;

  // True when a batch whose values are all kNumber may take the unboxed
  // arity-2 path: both columns uniform, and kNumber unless still empty.
  bool PairColumnsReady() const;

  // Sizes columns_ for tuples of the given arity (first insert on a
  // schema-less relation) and reserves room for `want` rows total.
  void PrepareColumns(size_t arity, size_t want);

  // Appends one boxed row across the columns.
  void AppendRow(const Tuple& t);

  // The two InsertRuns paths (see there); both return tuples admitted.
  // `pair` selects the unboxed arity-2 all-kNumber row handling.
  size_t InsertRunsSerial(const std::vector<StagedRun*>& runs, size_t arity,
                          bool pair);
  size_t InsertRunsSharded(const std::vector<StagedRun*>& runs, size_t arity,
                           bool pair, const ParallelForFn& parallel_for,
                           const MergePhaseFn& on_phase,
                           ShardedRuns* sharded);

  struct CachedIndex {
    std::vector<int> key_columns;
    KeyIndex index;
    size_t rows_indexed = 0;  // watermark into the row index space
  };

  const KeyIndex& FoldIndex(const std::vector<int>& key_columns) const;
  // Folds rows [cached->rows_indexed, row_count_) into `cached`.
  void FoldSuffix(CachedIndex* cached) const;
  // Folds every cached index up to row_count_ (once per batch insert).
  void FoldAllIndexes();

  RelationSchema schema_;
  size_t row_count_ = 0;
  std::vector<ValueColumn> columns_;  // one per schema column
  std::vector<HashSlot> dedup_slots_;  // size is a power of two (or 0)
  size_t row_limit_ = static_cast<size_t>(kEmptySlot) - 1;
  // Lazily-materialized boxed view backing rows(). rows_cached_ is the
  // watermark of materialized rows. Mutable: a logically-const
  // compatibility cache, folded without locking (serial contexts only).
  mutable std::vector<Tuple> row_cache_;
  mutable size_t rows_cached_ = 0;
  // Cache key: comma-joined column list. Mutable: index construction is a
  // logically-const acceleration structure. Guarded by index_mutex_ only
  // on the EnsureIndex path; see the class-level threading contract.
  mutable std::unordered_map<std::string, CachedIndex> index_cache_;
  mutable std::mutex index_mutex_;
};

}  // namespace raqlet

#endif  // RAQLET_STORAGE_RELATION_H_
