#ifndef RAQLET_STORAGE_MERGE_H_
#define RAQLET_STORAGE_MERGE_H_

// The hash-partitioned merge kernel shared by Relation::InsertRuns and the
// Datalog engine's lattice pass.
//
// A merge takes staged runs — the per-task outputs of one fan-out, in task
// order — and must decide, for every candidate row, whether it is new,
// exactly as one serial pass over the runs in order would. ShardedRuns
// makes that decision parallel without changing it: every candidate is
// hashed once and bucketed into a shard by the top bits of its hash, and
// each shard lists its candidates in ascending global (run, row) order.
// Equal rows share a hash, hence a shard, so a pass that walks one shard
// in order sees every earlier occurrence of each of its rows before the
// row itself. Deciding shard by shard, in any interleaving across
// threads, therefore reproduces the serial decisions bit for bit, and the
// winners are then appended in global order. The shard count is fixed,
// so nothing here depends on the number of threads.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/value.h"

namespace raqlet {

/// One staged columnar run: (*run)[c][i] is row i of column c. A run with
/// no columns, or empty columns, holds no rows.
using StagedRun = std::vector<std::vector<Value>>;

inline size_t StagedRows(const StagedRun& run) {
  return run.empty() ? 0 : run[0].size();
}

/// A blocking data-parallel loop: calls body(i) once for every i in
/// [0, count) and returns when every call finished. The engines pass their
/// thread pool's ParallelFor, so storage does not depend on the runtime.
using ParallelForFn = std::function<void(
    size_t count, const std::function<void(size_t)>& body)>;

/// body(i) for every i in [0, count): through `parallel_for` when given,
/// else inline on the calling thread.
void ForEachIndex(const ParallelForFn& parallel_for, size_t count,
                  const std::function<void(size_t)>& body);

/// Mixes a 64-bit tuple hash and folds it into the 32 bits the
/// open-addressing tables store per slot and index by: low bits pick the
/// slot, high bits the merge shard.
inline uint32_t FoldHash(uint64_t h) {
  h = HashMix(h);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

/// Hints that `p` will be read soon (a no-op where unsupported).
inline void Prefetch(const void* p) {
#if defined(__GNUC__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

/// One slot of an open-addressing table keyed by a cached 32-bit hash:
/// Relation's dedup table, the lattice tables and the kernel's
/// first-occurrence tables all store (hash, index) pairs with linear
/// probing over a power-of-two slot array.
struct HashSlot {
  static constexpr uint32_t kEmpty = 0xffffffffu;
  uint32_t hash = 0;
  uint32_t index = kEmpty;
};

/// Grows `slots` (empty, or a power-of-two table) so that `want` entries
/// fit at a load factor of at most 1/2, re-seating the entries by their
/// cached hashes without touching any key. Returns true iff it grew. At
/// 7/8 the expected probe chain for a miss is ~32 slots; at 1/2 it is
/// ~2.5, and a slot is only 8 bytes.
bool ReserveHashSlots(std::vector<HashSlot>* slots, size_t want);

/// The first empty slot on `h32`'s probe chain (the table must have one).
inline size_t EmptyHashSlot(const std::vector<HashSlot>& slots,
                            uint32_t h32) {
  const size_t mask = slots.size() - 1;
  size_t p = h32 & mask;
  while (slots[p].index != HashSlot::kEmpty) p = (p + 1) & mask;
  return p;
}

/// The rows of a sequence of staged runs, numbered by global position (run
/// order, then row order), each hashed once and grouped into kShards
/// shards by the top bits of its 32-bit hash. Each shard lists its
/// positions in ascending order. A pass over the shards records the
/// positions it keeps in each shard's `picked` list; Picked() then flags
/// them by position for the in-order append or Compact.
///
/// Meant to be kept and rebuilt merge after merge: every array keeps its
/// capacity, so a steady fixpoint allocates (and page-faults) nothing new.
class ShardedRuns {
 public:
  static constexpr int kShardBits = 6;
  static constexpr size_t kShards = size_t{1} << kShardBits;
  /// Merges of fewer candidates stay serial even when a parallel loop is
  /// offered: sharding costs a few passes over the batch plus three
  /// dispatches, which only pays once the probes dominate.
  static constexpr size_t kMinRows = 8192;

  static size_t ShardOf(uint32_t h32) { return h32 >> (32 - kShardBits); }

  /// Per-shard scratch, written only by the task that owns the shard.
  /// Cache-line aligned so neighbouring shards' vector headers never
  /// share a line.
  struct alignas(64) Shard {
    std::vector<uint32_t> picked;  // positions kept by the pass, ascending
    std::vector<HashSlot> seen;    // free for a first-occurrence table
  };

  ShardedRuns() : shards_(kShards) {}

  /// Hashes and partitions `runs`: `hash(run, row)` returns the 32-bit
  /// hash of row `row` of `run`. The total row count must stay below
  /// 2^32 - 1. Clears every shard's `picked`.
  template <typename HashFn>
  void Build(const std::vector<StagedRun*>& runs, HashFn&& hash,
             const ParallelForFn& parallel_for) {
    IndexRuns(runs);
    hashes_.resize(size());
    counts_.assign(chunks() * kShards, 0);
    ForEachIndex(parallel_for, chunks(), [&](size_t k) {
      const size_t begin = k * kChunkRows;
      const size_t end = std::min(size(), begin + kChunkRows);
      uint32_t* counts = counts_.data() + k * kShards;
      size_t r = RunOf(begin);
      for (size_t pos = begin; pos < end; ++pos) {
        while (pos >= starts_[r + 1]) ++r;
        const uint32_t h = hash(*runs[r], pos - starts_[r]);
        hashes_[pos] = h;
        ++counts[ShardOf(h)];
      }
    });
    Partition(parallel_for);
  }

  /// Total rows over all runs.
  size_t size() const { return starts_.back(); }
  uint32_t hash(size_t pos) const { return hashes_[pos]; }
  /// Shard s's positions, ascending.
  std::span<const uint32_t> positions(size_t s) const {
    return {order_.data() + shard_begin_[s],
            order_.data() + shard_begin_[s + 1]};
  }
  Shard& shard(size_t s) { return shards_[s]; }
  /// The run holding global position `pos`, and that run's first position.
  size_t RunOf(size_t pos) const {
    return static_cast<size_t>(
               std::upper_bound(starts_.begin(), starts_.end(), pos) -
               starts_.begin()) -
           1;
  }
  size_t RunStart(size_t run) const { return starts_[run]; }

  /// Flags every picked position (flags[pos] = 1, others 0) and returns
  /// how many there are.
  size_t Picked();
  const std::vector<uint8_t>& picked_flags() const { return flags_; }

  /// Drops, from every run, each row that is not picked; survivors keep
  /// their order. Runs compact in parallel. Requires Picked().
  void Compact(const std::vector<StagedRun*>& runs,
               const ParallelForFn& parallel_for) const;

 private:
  // Rows hashed (and counted) per task: big enough to amortize dispatch,
  // small enough to balance over a handful of threads.
  static constexpr size_t kChunkRows = 16384;

  size_t chunks() const { return (size() + kChunkRows - 1) / kChunkRows; }
  void IndexRuns(const std::vector<StagedRun*>& runs);
  // Prefix-sums counts_ (shard-major, chunk order within a shard) and
  // scatters every position into order_.
  void Partition(const ParallelForFn& parallel_for);

  std::vector<size_t> starts_;       // run r covers [starts_[r], starts_[r+1])
  std::vector<uint32_t> hashes_;     // by global position
  std::vector<uint32_t> counts_;     // [chunk * kShards + shard]
  std::vector<size_t> cursor_;       // scatter cursors, same layout
  std::vector<size_t> shard_begin_;  // kShards + 1 offsets into order_
  std::vector<uint32_t> order_;      // positions, shard-major
  std::vector<uint8_t> flags_;       // by global position, after Picked()
  std::vector<Shard> shards_;
};

}  // namespace raqlet

#endif  // RAQLET_STORAGE_MERGE_H_
