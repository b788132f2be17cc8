#include "storage/merge.h"

namespace raqlet {

void ForEachIndex(const ParallelForFn& parallel_for, size_t count,
                  const std::function<void(size_t)>& body) {
  if (parallel_for != nullptr && count > 1) {
    parallel_for(count, body);
    return;
  }
  for (size_t i = 0; i < count; ++i) body(i);
}

bool ReserveHashSlots(std::vector<HashSlot>* slots, size_t want) {
  const size_t capacity = slots->size();
  if (capacity >= 16 && want * 2 <= capacity) return false;
  size_t new_capacity = capacity == 0 ? 16 : capacity;
  while (want * 2 > new_capacity) new_capacity *= 2;
  std::vector<HashSlot> old = std::move(*slots);
  slots->assign(new_capacity, HashSlot{});
  for (const HashSlot& slot : old) {
    if (slot.index != HashSlot::kEmpty) {
      (*slots)[EmptyHashSlot(*slots, slot.hash)] = slot;
    }
  }
  return true;
}

void ShardedRuns::IndexRuns(const std::vector<StagedRun*>& runs) {
  starts_.assign(1, 0);
  for (const StagedRun* run : runs) {
    starts_.push_back(starts_.back() + StagedRows(*run));
  }
  for (Shard& shard : shards_) shard.picked.clear();
}

void ShardedRuns::Partition(const ParallelForFn& parallel_for) {
  const size_t num_chunks = chunks();
  // Chunk k's first slot in shard s: shards are laid out one after the
  // other, and within a shard the chunks in order, so each shard's list
  // comes out ascending.
  cursor_.resize(num_chunks * kShards);
  shard_begin_.assign(kShards + 1, 0);
  size_t offset = 0;
  for (size_t s = 0; s < kShards; ++s) {
    shard_begin_[s] = offset;
    for (size_t k = 0; k < num_chunks; ++k) {
      cursor_[k * kShards + s] = offset;
      offset += counts_[k * kShards + s];
    }
  }
  shard_begin_[kShards] = offset;
  order_.resize(size());
  ForEachIndex(parallel_for, num_chunks, [&](size_t k) {
    const size_t begin = k * kChunkRows;
    const size_t end = std::min(size(), begin + kChunkRows);
    size_t* next = cursor_.data() + k * kShards;
    for (size_t pos = begin; pos < end; ++pos) {
      order_[next[ShardOf(hashes_[pos])]++] = static_cast<uint32_t>(pos);
    }
  });
}

size_t ShardedRuns::Picked() {
  flags_.assign(size(), 0);
  size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.picked.size();
    for (const uint32_t pos : shard.picked) flags_[pos] = 1;
  }
  return total;
}

void ShardedRuns::Compact(const std::vector<StagedRun*>& runs,
                          const ParallelForFn& parallel_for) const {
  ForEachIndex(parallel_for, runs.size(), [&](size_t r) {
    StagedRun& run = *runs[r];
    const size_t rows = StagedRows(run);
    const uint8_t* keep = flags_.data() + starts_[r];
    for (std::vector<Value>& col : run) {
      size_t kept = 0;
      for (size_t i = 0; i < rows; ++i) {
        if (keep[i] != 0) col[kept++] = col[i];
      }
      col.resize(kept);
    }
  });
}

}  // namespace raqlet
