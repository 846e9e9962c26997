#include "rewriting/containment_cache.h"

#include <algorithm>
#include <bit>

#include "common/locks.h"

namespace fdc::rewriting {

ContainmentCache::ContainmentCache(size_t capacity, size_t shards) {
  if (shards < 1) shards = 1;
  num_shards_ = std::bit_ceil(shards);
  if (capacity < 2 * num_shards_) capacity = 2 * num_shards_;
  slots_per_shard_ = std::bit_ceil(capacity) / num_shards_;
  shards_ = std::make_unique<Shard[]>(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    shards_[s].entries = std::make_unique<Entry[]>(slots_per_shard_);
  }
}

uint64_t ContainmentCache::HashFor(uint64_t key) {
  // splitmix64 finalizer over the key; the full key is still compared on
  // lookup, so this only affects distribution, not correctness. High bits
  // pick the shard, low bits the slot within it.
  uint64_t h = key + 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

std::optional<bool> ContainmentCache::Lookup(int a, int b) {
  const uint64_t key = MakeKey(a, b);
  const uint64_t hash = HashFor(key);
  Shard& shard = ShardFor(hash);
  locks::CountReaderLockAcquisition();
  std::lock_guard<std::mutex> lock(shard.mu);
  const Entry& entry = shard.entries[SlotFor(hash)];
  if (entry.used && entry.key == key) {
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    return entry.value;
  }
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void ContainmentCache::Insert(int a, int b, bool value) {
  const uint64_t key = MakeKey(a, b);
  const uint64_t hash = HashFor(key);
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  Entry& entry = shard.entries[SlotFor(hash)];
  if (entry.used && entry.key != key) {
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
  }
  entry = Entry{key, true, value};
  shard.insertions.fetch_add(1, std::memory_order_relaxed);
}

ContainmentCache::Stats ContainmentCache::stats() const {
  Stats total;
  for (size_t s = 0; s < num_shards_; ++s) {
    const Shard& shard = shards_[s];
    total.hits += shard.hits.load(std::memory_order_relaxed);
    total.misses += shard.misses.load(std::memory_order_relaxed);
    total.insertions += shard.insertions.load(std::memory_order_relaxed);
    total.evictions += shard.evictions.load(std::memory_order_relaxed);
  }
  return total;
}

void ContainmentCache::Clear() {
  for (size_t s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    std::fill_n(shard.entries.get(), slots_per_shard_, Entry{});
    shard.hits.store(0, std::memory_order_relaxed);
    shard.misses.store(0, std::memory_order_relaxed);
    shard.insertions.store(0, std::memory_order_relaxed);
    shard.evictions.store(0, std::memory_order_relaxed);
  }
}

}  // namespace fdc::rewriting
