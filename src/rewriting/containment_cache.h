// A sized, sharded, thread-safe memoization table for pairwise
// rewritability decisions over one universe's view ids.
//
// The seed memoized {v} ⪯ {w} results in an ad-hoc unordered_map private to
// RewritingOrder, so GlbLabeler, DisclosureLattice, and the analyses each
// re-derived the same pairs when they held different order objects, and
// the map grew without bound. ContainmentCache replaces it with a
// transposition-table design shared across all consumers of a universe:
//
//   * fixed capacity (power of two), zero allocation after construction;
//   * direct-mapped: a colliding insert evicts the previous occupant, so
//     memory stays bounded under adversarial workloads while the repeated-
//     structure common case (§7.2) stays ~100% hit;
//   * exact keys: the full (a, b) pair is stored and compared, so distinct
//     pairs never alias — including negative or INT_MAX ids (the seed's
//     LeqPair key had no such guard; see containment_cache_test.cc).
//
// Sharing contract: the table is split into mutex-striped shards selected
// by key hash, so one instance is safe for any number of concurrent
// callers. Lookup and Insert each hold exactly one shard mutex for the
// probe or store, and never while computing a decision (a racing pair may
// both compute the same value; both inserts store the identical decision,
// so the race is benign). A Lookup counts as a reader-side lock
// acquisition (common/locks.h). No served request probes the cache: the
// engine owns none, and its users are the order/lattice tooling through
// order::RewritingOrder.
//
// stats() sums the per-shard counters (relaxed atomics) and may interleave
// with updates, so it is a consistent-enough snapshot for observability,
// not an exact linearizable count. Clear() locks the shards one at a time.
// Decisions cached here must be pure functions of the id pair, and one
// cache serves one id space (one universe).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>

namespace fdc::rewriting {

class ContainmentCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
  };

  /// `capacity` (total, across shards) is rounded up to a power of two;
  /// default fits ~64K pair decisions in ~1 MB. `shards` is rounded to a
  /// power of two too; the default is plenty of stripes for any realistic
  /// serving-thread count.
  explicit ContainmentCache(size_t capacity = 1 << 16, size_t shards = 64);

  /// Cached decision for (a, b), or nullopt on miss.
  std::optional<bool> Lookup(int a, int b);

  /// Records a decision, evicting any colliding entry.
  void Insert(int a, int b, bool value);

  /// Per-shard counters summed; see the header comment for the (weak)
  /// consistency of this snapshot under concurrency.
  Stats stats() const;

  size_t capacity() const { return num_shards_ * slots_per_shard_; }
  size_t num_shards() const { return num_shards_; }
  void Clear();

 private:
  // Guarded by the owning shard's mutex.
  struct Entry {
    uint64_t key = 0;     // (a << 32) | b, both cast via uint32_t
    bool used = false;    // false = empty slot
    bool value = false;   // decision
  };

  struct Shard {
    std::mutex mu;
    std::unique_ptr<Entry[]> entries;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> insertions{0};
    std::atomic<uint64_t> evictions{0};
  };

  // Injective over all (int, int) pairs: int -> uint32_t is a bijection.
  static uint64_t MakeKey(int a, int b) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
           static_cast<uint32_t>(b);
  }
  static uint64_t HashFor(uint64_t key);
  Shard& ShardFor(uint64_t hash) {
    return shards_[(hash >> 32) & (num_shards_ - 1)];
  }
  size_t SlotFor(uint64_t hash) const {
    return static_cast<size_t>(hash) & (slots_per_shard_ - 1);
  }

  size_t num_shards_;
  size_t slots_per_shard_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace fdc::rewriting
