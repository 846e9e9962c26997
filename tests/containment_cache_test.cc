#include "rewriting/containment_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cstdint>
#include <thread>

#include "order/rewriting_order.h"
#include "order/universe.h"
#include "test_util.h"

namespace fdc::rewriting {
namespace {

TEST(ContainmentCacheTest, LookupMissThenHit) {
  ContainmentCache cache(64);
  EXPECT_FALSE(cache.Lookup(1, 2).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  cache.Insert(1, 2, true);
  auto hit = cache.Lookup(1, 2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(*hit);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ContainmentCacheTest, CapacityIsBoundedAndEvictionsCounted) {
  // Single shard so the total capacity is exactly the requested 8 slots.
  ContainmentCache cache(8, /*shards=*/1);
  EXPECT_EQ(cache.capacity(), 8u);
  for (int i = 0; i < 1000; ++i) {
    cache.Insert(i, i + 1, (i % 2) == 0);
  }
  EXPECT_EQ(cache.stats().insertions, 1000u);
  // 1000 inserts into 8 slots must evict; the table itself never grows.
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.capacity(), 8u);
  // Whatever survives must be the value that was inserted for its key.
  int survivors = 0;
  for (int i = 0; i < 1000; ++i) {
    auto cached = cache.Lookup(i, i + 1);
    if (cached.has_value()) {
      ++survivors;
      EXPECT_EQ(*cached, (i % 2) == 0) << "wrong value for evictable key " << i;
    }
  }
  EXPECT_GT(survivors, 0);
  EXPECT_LE(survivors, 8);
}

// Regression for the seed's RewritingOrder::LeqPair key scheme: two signed
// ints were packed via static_cast<uint32_t> with no guard. The cache must
// keep adversarial id pairs — negative, INT_MAX/INT_MIN, swapped — fully
// distinct.
TEST(ContainmentCacheTest, AdversarialIdPairsNeverAlias) {
  const std::vector<std::pair<int, int>> pairs = {
      {-1, 0},        {0, -1},          {-1, -1},       {1, 2},
      {2, 1},         {INT_MAX, 0},     {0, INT_MAX},   {INT_MIN, INT_MAX},
      {INT_MAX, INT_MIN}, {-42, 42},    {42, -42},      {INT_MIN, INT_MIN}};
  // Large capacity so distinct keys land in distinct slots with high
  // probability; correctness still must not depend on it (full keys are
  // compared), so also run with a tiny cache below.
  for (size_t capacity : {size_t{1} << 12, size_t{4}}) {
    ContainmentCache cache(capacity, /*shards=*/1);
    for (size_t i = 0; i < pairs.size(); ++i) {
      cache.Insert(pairs[i].first, pairs[i].second,
                   (i % 3) == 0);
    }
    for (size_t i = 0; i < pairs.size(); ++i) {
      auto cached = cache.Lookup(pairs[i].first,
                                 pairs[i].second);
      if (cached.has_value()) {
        // May have been evicted (tiny cache), but never the wrong answer.
        EXPECT_EQ(*cached, (i % 3) == 0)
            << "aliased pair (" << pairs[i].first << ", " << pairs[i].second
            << ")";
      }
    }
  }
}

TEST(ContainmentCacheTest, ClearResetsEntriesAndStats) {
  ContainmentCache cache(16);
  cache.Insert(1, 2, true);
  cache.Clear();
  EXPECT_FALSE(cache.Lookup(1, 2).has_value());
  EXPECT_EQ(cache.stats().insertions, 0u);
}

// Many threads hammering one small sharded cache: every Lookup hit must
// return the pure-function value for its key (never a torn entry), and the summed stats must balance. Run under TSan in CI.
TEST(ContainmentCacheTest, ConcurrentLookupInsertIsConsistent) {
  ContainmentCache cache(256, /*shards=*/4);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  std::vector<std::thread> threads;
  std::atomic<int> wrong{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &wrong, t] {
      uint64_t rng = 0x9e3779b97f4a7c15ULL * (t + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        const int a = static_cast<int>(rng % 64);
        const int b = static_cast<int>((rng >> 8) % 64);
        // The cached decision is a pure function of the pair: a < b.
        if (auto cached = cache.Lookup(a, b)) {
          if (*cached != (a < b)) wrong.fetch_add(1);
        } else {
          cache.Insert(a, b, a < b);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  const ContainmentCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  // Every miss is re-inserted, so one insert per miss.
  EXPECT_EQ(stats.insertions, stats.misses);
}

TEST(ContainmentCacheTest, RewritingOrderSharesOneCache) {
  cq::Schema schema = test::MakePaperSchema();
  order::Universe universe;
  universe.Add(test::P("V(x) :- Meetings(x, y)", schema));
  universe.Add(test::P("W(x, y) :- Meetings(x, y)", schema));
  ContainmentCache shared(256);
  order::RewritingOrder first(&universe, &shared);
  order::RewritingOrder second(&universe, &shared);
  EXPECT_TRUE(first.LeqPair(0, 1));
  const uint64_t hits_before = shared.stats().hits;
  // A different order object over the same universe reuses the decision.
  EXPECT_TRUE(second.LeqPair(0, 1));
  EXPECT_GT(shared.stats().hits, hits_before);
}

}  // namespace
}  // namespace fdc::rewriting
