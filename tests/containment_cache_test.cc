#include "rewriting/containment_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cstdint>
#include <thread>

#include "order/rewriting_order.h"
#include "order/universe.h"
#include "rewriting/containment.h"
#include "test_util.h"

namespace fdc::rewriting {
namespace {

using Kind = ContainmentCache::Kind;

TEST(ContainmentCacheTest, LookupMissThenHit) {
  ContainmentCache cache(64);
  EXPECT_FALSE(cache.Lookup(Kind::kUniverseRewritable, 1, 2).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  cache.Insert(Kind::kUniverseRewritable, 1, 2, true);
  auto hit = cache.Lookup(Kind::kUniverseRewritable, 1, 2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(*hit);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ContainmentCacheTest, KindsAreSeparateNamespaces) {
  ContainmentCache cache(64);
  cache.Insert(Kind::kUniverseRewritable, 7, 9, true);
  cache.Insert(Kind::kCatalogRewritable, 7, 9, false);
  // Direct-mapped slots may collide across kinds (the second insert can
  // evict the first), but a stored entry must never answer for the wrong
  // kind.
  auto catalog = cache.Lookup(Kind::kCatalogRewritable, 7, 9);
  ASSERT_TRUE(catalog.has_value());
  EXPECT_FALSE(*catalog);
  auto universe = cache.Lookup(Kind::kUniverseRewritable, 7, 9);
  if (universe.has_value()) EXPECT_TRUE(*universe);
}

TEST(ContainmentCacheTest, CapacityIsBoundedAndEvictionsCounted) {
  // Single shard so the total capacity is exactly the requested 8 slots.
  ContainmentCache cache(8, /*shards=*/1);
  EXPECT_EQ(cache.capacity(), 8u);
  for (int i = 0; i < 1000; ++i) {
    cache.Insert(Kind::kUniverseRewritable, i, i + 1, (i % 2) == 0);
  }
  EXPECT_EQ(cache.stats().insertions, 1000u);
  // 1000 inserts into 8 slots must evict; the table itself never grows.
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.capacity(), 8u);
  // Whatever survives must be the value that was inserted for its key.
  int survivors = 0;
  for (int i = 0; i < 1000; ++i) {
    auto cached = cache.Lookup(Kind::kUniverseRewritable, i, i + 1);
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
      cache.Insert(Kind::kUniverseRewritable, pairs[i].first, pairs[i].second,
                   (i % 3) == 0);
    }
    for (size_t i = 0; i < pairs.size(); ++i) {
      auto cached = cache.Lookup(Kind::kUniverseRewritable, pairs[i].first,
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
  cache.Insert(Kind::kUniverseRewritable, 1, 2, true);
  cache.Clear();
  EXPECT_FALSE(cache.Lookup(Kind::kUniverseRewritable, 1, 2).has_value());
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(ContainmentCacheTest, ContainedMatchesUncachedContainment) {
  cq::Schema schema = test::MakePaperSchema();
  cq::QueryInterner interner;
  ContainmentCache cache(256);
  const std::vector<cq::ConjunctiveQuery> queries = {
      test::Q("Q(x) :- Meetings(x, y)", schema),
      test::Q("Q(x) :- Meetings(x, 'Cathy')", schema),
      test::Q("Q(x) :- Meetings(x, y), Contacts(y, e, p)", schema),
      test::Q("Q(x) :- Meetings(x, x)", schema),
      test::Q("Q(x, y) :- Meetings(x, y)", schema),
  };
  for (const auto& a : queries) {
    for (const auto& b : queries) {
      const bool expected = IsContainedIn(a, b);
      const cq::InternedQuery* ia = interner.TryIntern(a, SIZE_MAX);
      const cq::InternedQuery* ib = interner.TryIntern(b, SIZE_MAX);
      ASSERT_NE(ia, nullptr);
      ASSERT_NE(ib, nullptr);
      EXPECT_EQ(cache.Contained(*ia, *ib), expected);
      // Second call must hit.
      const uint64_t hits_before = cache.stats().hits;
      EXPECT_EQ(cache.Contained(*ia, *ib), expected);
      EXPECT_GT(cache.stats().hits, hits_before);
    }
  }
}

TEST(ContainmentCacheTest, ForeignInternerBypassesCatalogCache) {
  cq::Schema schema = test::MakePaperSchema();
  const cq::AtomPattern scan = test::P("V(x, y) :- Meetings(x, y)", schema);
  const cq::AtomPattern times = test::P("V(x) :- Meetings(x, y)", schema);

  cq::QueryInterner bound, foreign;
  ContainmentCache cache(64);
  // Bind the cache to `bound`: its id 0 means `scan`, and the cached
  // decision for (0, view 0) is "scan not rewritable over times" = false.
  const int scan_id = bound.InternPattern(scan);
  EXPECT_FALSE(cache.RewritableCached(bound, scan_id, 0, scan, times));

  // In `foreign`, id 0 means `times` (trivially rewritable over itself).
  // The aliasing id must compute the right answer, not return the bound
  // entry's false.
  const int foreign_times_id = foreign.InternPattern(times);
  ASSERT_EQ(foreign_times_id, scan_id);
  EXPECT_TRUE(
      cache.RewritableCached(foreign, foreign_times_id, 0, times, times));
  // And the bound id space must not have been poisoned.
  EXPECT_FALSE(cache.RewritableCached(bound, scan_id, 0, scan, times));
}

// Many threads hammering one small sharded cache: every Lookup hit must
// return the pure-function value for its key (never a torn or cross-kind
// entry), and the summed stats must balance. Run under TSan in CI.
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
        if (auto cached = cache.Lookup(Kind::kUniverseRewritable, a, b)) {
          if (*cached != (a < b)) wrong.fetch_add(1);
        } else {
          cache.Insert(Kind::kUniverseRewritable, a, b, a < b);
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
