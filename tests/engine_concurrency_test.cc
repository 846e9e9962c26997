// Concurrency suite for the DisclosureEngine — designed to run clean under
// ThreadSanitizer (the CI tsan job runs exactly these tests).
//
//   * Stress: N threads × M principals with randomized interleavings; each
//     principal's decision sequence must be identical to a single-threaded
//     replay of the same per-principal query stream (per-principal state is
//     independent, so cross-principal interleaving must not matter).
//   * Epoch swap: concurrent policy updates must be atomic — every batch
//     decision vector matches one policy wholly; a half-updated policy
//     would produce a mixed vector.
#include "engine/disclosure_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/epoch.h"
#include "common/locks.h"
#include "common/rng.h"
#include "cq/canonical.h"
#include "engine/label_table.h"
#include "engine/principal_map.h"

#include "fb/fb_schema.h"
#include "fb/fb_views.h"
#include "label/pipeline.h"
#include "policy/reference_monitor.h"
#include "test_util.h"
#include "workload/policy_generator.h"
#include "workload/query_generator.h"

namespace fdc::engine {
namespace {

using test::FbFixture;
using test::RandomWorkload;

// N threads drive M principals each (disjoint principal sets, shared
// engine); the per-principal decision sequences must equal a fresh
// single-threaded replay.
TEST(EngineConcurrencyTest, StressMatchesSingleThreadedReplay) {
  FbFixture fb;
  constexpr int kThreads = 8;
  constexpr int kPrincipalsPerThread = 4;
  constexpr int kQueriesPerPrincipal = 120;

  policy::SecurityPolicy policy =
      workload::PolicyGenerator(&fb.catalog, {}, 0xabba01ULL).Next();

  // Per-principal query streams, drawn from a shared pool so labeling
  // contends on the same structures across threads.
  const auto pool = RandomWorkload(&fb.schema, 2, 512, 0x1234'5678ULL);
  const int total_principals = kThreads * kPrincipalsPerThread;
  std::vector<std::vector<int>> streams(total_principals);
  {
    Rng rng(0x5eedULL);
    for (auto& stream : streams) {
      stream.reserve(kQueriesPerPrincipal);
      for (int i = 0; i < kQueriesPerPrincipal; ++i) {
        stream.push_back(static_cast<int>(rng.Below(pool.size())));
      }
    }
  }
  auto name_of = [](int p) { return "principal-" + std::to_string(p); };

  DisclosureEngine engine(/*db=*/nullptr, &fb.catalog, policy);
  std::vector<std::vector<bool>> decisions(total_principals);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Randomized interleaving: each thread round-robins its principals
      // with a thread-specific skew, alternating Submit and SubmitBatch.
      Rng rng(0x77ULL * (t + 1));
      std::vector<int> cursor(kPrincipalsPerThread, 0);
      int remaining = kPrincipalsPerThread * kQueriesPerPrincipal;
      while (remaining > 0) {
        const int local = static_cast<int>(rng.Below(kPrincipalsPerThread));
        const int p = t * kPrincipalsPerThread + local;
        int& at = cursor[local];
        if (at >= kQueriesPerPrincipal) continue;
        if (rng.Chance(0.3)) {
          const int span = std::min(
              static_cast<int>(rng.Below(8)) + 1, kQueriesPerPrincipal - at);
          std::vector<cq::ConjunctiveQuery> batch;
          batch.reserve(span);
          for (int i = 0; i < span; ++i) {
            batch.push_back(pool[streams[p][at + i]]);
          }
          const std::vector<bool> out = engine.SubmitBatch(
              name_of(p), std::span(batch.data(), batch.size()));
          decisions[p].insert(decisions[p].end(), out.begin(), out.end());
          at += span;
          remaining -= span;
        } else {
          decisions[p].push_back(
              engine.Submit(name_of(p), pool[streams[p][at]]));
          ++at;
          --remaining;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Single-threaded replay on a fresh engine.
  DisclosureEngine replay(/*db=*/nullptr, &fb.catalog, policy);
  for (int p = 0; p < total_principals; ++p) {
    ASSERT_EQ(decisions[p].size(), static_cast<size_t>(kQueriesPerPrincipal));
    for (int i = 0; i < kQueriesPerPrincipal; ++i) {
      const bool expected = replay.Submit(name_of(p), pool[streams[p][i]]);
      ASSERT_EQ(decisions[p][i], expected)
          << "principal " << p << " diverged at query " << i;
    }
    EXPECT_EQ(engine.ConsistentPartitions(name_of(p)),
              replay.ConsistentPartitions(name_of(p)));
  }

  const DisclosureEngine::EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.submitted,
            static_cast<uint64_t>(total_principals) * kQueriesPerPrincipal);
  EXPECT_EQ(stats.num_principals, static_cast<size_t>(total_principals));
  EXPECT_EQ(stats.submitted, stats.accepted + stats.refused);
}

// Concurrent reads during concurrent policy swaps: every SubmitBatch on a
// fresh principal must match policy A's expected decisions or policy B's —
// never a mix, which is what a torn (half-updated) policy would produce.
TEST(EngineConcurrencyTest, EpochSwapIsAtomicUnderConcurrency) {
  cq::Schema schema = test::MakePaperSchema();
  label::ViewCatalog catalog(&schema);
  (void)catalog.AddViewText("meetings_full", "V(x, y) :- Meetings(x, y)");
  (void)catalog.AddViewText("contacts_full",
                            "V(x, y, z) :- Contacts(x, y, z)");
  const int meetings = catalog.FindByName("meetings_full")->id;
  const int contacts = catalog.FindByName("contacts_full")->id;
  auto policy_a =
      policy::SecurityPolicy::Compile(catalog, {{"m", {meetings}}});
  auto policy_b =
      policy::SecurityPolicy::Compile(catalog, {{"c", {contacts}}});
  ASSERT_TRUE(policy_a.ok());
  ASSERT_TRUE(policy_b.ok());

  const std::vector<cq::ConjunctiveQuery> probe = {
      test::Q("Q(x) :- Meetings(x, y)", schema),
      test::Q("Q(x) :- Contacts(x, e, p)", schema),
      test::Q("Q(x) :- Meetings(x, y)", schema),
  };
  // Expected whole-batch decisions under each policy (fresh principal):
  // A (meetings only): accept, refuse, accept. B: refuse, accept, refuse.
  const std::vector<bool> expect_a = {true, false, true};
  const std::vector<bool> expect_b = {false, true, false};

  DisclosureEngine engine(/*db=*/nullptr, &catalog, *policy_a);
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};

  std::thread swapper([&] {
    for (int i = 0; i < 400; ++i) {
      engine.UpdatePolicy((i % 2) == 0 ? *policy_b : *policy_a);
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      int serial = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Fresh principal per batch: decisions depend only on the policy
        // the batch's snapshot captured.
        const std::string name =
            "probe-" + std::to_string(t) + "-" + std::to_string(serial++);
        const std::vector<bool> out =
            engine.SubmitBatch(name, std::span(probe.data(), probe.size()));
        if (out != expect_a && out != expect_b) torn.fetch_add(1);
      }
    });
  }
  swapper.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(torn.load(), 0) << "a batch observed a half-updated policy";
  EXPECT_EQ(engine.Snapshot()->epoch(), 401u);
}

// Regression (found in review): per-principal slots must never move
// backwards across epochs. A caller holding a stale (older-epoch) snapshot
// is refused — it must reload and retry — instead of resetting the slot,
// which would erase the newer epoch's accumulated narrowing and let the
// next new-epoch request restart from the full mask.
TEST(EngineConcurrencyTest, PrincipalSlotsNeverRegressAcrossEpochs) {
  PrincipalStateMap map(4);
  auto narrow = [](uint64_t to) {
    return [to](policy::PrincipalState& state) {
      state.consistent = to;
      return true;
    };
  };
  ASSERT_TRUE(map.TryWithState("p", 1, 0b11, narrow(0b01)).has_value());
  // Epoch 2 advances the slot and resets it to the new init mask first.
  auto advanced =
      map.TryWithState("p", 2, 0b111, [](policy::PrincipalState& state) {
        EXPECT_EQ(state.consistent, 0b111u);
        state.consistent = 0b100;
        return true;
      });
  ASSERT_TRUE(advanced.has_value());
  // A stale epoch-1 caller is refused and must not touch the slot.
  EXPECT_FALSE(map.TryWithState("p", 1, 0b11, narrow(0b01)).has_value());
  EXPECT_FALSE(map.Consistent("p", 1, 0b11).has_value());
  // The epoch-2 narrowing survived the stale access.
  const std::optional<uint64_t> consistent = map.Consistent("p", 2, 0b111);
  ASSERT_TRUE(consistent.has_value());
  EXPECT_EQ(*consistent, 0b100u);
  // And a later epoch restarts from its own init mask.
  const std::optional<uint64_t> later = map.Consistent("p", 3, 0b1111);
  ASSERT_TRUE(later.has_value());
  EXPECT_EQ(*later, 0b1111u);
}

// Lifecycle stress (PR 5): submits racing principal sweeps AND epoch swaps
// on a capacity+TTL-bounded map. Run under TSan by CI. Evictions, residual
// rehydration, residual drops and floor-epoch refusals all interleave with
// the submit path here; the invariants checked are the ones that survive
// arbitrary interleaving — decision counters add up, the live-slot bound
// holds, and every principal stays answerable afterwards.
TEST(EngineConcurrencyTest, SubmitsRaceSweepsAndEpochSwaps) {
  FbFixture fb;
  policy::SecurityPolicy policy_a =
      workload::PolicyGenerator(&fb.catalog, {}, 0xabba01ULL).Next();
  policy::SecurityPolicy policy_b =
      workload::PolicyGenerator(&fb.catalog, {}, 0xabba02ULL).Next();
  const auto pool = RandomWorkload(&fb.schema, 2, 128, 0xfeedULL);

  EngineOptions options;
  options.principals.shards = 4;
  options.principals.max_principals = 8;
  options.principals.idle_ttl_ticks = 1;
  options.principal_sweep_interval = 16;  // auto-sweeps from submit threads
  DisclosureEngine engine(/*db=*/nullptr, &fb.catalog, policy_a, options);

  constexpr int kThreads = 4;
  constexpr int kSubmitsPerThread = 400;
  constexpr int kPrincipals = 24;  // 3x the live capacity: constant churn
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x1CEULL * (t + 1));
      for (int i = 0; i < kSubmitsPerThread; ++i) {
        const std::string principal =
            "p" + std::to_string(rng.Below(kPrincipals));
        if (rng.Chance(0.2)) {
          std::vector<cq::ConjunctiveQuery> batch;
          for (int j = 0; j < 4; ++j) {
            batch.push_back(pool[rng.Below(pool.size())]);
          }
          (void)engine.SubmitBatch(principal,
                                   std::span(batch.data(), batch.size()));
          i += 3;
        } else {
          (void)engine.Submit(principal, pool[rng.Below(pool.size())]);
        }
      }
    });
  }
  std::thread maintainer([&] {
    for (int i = 0; i < 60; ++i) {
      engine.UpdatePolicy((i % 2) == 0 ? policy_b : policy_a);
      (void)engine.SweepPrincipals();
      (void)engine.Stats();
      (void)engine.ConsistentPartitions("p0");
    }
  });
  for (std::thread& thread : threads) thread.join();
  maintainer.join();

  const DisclosureEngine::EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.submitted, stats.accepted + stats.refused);
  EXPECT_GE(stats.submitted,
            static_cast<uint64_t>(kThreads) * kSubmitsPerThread);
  EXPECT_LE(stats.num_principals, 8u);
  EXPECT_GT(stats.principal_map.evictions, 0u);
  // Quiesced: every principal is answerable under the final epoch.
  for (int p = 0; p < kPrincipals; ++p) {
    (void)engine.ConsistentPartitions("p" + std::to_string(p));
  }
}

// Concurrent submits on the SAME principal must serialize through the
// shard lock: the outcome must be *some* valid serialization. §6.2
// narrowing makes that checkable exactly: the final consistency bits must
// equal the AND of the allowed-partition masks of precisely the accepted
// labels, every accepted label's allowed mask must cover the final state,
// and every refused label's allowed mask must be disjoint from it (refusal
// happened at a superset of the final state, and AllowedPartitions is
// monotone in its candidate set).
TEST(EngineConcurrencyTest, SamePrincipalSubmitsAreAValidSerialization) {
  FbFixture fb;
  policy::SecurityPolicy policy =
      workload::PolicyGenerator(&fb.catalog, {}, 3ULL).Next();
  DisclosureEngine engine(/*db=*/nullptr, &fb.catalog, policy);
  const auto pool = RandomWorkload(&fb.schema, 1, 16, 0x42ULL);

  constexpr int kThreads = 8;
  constexpr int kSubmits = 200;
  std::vector<std::vector<bool>> decisions(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      decisions[t].reserve(kSubmits);
      for (int i = 0; i < kSubmits; ++i) {
        decisions[t].push_back(
            engine.Submit("hot-principal", pool[i % pool.size()]));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  label::LabelingPipeline seed(&fb.catalog);
  std::vector<uint64_t> allowed_full(pool.size());
  for (size_t q = 0; q < pool.size(); ++q) {
    allowed_full[q] = policy.AllowedPartitions(seed.Label(pool[q]),
                                               policy.AllPartitionsMask());
  }
  const uint64_t final_state = engine.ConsistentPartitions("hot-principal");
  uint64_t expected_final = policy.AllPartitionsMask();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kSubmits; ++i) {
      const uint64_t mask = allowed_full[i % pool.size()];
      if (decisions[t][i]) {
        expected_final &= mask;
        EXPECT_EQ(final_state & mask, final_state)
            << "accepted label does not cover the final state";
      } else {
        EXPECT_EQ(final_state & mask, 0u)
            << "refused label intersects the final state";
      }
    }
  }
  EXPECT_EQ(final_state, expected_final);
}

// EBR stress: readers label warm AND novel queries through
// Submit/SubmitBatch/SubmitCoalesced while a writer loop churns every
// retire source at once — UpdatePolicy (snapshot retire), SetShadowPolicy/
// ClearShadowPolicy (shadow snapshot retire), overlay growth (slot-array
// publish + retire as novel labels accumulate), and SweepPrincipals. Run under TSan and ASan by CI; a use-after-retire
// would surface there, and decision-counter balance is checked here.
TEST(EngineConcurrencyTest, EbrReadersRaceRetiresAcrossAllLayers) {
  FbFixture fb;
  policy::SecurityPolicy policy_a =
      workload::PolicyGenerator(&fb.catalog, {}, 0xebedULL).Next();
  policy::SecurityPolicy policy_b =
      workload::PolicyGenerator(&fb.catalog, {}, 0xebeeULL).Next();
  policy::SecurityPolicy shadow =
      workload::PolicyGenerator(&fb.catalog, {}, 0xebefULL).Next();
  const auto warm_pool = RandomWorkload(&fb.schema, 2, 64, 0x600dULL);
  // Disjoint per-thread novel slices: every novel label grows the overlay,
  // whose slot array is republished and retired as it doubles.
  const auto novel_pool = RandomWorkload(&fb.schema, 2, 512, 0xbadcab1eULL);

  EngineOptions options;
  options.principals.shards = 4;
  options.principals.max_principals = 16;
  options.principals.idle_ttl_ticks = 1;
  DisclosureEngine engine(/*db=*/nullptr, &fb.catalog, policy_a, options);

  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 300;
  constexpr int kPrincipals = 12;
  std::atomic<uint64_t> decided{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(0xeb0ULL * (t + 1));
      size_t novel_at = static_cast<size_t>(t) * (novel_pool.size() / kThreads);
      const size_t novel_end = novel_at + novel_pool.size() / kThreads;
      auto next_query = [&]() -> const cq::ConjunctiveQuery& {
        // ~1 in 4 submissions is novel until the slice runs dry; the rest
        // stay warm so overlay hits and slot-array swaps interleave.
        if (novel_at < novel_end && rng.Chance(0.25)) {
          return novel_pool[novel_at++];
        }
        return warm_pool[rng.Below(warm_pool.size())];
      };
      std::vector<std::string> names(kPrincipals);
      for (int p = 0; p < kPrincipals; ++p) {
        names[p] = "p" + std::to_string(p);
      }
      for (int i = 0; i < kItersPerThread; ++i) {
        const std::string& principal = names[rng.Below(kPrincipals)];
        if (rng.Chance(0.2)) {
          std::vector<cq::ConjunctiveQuery> batch;
          for (int j = 0; j < 4; ++j) batch.push_back(next_query());
          const auto out =
              engine.SubmitBatch(principal, std::span(batch.data(), 4));
          decided.fetch_add(out.size(), std::memory_order_relaxed);
        } else if (rng.Chance(0.2)) {
          std::vector<cq::ConjunctiveQuery> queries;
          for (int j = 0; j < 3; ++j) queries.push_back(next_query());
          std::vector<DisclosureEngine::SubmitRequest> requests(3);
          for (int j = 0; j < 3; ++j) {
            requests[j].principal = names[(rng.Below(kPrincipals))];
            requests[j].query = &queries[j];
          }
          std::vector<bool> decisions;
          engine.SubmitCoalesced(std::span(requests.data(), 3), &decisions);
          decided.fetch_add(decisions.size(), std::memory_order_relaxed);
        } else {
          (void)engine.Submit(principal, next_query());
          decided.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < 80; ++i) {
      engine.UpdatePolicy((i % 2) == 0 ? policy_b : policy_a);
      if (i % 3 == 0) {
        engine.SetShadowPolicy(shadow, "stress-shadow");
      } else if (i % 3 == 1) {
        engine.ClearShadowPolicy();
      }
      (void)engine.SweepPrincipals();
      if (i % 10 == 0) (void)engine.Stats();
    }
  });
  for (std::thread& reader : readers) reader.join();
  writer.join();

  const DisclosureEngine::EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.submitted, stats.accepted + stats.refused);
  EXPECT_EQ(stats.submitted, decided.load());
  // The writer loop actually exercised every retire source.
  EXPECT_GT(stats.labeler.overlay_chunk_publishes, 0u);
  EXPECT_GT(stats.ebr.retired, 0u);
  EXPECT_GT(stats.ebr.freed, 0u);
  // Quiesced: every principal is answerable under the final epoch.
  for (int p = 0; p < kPrincipals; ++p) {
    (void)engine.ConsistentPartitions("p" + std::to_string(p));
  }
}

// Differential oracle: the engine's EBR read path must be decision-for-
// decision identical to the single-threaded seed path
// (label::LabelingPipeline + policy::ReferenceMonitor). One randomized
// stream — singles, batches, coalesced cross-principal groups, policy
// swaps, shadow set/clear, with the lock-free overlay probe serving most
// warm hits — runs through the engine and through
// the oracle. Live states restart at each live epoch; shadow states
// restart at each SetShadowPolicy and persist across live swaps, exactly
// like the engine's separate shadow state map. Every decision, every
// principal's final consistency mask, and the shadow divergence counters
// must match.
TEST(EngineConcurrencyTest, EbrDecisionsMatchSeedPathOracle) {
  FbFixture fb;
  policy::SecurityPolicy policy_a =
      workload::PolicyGenerator(&fb.catalog, {}, 0xd1f01ULL).Next();
  policy::SecurityPolicy policy_b =
      workload::PolicyGenerator(&fb.catalog, {}, 0xd1f02ULL).Next();
  policy::SecurityPolicy shadow =
      workload::PolicyGenerator(&fb.catalog, {}, 0xd1f03ULL).Next();
  const auto pool = RandomWorkload(&fb.schema, 2, 256, 0xd1f04ULL);

  EngineOptions options;
  DisclosureEngine engine(/*db=*/nullptr, &fb.catalog, policy_a, options);

  constexpr int kPrincipals = 6;
  label::LabelingPipeline pipeline(&fb.catalog);
  const policy::ReferenceMonitor monitor_a(&policy_a);
  const policy::ReferenceMonitor monitor_b(&policy_b);
  const policy::ReferenceMonitor shadow_monitor(&shadow);
  const policy::ReferenceMonitor* live = &monitor_a;
  std::vector<policy::PrincipalState> live_states(kPrincipals,
                                                  live->InitialState());
  std::vector<policy::PrincipalState> shadow_states;
  bool shadow_on = false;
  uint64_t accepted = 0, refused = 0;
  uint64_t agree = 0, stricter = 0, looser = 0;
  // One oracle decision, in stream order, plus its shadow tally.
  auto decide = [&](int p, const cq::ConjunctiveQuery& query) {
    const label::DisclosureLabel label = pipeline.Label(query);
    const bool ok = live->Submit(&live_states[p], label);
    ++(ok ? accepted : refused);
    if (shadow_on) {
      const bool would = shadow_monitor.Submit(&shadow_states[p], label);
      ++(would == ok ? agree : ok ? stricter : looser);
    }
    return ok;
  };

  constexpr int kSteps = 1200;
  auto name_of = [](uint64_t p) { return "diff-" + std::to_string(p); };
  Rng rng(0xd1f05ULL);
  uint64_t live_epoch = 1;
  for (int step = 0; step < kSteps; ++step) {
    if (step % 97 == 42) {
      live = (step / 97) % 2 == 0 ? &monitor_b : &monitor_a;
      const uint64_t epoch = engine.UpdatePolicy(live->policy());
      EXPECT_GT(epoch, live_epoch);
      live_epoch = epoch;
      live_states.assign(kPrincipals, live->InitialState());
    }
    if (step % 131 == 7) {
      if (shadow_on) {
        engine.ClearShadowPolicy();
      } else {
        EXPECT_GT(engine.SetShadowPolicy(shadow, "diff-shadow"), live_epoch);
        shadow_states.assign(kPrincipals, shadow_monitor.InitialState());
      }
      shadow_on = !shadow_on;
    }
    const int principal = static_cast<int>(rng.Below(kPrincipals));
    if (rng.Chance(0.2)) {
      std::vector<cq::ConjunctiveQuery> batch;
      const int span = static_cast<int>(rng.Below(6)) + 1;
      for (int j = 0; j < span; ++j) {
        batch.push_back(pool[rng.Below(pool.size())]);
      }
      std::vector<bool> expected;
      for (const cq::ConjunctiveQuery& query : batch) {
        expected.push_back(decide(principal, query));
      }
      EXPECT_EQ(engine.SubmitBatch(name_of(principal),
                                   std::span(batch.data(), batch.size())),
                expected)
          << "batch diverged at step " << step;
    } else if (rng.Chance(0.15)) {
      std::vector<cq::ConjunctiveQuery> queries;
      std::vector<int> principals;
      std::vector<std::string> names;
      for (int j = 0; j < 4; ++j) {
        queries.push_back(pool[rng.Below(pool.size())]);
        principals.push_back(static_cast<int>(rng.Below(kPrincipals)));
        names.push_back(name_of(principals.back()));
      }
      std::vector<DisclosureEngine::SubmitRequest> requests(4);
      std::vector<bool> expected;
      for (int j = 0; j < 4; ++j) {
        requests[j].principal = names[j];
        requests[j].query = &queries[j];
        expected.push_back(decide(principals[j], queries[j]));
      }
      std::vector<bool> out;
      engine.SubmitCoalesced(std::span(requests.data(), 4), &out);
      EXPECT_EQ(out, expected) << "coalesced diverged at step " << step;
    } else {
      const auto& query = pool[rng.Below(pool.size())];
      const bool expected = decide(principal, query);
      EXPECT_EQ(engine.Submit(name_of(principal), query), expected)
          << "submit diverged at step " << step;
    }
  }

  for (int p = 0; p < kPrincipals; ++p) {
    EXPECT_EQ(engine.ConsistentPartitions(name_of(p)),
              live_states[p].consistent)
        << "principal " << p;
  }
  const auto stats = engine.Stats();
  EXPECT_EQ(stats.epoch, live_epoch);
  EXPECT_EQ(stats.accepted, accepted);
  EXPECT_EQ(stats.refused, refused);
  EXPECT_EQ(stats.shadow.agree, agree);
  EXPECT_EQ(stats.shadow.shadow_stricter, stricter);
  EXPECT_EQ(stats.shadow.shadow_looser, looser);
  // Both policies and the shadow actually decided something both ways.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
  EXPECT_GT(agree + stricter + looser, 0u);
  // The differential is only meaningful if the engine actually served
  // from the lock-free overlay probe.
  EXPECT_GT(stats.labeler.overlay_chunk_hits, 0u);
}

// LabelTable's concurrency contract (engine/label_table.h): reader threads
// probe lock-free under an epoch::Guard while one writer, holding the
// owner's mutex, inserts distinct structures — each under its canonical
// form plus its raw form — through several slot-array growths. A probe of
// a structure published before the probe began must hit, and every hit
// must equal the per-view seed labeler's label (LabelingPipeline::
// LabelPacked). CI runs this under TSan.
TEST(EngineConcurrencyTest, LabelTableReadersRaceGrowth) {
  FbFixture fb;
  const label::LabelingPipeline seed(&fb.catalog);
  std::vector<cq::ConjunctiveQuery> raw, canonical;
  std::vector<label::DisclosureLabel> expected;
  std::set<std::string> keys;
  for (const cq::ConjunctiveQuery& query :
       RandomWorkload(&fb.schema, 2, 600, 0x7ab1e'0001ULL)) {
    if (!keys.insert(cq::CanonicalKey(query)).second) continue;
    raw.push_back(query);
    canonical.push_back(cq::Canonicalize(query));
    expected.push_back(seed.LabelPacked(query));
  }
  ASSERT_GT(raw.size(), 200u);

  constexpr int kReaders = 3;
  LabelTable table;
  std::mutex mu;  // the owner's writer mutex
  std::atomic<size_t> published{0};
  std::atomic<int> started{0};
  std::thread writer([&] {
    while (started.load(std::memory_order_acquire) < kReaders) {
      std::this_thread::yield();
    }
    for (size_t i = 0; i < raw.size(); ++i) {
      {
        std::lock_guard<std::mutex> lock(mu);
        const label::DisclosureLabel* stored = table.Insert(
            cq::RawHash(canonical[i]), canonical[i], expected[i]);
        if (!(raw[i] == canonical[i])) {
          table.Alias(cq::RawHash(raw[i]), raw[i], stored);
        }
      }
      published.store(i + 1, std::memory_order_release);
    }
  });
  std::atomic<uint64_t> hits{0}, lost{0}, wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(0x7ab1e'0100ULL + t);
      started.fetch_add(1, std::memory_order_release);
      for (size_t done = 0; done < raw.size();) {
        done = published.load(std::memory_order_acquire);
        const size_t i = rng.Below(raw.size());
        const cq::ConjunctiveQuery& form =
            rng.Chance(0.5) ? raw[i] : canonical[i];
        epoch::Guard guard;
        const label::DisclosureLabel* hit =
            table.Find(cq::RawHash(form), form);
        if (hit == nullptr) {
          if (i < done) lost.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        hits.fetch_add(1, std::memory_order_relaxed);
        if (!(*hit == expected[i])) wrong.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(lost.load(), 0u) << "a published structure was not found";
  EXPECT_EQ(wrong.load(), 0u) << "a probe returned another structure's label";
  EXPECT_GT(hits.load(), 0u);
  EXPECT_GE(table.publishes(), 4u) << "too few slot-array growths raced";
  EXPECT_EQ(table.structures(), raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    for (const cq::ConjunctiveQuery* form : {&raw[i], &canonical[i]}) {
      const label::DisclosureLabel* hit =
          table.Find(cq::RawHash(*form), *form);
      ASSERT_NE(hit, nullptr) << "structure " << i;
      EXPECT_EQ(*hit, expected[i]) << "structure " << i;
    }
  }
}

// The acceptance property of the wait-free read path: warm-path Submit /
// SubmitBatch / SubmitCoalesced perform ZERO reader-side mutex or
// shared_mutex acquisitions — measured by the thread-local
// locks::ReaderLockAcquisitions() counter that every counted lock in the
// read path reports into. A control-plane Snapshot() call, which takes the
// snapshot lock's shared side, must then move the same counter, so the
// zero is not vacuous.
TEST(EngineConcurrencyTest, WarmPathTakesZeroReaderLocksUnderEbr) {
  FbFixture fb;
  policy::SecurityPolicy policy =
      workload::PolicyGenerator(&fb.catalog, {}, 0x10cc5ULL).Next();
  const auto pool = RandomWorkload(&fb.schema, 2, 48, 0x10cc6ULL);

  auto run_warm_traffic = [&](DisclosureEngine& engine) {
    for (size_t q = 0; q < pool.size(); ++q) {
      (void)engine.Submit("locks-single", pool[q]);
    }
    std::vector<cq::ConjunctiveQuery> batch(pool.begin(), pool.end());
    (void)engine.SubmitBatch("locks-batch",
                             std::span(batch.data(), batch.size()));
    std::vector<DisclosureEngine::SubmitRequest> requests(pool.size());
    for (size_t q = 0; q < pool.size(); ++q) {
      requests[q].principal = "locks-coalesced";
      requests[q].query = &pool[q];
    }
    std::vector<bool> decisions;
    engine.SubmitCoalesced(std::span(requests.data(), requests.size()),
                           &decisions);
  };

  // Every novel label is stored as the warm-up pass computes it, so the
  // measured pass is pure lock-free probing for labeling AND an
  // epoch-pinned raw-pointer load for the snapshot.
  DisclosureEngine engine(/*db=*/nullptr, &fb.catalog, policy);
  run_warm_traffic(engine);  // warm-up pass (takes the writer mutex)
  const ConcurrentLabeler::Stats warm = engine.Stats().labeler;
  const uint64_t before = locks::ReaderLockAcquisitions();
  run_warm_traffic(engine);
  const uint64_t after = locks::ReaderLockAcquisitions();
  EXPECT_EQ(after - before, 0u)
      << "warm path took reader-side lock acquisitions";
  // The labeler's mutex is only taken exclusively, so the counter above
  // cannot see a warm request falling through to the write side; these
  // can: no novel label and no write-side ("locked") overlay hit.
  const ConcurrentLabeler::Stats measured = engine.Stats().labeler;
  EXPECT_GT(measured.overlay_chunk_hits, warm.overlay_chunk_hits);
  EXPECT_EQ(measured.overlay_misses, warm.overlay_misses);
  EXPECT_EQ(measured.overlay_hits - measured.overlay_chunk_hits,
            warm.overlay_hits - warm.overlay_chunk_hits);

  // Liveness: the control-plane snapshot read is a counted shared lock.
  EXPECT_NE(engine.Snapshot(), nullptr);
  EXPECT_GE(locks::ReaderLockAcquisitions() - after, 1u)
      << "counter dead: Snapshot() reported no reader lock";
}

}  // namespace
}  // namespace fdc::engine
