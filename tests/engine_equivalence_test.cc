// Decision-equivalence property suite: a 1-thread DisclosureEngine must
// produce byte-identical accept/refuse sequences to the seed
// LabelingPipeline + ReferenceMonitor path on randomized workloads, and the
// engine's labels must match the seed labeler's exactly. This is the oracle
// that licenses every concurrency optimization in src/engine/ — if the
// frozen tier, the overlay, or the sharded state ever drift from the seed
// semantics, this suite is meant to catch it.
#include "engine/disclosure_engine.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "cq/canonical.h"
#include "cq/sql_parser.h"
#include "fb/fb_schema.h"
#include "fb/fb_views.h"
#include "label/pipeline.h"
#include "policy/reference_monitor.h"
#include "storage/evaluator.h"
#include "storage/guarded_database.h"
#include "test_util.h"
#include "workload/policy_generator.h"
#include "workload/query_generator.h"

namespace fdc::engine {
namespace {

using test::FbFixture;
using test::RandomWorkload;

// Engine labels agree exactly with the seed labeler on random workloads —
// through the frozen warmup tier, the dynamic overlay, and the saturated
// stateless fallback alike. The seed side is the per-view LabelPacked loop;
// the §7.2 catalog is packed-only, so LabelPacked is exact here and equals
// LabelingPipeline::Label.
TEST(EngineEquivalenceTest, LabelsMatchSeedPipeline) {
  FbFixture fb;
  const auto pool = RandomWorkload(&fb.schema, 3, 300, 0xfeed'beefULL);
  // Warm the frozen tier with a prefix so all three tiers are exercised.
  const std::span<const cq::ConjunctiveQuery> warmup(pool.data(), 100);
  ConcurrentLabeler::Options tight;
  tight.max_interned_queries = 50;  // force stateless fallbacks too
  EngineOptions options;
  options.labeler = tight;
  DisclosureEngine engine(/*db=*/nullptr, &fb.catalog,
                          workload::PolicyGenerator(&fb.catalog, {}, 7).Next(),
                          options, warmup);

  const label::LabelingPipeline seed(&fb.catalog);
  for (const cq::ConjunctiveQuery& query : pool) {
    EXPECT_EQ(engine.Explain(query), seed.LabelPacked(query));
  }
  const DisclosureEngine::EngineStats stats = engine.Stats();
  EXPECT_GT(stats.labeler.frozen_hits, 0u);
  EXPECT_GT(stats.labeler.overlay_misses, 0u);
  EXPECT_GT(stats.labeler.stateless_fallbacks, 0u);
}

// One query driven through ConcurrentLabeler::Label into each tier moves
// exactly the counter perfbench's traced replay classifies it by: frozen
// → frozen_hits, overlay → overlay_chunk_hits (the lock-free overlay
// probe), novel → overlay_misses, saturated → stateless_fallbacks. No step
// is a write-side overlay hit ("locked") or grows the overlay's slot array
// (a publish, which the replay would classify first).
TEST(EngineEquivalenceTest, EachLabelTierMovesOnlyItsReplayCounter) {
  FbFixture fb;
  // Four distinct structures, none of them a catalog view's own query.
  std::vector<cq::ConjunctiveQuery> picked;
  {
    const auto views_only = FrozenCatalog::Build(&fb.catalog);
    std::set<std::string> keys;
    for (const cq::ConjunctiveQuery& query :
         RandomWorkload(&fb.schema, 2, 64, 0x7e1e'5ULL)) {
      const cq::ConjunctiveQuery canonical = cq::Canonicalize(query);
      if (views_only->labels().Find(cq::RawHash(canonical), canonical) ==
              nullptr &&
          keys.insert(cq::CanonicalKey(query)).second) {
        picked.push_back(query);
      }
      if (picked.size() == 4) break;
    }
  }
  ASSERT_EQ(picked.size(), 4u);
  const cq::ConjunctiveQuery& frozen_q = picked[0];
  const cq::ConjunctiveQuery& overlay_q = picked[1];
  const cq::ConjunctiveQuery& novel_q = picked[2];
  const cq::ConjunctiveQuery& stateless_q = picked[3];

  ConcurrentLabeler::Options options;
  options.max_interned_queries = 2;  // overlay_q, novel_q
  ConcurrentLabeler labeler(
      FrozenCatalog::Build(&fb.catalog, std::span(&frozen_q, 1)), options);
  (void)labeler.Label(overlay_q);

  struct Moved {
    uint64_t frozen, chunk, locked, novel, stateless, publishes;
    bool operator==(const Moved&) const = default;
  };
  const label::LabelingPipeline seed(&fb.catalog);
  auto label_and_diff = [&](const cq::ConjunctiveQuery& query) {
    const ConcurrentLabeler::Stats b = labeler.stats();
    EXPECT_EQ(labeler.Label(query), seed.LabelPacked(query));
    const ConcurrentLabeler::Stats a = labeler.stats();
    EXPECT_EQ(a.batch_mask_evals, a.compiled_mask_evals);
    return Moved{a.frozen_hits - b.frozen_hits,
                 a.overlay_chunk_hits - b.overlay_chunk_hits,
                 (a.overlay_hits - a.overlay_chunk_hits) -
                     (b.overlay_hits - b.overlay_chunk_hits),
                 a.overlay_misses - b.overlay_misses,
                 a.stateless_fallbacks - b.stateless_fallbacks,
                 a.overlay_chunk_publishes - b.overlay_chunk_publishes};
  };
  EXPECT_EQ(label_and_diff(frozen_q), (Moved{1, 0, 0, 0, 0, 0}));
  EXPECT_EQ(label_and_diff(overlay_q), (Moved{0, 1, 0, 0, 0, 0}));
  EXPECT_EQ(label_and_diff(novel_q), (Moved{0, 0, 0, 1, 0, 0}));
  EXPECT_EQ(label_and_diff(stateless_q), (Moved{0, 0, 0, 0, 1, 0}));
  EXPECT_EQ(labeler.stats().overlay_structures, 2u);
}

// Two disclosure bypasses through ambiguous key strings. Datalog text may
// carry double-quoted constants holding ' , ) and ;, which keys once
// printed unescaped: (a) C("a','b", 'c') and C('a', "b','c") printed one
// pattern key, so Dissect dropped one atom; (b) A("c',);1('d") printed the
// same canonical key as A('c'), B('d'), so a bait query planted by one
// principal handed its label to every principal. Each sequence runs
// through the engine's Submit, a fresh engine's one cross-principal
// SubmitCoalesced batch, and LabelingPipeline + ReferenceMonitor, and every
// decision must equal the per-view seed labeler (LabelPacked) +
// ReferenceMonitor's, which refuses each probe.
struct Submission {
  std::string principal;
  std::string datalog;
};

std::vector<bool> SeedDecisions(const label::ViewCatalog& catalog,
                                const policy::SecurityPolicy& policy,
                                const std::vector<cq::ConjunctiveQuery>& queries,
                                const std::vector<Submission>& submissions,
                                bool use_pipeline) {
  const label::LabelingPipeline seed(&catalog);
  const policy::ReferenceMonitor monitor(&policy);
  std::map<std::string, policy::PrincipalState> states;
  std::vector<bool> decisions;
  for (size_t i = 0; i < queries.size(); ++i) {
    policy::PrincipalState& state =
        states.try_emplace(submissions[i].principal, monitor.InitialState())
            .first->second;
    decisions.push_back(monitor.Submit(
        &state, use_pipeline ? seed.Label(queries[i])
                             : seed.LabelPacked(queries[i])));
  }
  return decisions;
}

void ExpectEveryPathMatchesSeed(const cq::Schema& schema,
                                const label::ViewCatalog& catalog,
                                const policy::SecurityPolicy& policy,
                                const std::vector<Submission>& submissions,
                                const std::vector<bool>& expected) {
  std::vector<cq::ConjunctiveQuery> queries;
  for (const Submission& sub : submissions) {
    queries.push_back(test::Q(sub.datalog, schema));
  }
  EXPECT_EQ(SeedDecisions(catalog, policy, queries, submissions, false),
            expected);
  EXPECT_EQ(SeedDecisions(catalog, policy, queries, submissions, true),
            expected);

  DisclosureEngine single(/*db=*/nullptr, &catalog, policy);
  std::vector<bool> decisions;
  for (size_t i = 0; i < queries.size(); ++i) {
    decisions.push_back(single.Submit(submissions[i].principal, queries[i]));
  }
  EXPECT_EQ(decisions, expected) << "Submit";

  DisclosureEngine coalesced(/*db=*/nullptr, &catalog, policy);
  std::vector<DisclosureEngine::SubmitRequest> requests;
  for (size_t i = 0; i < queries.size(); ++i) {
    requests.push_back({submissions[i].principal, &queries[i]});
  }
  coalesced.SubmitCoalesced(requests, &decisions);
  EXPECT_EQ(decisions, expected) << "SubmitCoalesced";
}

TEST(EngineEquivalenceTest, QuotedConstantsCannotMergeAtoms) {
  cq::Schema schema;
  ASSERT_TRUE(schema.AddRelation("C", {"a", "b"}).ok());
  label::ViewCatalog catalog(&schema);
  ASSERT_TRUE(catalog.AddViewText("VC", "VC(x, y) :- C(x, y)").ok());
  const Result<int> vc1 = catalog.AddViewText("VC1", "VC1(x) :- C(x, 'c')");
  ASSERT_TRUE(vc1.ok());
  const Result<policy::SecurityPolicy> policy =
      policy::SecurityPolicy::Compile(catalog, {{"P", {*vc1}}});
  ASSERT_TRUE(policy.ok());
  ExpectEveryPathMatchesSeed(
      schema, catalog, *policy,
      {{"app", "Q() :- C('a', \"b','c\")"},
       {"app", "Q() :- C(\"a','b\", 'c')"},
       {"other", "Q() :- C(\"a','b\", 'c'), C('a', \"b','c\")"}},
      {false, true, false});
}

TEST(EngineEquivalenceTest, BaitQueryCannotLendItsLabel) {
  cq::Schema schema;
  ASSERT_TRUE(schema.AddRelation("A", {"a"}).ok());
  ASSERT_TRUE(schema.AddRelation("B", {"b"}).ok());
  label::ViewCatalog catalog(&schema);
  const Result<int> va = catalog.AddViewText("VA", "VA(x) :- A(x)");
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(catalog.AddViewText("VB", "VB(y) :- B(y)").ok());
  const Result<policy::SecurityPolicy> policy =
      policy::SecurityPolicy::Compile(catalog, {{"P", {*va}}});
  ASSERT_TRUE(policy.ok());
  ExpectEveryPathMatchesSeed(schema, catalog, *policy,
                             {{"victim", "Q() :- A('c'), B('d')"},
                              {"bait", "Q() :- A(\"c',);1('d\")"},
                              {"victim", "Q() :- A('c'), B('d')"},
                              {"other", "Q() :- A('c'), B('d')"}},
                             {false, true, false, false});
}

// The core acceptance property: randomized multi-principal workloads give
// identical accept/refuse sequences on the engine and on the seed
// ReferenceMonitor path, and identical final consistency bits.
TEST(EngineEquivalenceTest, DecisionSequencesMatchSeedMonitor) {
  FbFixture fb;
  constexpr int kPrincipals = 7;
  constexpr int kQueries = 400;
  for (uint64_t seed : {0x1ULL, 0xdecade'5eedULL, 0xc0ffeeULL}) {
    workload::PolicyOptions popts;
    popts.max_partitions = 5;
    popts.max_elements_per_partition = 15;
    policy::SecurityPolicy policy =
        workload::PolicyGenerator(&fb.catalog, popts, seed).Next();

    DisclosureEngine engine(/*db=*/nullptr, &fb.catalog, policy);

    label::LabelingPipeline pipeline(&fb.catalog);
    policy::ReferenceMonitor monitor(&policy);
    std::vector<policy::PrincipalState> states(kPrincipals,
                                               monitor.InitialState());

    const auto pool = RandomWorkload(&fb.schema, 2, kQueries, seed ^ 0xabcd);
    Rng rng(seed * 31 + 1);
    for (int i = 0; i < kQueries; ++i) {
      const int p = static_cast<int>(rng.Below(kPrincipals));
      const std::string name = "principal-" + std::to_string(p);
      const bool seed_decision =
          monitor.Submit(&states[p], pipeline.Label(pool[i]));
      const bool engine_decision = engine.Submit(name, pool[i]);
      ASSERT_EQ(engine_decision, seed_decision)
          << "divergence at query " << i << " principal " << p << " seed "
          << seed;
    }
    for (int p = 0; p < kPrincipals; ++p) {
      EXPECT_EQ(
          engine.ConsistentPartitions("principal-" + std::to_string(p)),
          states[p].consistent);
    }
  }
}

// SubmitBatch must agree with per-query Submit (and hence with the seed).
TEST(EngineEquivalenceTest, SubmitBatchMatchesSequentialSubmit) {
  FbFixture fb;
  policy::SecurityPolicy policy =
      workload::PolicyGenerator(&fb.catalog, {}, 0x5107ULL).Next();
  DisclosureEngine batched(/*db=*/nullptr, &fb.catalog, policy);
  DisclosureEngine sequential(/*db=*/nullptr, &fb.catalog, policy);

  const auto pool = RandomWorkload(&fb.schema, 3, 256, 0x77ULL);
  const std::vector<bool> batch =
      batched.SubmitBatch("app", std::span(pool.data(), pool.size()));
  ASSERT_EQ(batch.size(), pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(batch[i], sequential.Submit("app", pool[i])) << "query " << i;
  }
  EXPECT_EQ(batched.ConsistentPartitions("app"),
            sequential.ConsistentPartitions("app"));
}

// GuardedDatabase against the seed path built here — LabelingPipeline,
// one ReferenceMonitor state per principal, storage::Evaluate: same
// evaluated rows, same refusals, same consistency bits — on the paper's
// running example.
TEST(EngineEquivalenceTest, GuardedDatabaseMatchesSeedPath) {
  cq::Schema schema = test::MakePaperSchema();
  storage::Database db(&schema);
  (void)db.Insert("Meetings", {"9", "Jim"});
  (void)db.Insert("Meetings", {"10", "Cathy"});
  (void)db.Insert("Contacts", {"Jim", "jim@e.com", "Manager"});

  label::ViewCatalog catalog(&schema);
  (void)catalog.AddViewText("meetings_full", "V(x, y) :- Meetings(x, y)");
  (void)catalog.AddViewText("contacts_full",
                            "V(x, y, z) :- Contacts(x, y, z)");
  auto policy = policy::SecurityPolicy::Compile(
      catalog, {{"meetings", {catalog.FindByName("meetings_full")->id}},
                {"contacts", {catalog.FindByName("contacts_full")->id}}});
  ASSERT_TRUE(policy.ok());

  storage::GuardedDatabase guarded(&db, &catalog, &*policy);
  label::LabelingPipeline pipeline(&catalog);
  const policy::ReferenceMonitor monitor(&*policy);
  std::map<std::string, policy::PrincipalState> states;
  auto seed_query = [&](const std::string& principal,
                        const std::string& sql)
      -> Result<std::vector<storage::Tuple>> {
    Result<cq::ConjunctiveQuery> parsed = cq::ParseSql(sql, schema);
    if (!parsed.ok()) return parsed.status();
    policy::PrincipalState& state =
        states.try_emplace(principal, monitor.InitialState()).first->second;
    if (!monitor.Submit(&state, pipeline.Label(*parsed))) {
      return Status::PolicyViolation("refused");
    }
    return storage::Evaluate(db, *parsed);
  };

  const std::vector<std::pair<std::string, std::string>> session = {
      {"app", "SELECT time FROM Meetings"},
      {"app", "SELECT email FROM Contacts"},       // wall: refused
      {"crm", "SELECT email FROM Contacts"},
      {"crm", "SELECT time FROM Meetings"},        // wall: refused
  };
  for (const auto& [principal, sql] : session) {
    auto a = guarded.QuerySql(principal, sql);
    auto b = seed_query(principal, sql);
    ASSERT_EQ(a.ok(), b.ok()) << sql;
    if (a.ok()) {
      EXPECT_EQ(*a, *b) << sql;
    } else {
      EXPECT_EQ(a.status().code(), b.status().code()) << sql;
    }
    EXPECT_EQ(guarded.ConsistentPartitions(principal),
              states.at(principal).consistent);
  }
}

// A policy swap resets cumulative state at the new epoch and is effective
// immediately for decisions (single-threaded semantics; the concurrent
// atomicity of the swap is covered by engine_concurrency_test).
TEST(EngineEquivalenceTest, PolicyEpochSwapResetsStateConsistently) {
  cq::Schema schema = test::MakePaperSchema();
  label::ViewCatalog catalog(&schema);
  (void)catalog.AddViewText("meetings_full", "V(x, y) :- Meetings(x, y)");
  (void)catalog.AddViewText("contacts_full",
                            "V(x, y, z) :- Contacts(x, y, z)");
  const int meetings = catalog.FindByName("meetings_full")->id;
  const int contacts = catalog.FindByName("contacts_full")->id;
  auto meetings_only =
      policy::SecurityPolicy::Compile(catalog, {{"m", {meetings}}});
  auto contacts_only =
      policy::SecurityPolicy::Compile(catalog, {{"c", {contacts}}});
  ASSERT_TRUE(meetings_only.ok());
  ASSERT_TRUE(contacts_only.ok());

  DisclosureEngine engine(/*db=*/nullptr, &catalog, *meetings_only);
  const cq::ConjunctiveQuery meetings_q =
      test::Q("Q(x) :- Meetings(x, y)", schema);
  const cq::ConjunctiveQuery contacts_q =
      test::Q("Q(x) :- Contacts(x, e, p)", schema);

  EXPECT_TRUE(engine.Submit("app", meetings_q));
  EXPECT_FALSE(engine.Submit("app", contacts_q));
  EXPECT_EQ(engine.Snapshot()->epoch(), 1u);

  const uint64_t epoch = engine.UpdatePolicy(*contacts_only);
  EXPECT_EQ(epoch, 2u);
  EXPECT_EQ(engine.Snapshot()->epoch(), 2u);
  // Under the new epoch the principal restarts from the new policy's full
  // mask: contacts is now allowed, meetings refused.
  EXPECT_TRUE(engine.Submit("app", contacts_q));
  EXPECT_FALSE(engine.Submit("app", meetings_q));
}

// ---------------------------------------------------------------------------
// Wide-catalog equivalence: the same decision-identity properties, on a
// catalog whose relations cross the former packed 32-views edge (40 and 72
// views per relation, one- and two-word masks plus a narrow control). Both
// routes label through the wide compiled matcher, so no view is excluded on
// either side; the suite checks they still agree query-for-query —
// including across an epoch swap whose partitions are built almost entirely
// from views with bit ≥ 32.
// ---------------------------------------------------------------------------

// A deterministic catalog with `views` random single-atom views on each
// relation of a 3-relation schema (arities 3/4/2).
struct WideFixture {
  cq::Schema schema;
  std::unique_ptr<label::ViewCatalog> catalog;
  std::vector<int> arities{3, 4, 2};
  // Per-relation view counts: one narrow control, one one-word wide
  // relation, one two-word relation.
  std::vector<int> views_per_relation{8, 40, 72};

  explicit WideFixture(uint64_t seed) {
    (void)schema.AddRelation("A", {"x", "y", "z"});
    (void)schema.AddRelation("B", {"x", "y", "z", "w"});
    (void)schema.AddRelation("C", {"x", "y"});
    catalog = std::make_unique<label::ViewCatalog>(&schema);
    Rng rng(seed);
    for (int relation = 0; relation < 3; ++relation) {
      for (int k = 0; k < views_per_relation[relation]; ++k) {
        const cq::AtomPattern pattern =
            test::RandomPattern(&rng, relation, arities[relation]);
        (void)catalog->AddView(
            "w" + std::to_string(relation) + "_" + std::to_string(k),
            pattern.ToQuery("V"));
      }
    }
  }

  cq::ConjunctiveQuery RandomQuery(Rng* rng) const {
    const int natoms = 1 + static_cast<int>(rng->Below(2));
    std::vector<cq::Atom> atoms;
    std::vector<bool> used(3, false);
    for (int a = 0; a < natoms; ++a) {
      const int relation = static_cast<int>(rng->Below(3));
      std::vector<cq::Term> terms;
      for (int p = 0; p < arities[relation]; ++p) {
        if (rng->Chance(0.3)) {
          terms.push_back(cq::Term::Const(std::string(1, 'a' + rng->Below(4))));
        } else {
          const int v = static_cast<int>(rng->Below(3));
          used[v] = true;
          terms.push_back(cq::Term::Var(v));
        }
      }
      atoms.emplace_back(relation, std::move(terms));
    }
    std::vector<cq::Term> head;
    for (int v = 0; v < 3; ++v) {
      if (used[v] && rng->Chance(0.5)) head.push_back(cq::Term::Var(v));
    }
    return cq::ConjunctiveQuery("Q", std::move(head), std::move(atoms));
  }
};

TEST(EngineEquivalenceTest, WideCatalogDecisionsMatchSeedMonitor) {
  constexpr int kPrincipals = 5;
  constexpr int kQueries = 300;
  for (uint64_t seed : {0x11dULL, 0x5eedULL}) {
    WideFixture wide(seed);
    ASSERT_GT(wide.catalog->MaxViewsPerRelation(), 64);
    policy::SecurityPolicy policy =
        workload::PolicyGenerator(wide.catalog.get(), {}, seed ^ 0x99).Next();

    DisclosureEngine engine(/*db=*/nullptr, wide.catalog.get(), policy);
    label::LabelingPipeline pipeline(wide.catalog.get());
    policy::ReferenceMonitor monitor(&policy);
    std::vector<policy::PrincipalState> states(kPrincipals,
                                               monitor.InitialState());

    Rng rng(seed * 77 + 3);
    for (int i = 0; i < kQueries; ++i) {
      const cq::ConjunctiveQuery query = wide.RandomQuery(&rng);
      const int p = static_cast<int>(rng.Below(kPrincipals));
      const std::string name = "wide-principal-" + std::to_string(p);
      const label::DisclosureLabel seed_label = pipeline.Label(query);
      // Labels agree exactly (including which atoms ride wide), so the
      // decisions below diverge only if the policy/monitor widening broke.
      ASSERT_EQ(engine.Explain(query), seed_label) << "query " << i;
      const bool seed_decision = monitor.Submit(&states[p], seed_label);
      ASSERT_EQ(engine.Submit(name, query), seed_decision)
          << "divergence at query " << i << " principal " << p;
    }
    for (int p = 0; p < kPrincipals; ++p) {
      EXPECT_EQ(engine.ConsistentPartitions("wide-principal-" +
                                            std::to_string(p)),
                states[p].consistent);
    }
    // The wide path was actually exercised.
    EXPECT_GT(engine.Stats().labeler.wide_mask_evals, 0u);
  }
}

TEST(EngineEquivalenceTest, WideCatalogEpochSwapMatchesSeedReset) {
  WideFixture wide(0xabcdULL);
  // Partitions drawn from the >32-bit view range: a policy whose decisions
  // are *only* correct if no view is excluded anywhere.
  auto high_bit_partition = [&](int relation, int first_bit, int count,
                                const std::string& name) {
    policy::Partition part;
    part.name = name;
    const auto& ids = wide.catalog->ViewsOfRelation(relation);
    for (int b = first_bit; b < first_bit + count &&
                            b < static_cast<int>(ids.size());
         ++b) {
      part.view_ids.push_back(ids[b]);
    }
    return part;
  };
  auto policy_a = policy::SecurityPolicy::Compile(
      *wide.catalog, {high_bit_partition(1, 33, 7, "b-high"),
                      high_bit_partition(2, 40, 30, "c-mid")});
  auto policy_b = policy::SecurityPolicy::Compile(
      *wide.catalog, {high_bit_partition(2, 64, 8, "c-high"),
                      high_bit_partition(0, 0, 8, "a-all")});
  ASSERT_TRUE(policy_a.ok());
  ASSERT_TRUE(policy_b.ok());

  DisclosureEngine engine(/*db=*/nullptr, wide.catalog.get(), *policy_a);
  label::LabelingPipeline pipeline(wide.catalog.get());
  policy::ReferenceMonitor monitor_a(&*policy_a);
  policy::ReferenceMonitor monitor_b(&*policy_b);
  policy::PrincipalState state = monitor_a.InitialState();

  Rng rng(0x715ULL);
  for (int i = 0; i < 150; ++i) {
    const cq::ConjunctiveQuery query = wide.RandomQuery(&rng);
    ASSERT_EQ(engine.Submit("app", query),
              monitor_a.Submit(&state, pipeline.Label(query)))
        << "pre-swap query " << i;
  }
  EXPECT_EQ(engine.ConsistentPartitions("app"), state.consistent);

  // Swap: the engine restarts the principal at the new policy's full mask;
  // the seed side mirrors that with a fresh monitor + state.
  engine.UpdatePolicy(*policy_b);
  state = monitor_b.InitialState();
  for (int i = 0; i < 150; ++i) {
    const cq::ConjunctiveQuery query = wide.RandomQuery(&rng);
    ASSERT_EQ(engine.Submit("app", query),
              monitor_b.Submit(&state, pipeline.Label(query)))
        << "post-swap query " << i;
  }
  EXPECT_EQ(engine.ConsistentPartitions("app"), state.consistent);
}

// The frozen tier's per-view labels agree with direct computation.
TEST(EngineEquivalenceTest, FrozenViewLabelsMatchDirect) {
  FbFixture fb;
  auto frozen = FrozenCatalog::Build(&fb.catalog);
  label::LabelingPipeline seed(&fb.catalog);
  for (int v = 0; v < fb.catalog.size(); ++v) {
    EXPECT_EQ(frozen->ViewLabel(v),
              seed.LabelPacked(fb.catalog.view(v).pattern.ToQuery("V")));
  }
}

}  // namespace
}  // namespace fdc::engine
