#include "policy/policy.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "label/pipeline.h"
#include "order/explicit_preorder.h"
#include "policy/overprivilege.h"
#include "policy/policy_analysis.h"
#include "policy/reference_monitor.h"
#include "test_util.h"

namespace fdc::policy {
namespace {

using cq::Schema;
using label::DisclosureLabel;
using label::LabelingPipeline;
using label::PackedAtomLabel;
using label::ViewCatalog;

// Catalog for the Example 6.2 scenario: Fgen singletons over Meetings and
// Contacts.
class Example62Test : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = test::MakePaperSchema();
    catalog_ = std::make_unique<ViewCatalog>(&schema_);
    auto add = [&](const std::string& name, const std::string& text) {
      auto id = catalog_->AddViewText(name, text);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids_[name] = *id;
    };
    add("V1", "V1(x, y) :- Meetings(x, y)");
    add("V2", "V2(x) :- Meetings(x, y)");
    add("V3", "V3(x, y, z) :- Contacts(x, y, z)");
    add("V6", "V6(x, y) :- Contacts(x, y, z)");
    add("V7", "V7(x, z) :- Contacts(x, y, z)");
    pipeline_ = std::make_unique<LabelingPipeline>(catalog_.get());

    // Policy {W1, W2}: W1 = {V1} (Meetings), W2 = {V3} (Contacts).
    auto policy = SecurityPolicy::Compile(
        *catalog_,
        {{"W1", {ids_["V1"]}}, {"W2", {ids_["V3"]}}});
    ASSERT_TRUE(policy.ok());
    policy_ = std::make_unique<SecurityPolicy>(std::move(policy).value());
  }

  DisclosureLabel Label(const std::string& text) {
    return pipeline_->LabelPacked(test::Q(text, schema_));
  }

  Schema schema_;
  std::unique_ptr<ViewCatalog> catalog_;
  std::unique_ptr<LabelingPipeline> pipeline_;
  std::unique_ptr<SecurityPolicy> policy_;
  std::map<std::string, int> ids_;
};

// Example 6.2/6.3: V6 accepted, then V7 accepted, then V2 refused; the
// consistency bit vector evolves ⟨1,1⟩ → ⟨1,0⟩ → ⟨1,0⟩ → refuse.
TEST_F(Example62Test, ChineseWallTrace) {
  ReferenceMonitor monitor(policy_.get());
  PrincipalState state = monitor.InitialState();
  EXPECT_EQ(state.consistent, 0b11u);

  EXPECT_TRUE(monitor.Submit(&state, Label("V6(x, y) :- Contacts(x, y, z)")));
  EXPECT_EQ(state.consistent, 0b10u);  // only W2 (= partition 1) consistent

  EXPECT_TRUE(monitor.Submit(&state, Label("V7(x, z) :- Contacts(x, y, z)")));
  EXPECT_EQ(state.consistent, 0b10u);  // unchanged

  // V2 (Meetings projection) now violates both partitions cumulatively.
  EXPECT_FALSE(monitor.Submit(&state, Label("V2(x) :- Meetings(x, y)")));
  EXPECT_EQ(state.consistent, 0b10u);  // refused queries leave state alone
}

TEST_F(Example62Test, OppositeOrderLocksOtherPartition) {
  ReferenceMonitor monitor(policy_.get());
  PrincipalState state = monitor.InitialState();
  EXPECT_TRUE(monitor.Submit(&state, Label("V2(x) :- Meetings(x, y)")));
  EXPECT_EQ(state.consistent, 0b01u);
  EXPECT_FALSE(
      monitor.Submit(&state, Label("V6(x, y) :- Contacts(x, y, z)")));
}

TEST_F(Example62Test, StatelessEquivalenceForSinglePartition) {
  // §6.2: with one partition, the stateful monitor accepts exactly the
  // queries the stateless check accepts, in any order.
  auto policy = SecurityPolicy::Compile(*catalog_, {{"W", {ids_["V1"]}}});
  ASSERT_TRUE(policy.ok());
  ReferenceMonitor monitor(&*policy);
  PrincipalState state = monitor.InitialState();
  const std::vector<std::string> queries = {
      "Q(x) :- Meetings(x, y)", "Q(y) :- Meetings(x, y)",
      "Q(x) :- Meetings(x, 'Cathy')", "Q(x, y) :- Meetings(x, y)"};
  for (const std::string& text : queries) {
    DisclosureLabel label = Label(text);
    EXPECT_EQ(monitor.CheckStateless(label),
              monitor.Submit(&state, label))
        << text;
  }
}

TEST_F(Example62Test, TopLabelAlwaysRefused) {
  ReferenceMonitor monitor(policy_.get());
  PrincipalState state = monitor.InitialState();
  DisclosureLabel top;
  top.MarkTop();
  EXPECT_FALSE(monitor.Submit(&state, top));
  EXPECT_FALSE(monitor.CheckStateless(top));
}

TEST_F(Example62Test, MonitorInvariantHoldsOnRandomStreams) {
  // Property: after any accepted prefix, at least one partition bounds the
  // union of all accepted labels (the §6.2 invariant).
  ReferenceMonitor monitor(policy_.get());
  Rng rng(31337);
  const std::vector<std::string> pool = {
      "Q(x) :- Meetings(x, y)",      "Q(y) :- Meetings(x, y)",
      "Q(x, y) :- Meetings(x, y)",   "Q(x) :- Contacts(x, y, z)",
      "Q(x, y) :- Contacts(x, y, z)", "Q(z) :- Contacts(x, y, z)",
      "Q(x, y, z) :- Contacts(x, y, z)",
  };
  for (int run = 0; run < 20; ++run) {
    PrincipalState state = monitor.InitialState();
    DisclosureLabel accepted_union;
    for (int step = 0; step < 12; ++step) {
      DisclosureLabel label = Label(pool[rng.Below(pool.size())]);
      if (monitor.Submit(&state, label)) {
        accepted_union.UnionWith(label);
        bool some_partition_bounds = false;
        for (int p = 0; p < policy_->num_partitions(); ++p) {
          some_partition_bounds |= policy_->LabelAllowed(p, accepted_union);
        }
        EXPECT_TRUE(some_partition_bounds);
      }
    }
  }
}

// ---- Compilation validation ------------------------------------------------

TEST_F(Example62Test, CompileRejectsBadInput) {
  EXPECT_FALSE(SecurityPolicy::Compile(*catalog_, {}).ok());
  EXPECT_FALSE(
      SecurityPolicy::Compile(*catalog_, {{"W", {999}}}).ok());
  // 33 partitions fit since the state word widened to 64 bits; one past
  // kMaxPartitions must fail with a clear OutOfRange error.
  std::vector<Partition> wide(33, Partition{"W", {0}});
  EXPECT_TRUE(SecurityPolicy::Compile(*catalog_, wide).ok());
  std::vector<Partition> too_many(SecurityPolicy::kMaxPartitions + 1,
                                  Partition{"W", {0}});
  auto overflow = SecurityPolicy::Compile(*catalog_, too_many);
  EXPECT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kOutOfRange);
}

TEST_F(Example62Test, PartitionMasksReflectBits) {
  const int meetings = schema_.Find("Meetings")->id;
  const int contacts = schema_.Find("Contacts")->id;
  // W1 = {V1}: bit 0 of Meetings (first view registered for that relation).
  EXPECT_EQ(policy_->PartitionMask(0, meetings), 0b01u);
  EXPECT_EQ(policy_->PartitionMask(0, contacts), 0u);
  EXPECT_EQ(policy_->PartitionMask(1, contacts), 0b001u);
}

// Regression: an out-of-range partition index from a public API must
// degrade to "allows nothing" (stricter-never-looser), never index
// partition_words_ out of bounds (UB). Mirrors the PR 4 wrap-safe relation
// guards one argument over.
TEST_F(Example62Test, OutOfRangePartitionIndexIsGuarded) {
  const uint32_t meetings =
      static_cast<uint32_t>(schema_.Find("Meetings")->id);
  const int k = policy_->num_partitions();
  for (const int p : {-1, -1000, k, k + 1, 1 << 20}) {
    EXPECT_FALSE(policy_->ValidPartition(p)) << p;
    EXPECT_EQ(policy_->PartitionMask(p, meetings), 0u) << p;
    EXPECT_EQ(policy_->PartitionWords(p, meetings), nullptr) << p;

    label::WideAtomLabel wide;
    wide.relation = static_cast<int>(meetings);
    wide.mask = {~0ULL};
    EXPECT_FALSE(policy_->WideAtomAllowed(p, wide)) << p;

    label::DisclosureLabel label;
    label.Add(label::PackedAtomLabel(meetings, 0b01));
    label.Seal();
    EXPECT_FALSE(policy_->LabelAllowed(p, label)) << p;
    // The empty label is the subtle case: with only per-atom guards the
    // atom loops would be vacuous and an out-of-range p would "allow" it.
    label::DisclosureLabel empty;
    EXPECT_FALSE(policy_->LabelAllowed(p, empty)) << p;
  }
  // In-range indices still answer (sanity that the guard is not too wide).
  EXPECT_TRUE(policy_->ValidPartition(0));
  EXPECT_TRUE(policy_->ValidPartition(k - 1));
  EXPECT_EQ(policy_->PartitionMask(0, meetings), 0b01u);
  ASSERT_NE(policy_->PartitionWords(0, meetings), nullptr);
}

// ---- Policy analysis --------------------------------------------------------

TEST_F(Example62Test, FindViewRedundancies) {
  auto redundancies = FindViewRedundancies(*catalog_);
  // V2 ⪯ V1, V6 ⪯ V3, V7 ⪯ V3 at least; no equivalent pairs.
  bool v2_below_v1 = false;
  for (const auto& r : redundancies) {
    EXPECT_FALSE(r.equivalent);
    if (r.lower_view == ids_["V2"] && r.upper_view == ids_["V1"]) {
      v2_below_v1 = true;
    }
  }
  EXPECT_TRUE(v2_below_v1);
}

TEST_F(Example62Test, EquivalentViewsDetected) {
  ViewCatalog catalog(&schema_);
  ASSERT_TRUE(catalog.AddViewText("A", "A(x, y) :- Meetings(x, y)").ok());
  ASSERT_TRUE(catalog.AddViewText("B", "B(y, x) :- Meetings(x, y)").ok());
  auto redundancies = FindViewRedundancies(catalog);
  ASSERT_EQ(redundancies.size(), 1u);
  EXPECT_TRUE(redundancies[0].equivalent);
}

TEST_F(Example62Test, RedundantPartitionsDetected) {
  auto policy = SecurityPolicy::Compile(
      *catalog_, {{"Big", {ids_["V1"], ids_["V3"]}},
                  {"Small", {ids_["V1"]}},
                  {"Other", {ids_["V2"]}}});
  ASSERT_TRUE(policy.ok());
  std::vector<int> redundant = FindRedundantPartitions(*policy);
  // "Small" (1) is dominated by "Big" (0); "Other" uses a different view
  // bit so it stays.
  EXPECT_EQ(redundant, (std::vector<int>{1}));
}

TEST(PolicyConsistencyTest, DownwardClosureAndCheck) {
  order::ExplicitPreorder order({0b1111, 0b0011, 0b0101, 0b0001});
  auto lattice = order::DisclosureLattice::Build(order, 4);
  ASSERT_TRUE(lattice.ok());
  // Policy = {⇓{V2}} alone is not downward closed (⊥ and ⇓{V5} missing).
  std::vector<int> policy = {lattice->IndexOfDownSet({1})};
  EXPECT_FALSE(CheckInternallyConsistent(*lattice, policy).ok());
  std::vector<int> closed = DownwardClosure(*lattice, policy);
  EXPECT_TRUE(CheckInternallyConsistent(*lattice, closed).ok());
  EXPECT_EQ(closed.size(), 3u);  // ⊥, ⇓{V5}, ⇓{V2}
}

// ---- Overprivilege -----------------------------------------------------------

TEST_F(Example62Test, OverprivilegeDetection) {
  // App requests V1, V3, V7 but only ever reads Meetings times (V2-shaped
  // queries, answerable from V1): V3 and V7 are unused.
  std::vector<cq::ConjunctiveQuery> workload = {
      test::Q("Q(x) :- Meetings(x, y)", schema_),
      test::Q("Q(x) :- Meetings(x, 'Cathy')", schema_),
  };
  OverprivilegeReport report = AnalyzeOverprivilege(
      *catalog_, {ids_["V1"], ids_["V3"], ids_["V7"]}, workload);
  EXPECT_TRUE(report.overprivileged());
  EXPECT_EQ(report.unused_views,
            (std::vector<int>{ids_["V3"], ids_["V7"]}));
  EXPECT_EQ(report.minimal_sufficient, (std::vector<int>{ids_["V1"]}));
  EXPECT_EQ(report.unanswerable_atoms, 0);
}

TEST_F(Example62Test, UnderprivilegeCounted) {
  // App requests only V2 but asks for Contacts data.
  std::vector<cq::ConjunctiveQuery> workload = {
      test::Q("Q(x) :- Contacts(x, y, z)", schema_),
  };
  OverprivilegeReport report =
      AnalyzeOverprivilege(*catalog_, {ids_["V2"]}, workload);
  EXPECT_EQ(report.unanswerable_atoms, 1);
  EXPECT_EQ(report.unused_views, (std::vector<int>{ids_["V2"]}));
}

TEST_F(Example62Test, MinimalCoverPrefersSharedView) {
  // Queries over both relations; requesting {V1, V3} is exactly minimal.
  std::vector<cq::ConjunctiveQuery> workload = {
      test::Q("Q(x) :- Meetings(x, y)", schema_),
      test::Q("Q(x) :- Contacts(x, y, z)", schema_),
  };
  OverprivilegeReport report = AnalyzeOverprivilege(
      *catalog_, {ids_["V1"], ids_["V2"], ids_["V3"]}, workload);
  // V2 can also answer the first query, but the greedy cover needs at most
  // two views and never both V1 and V2.
  EXPECT_LE(report.minimal_sufficient.size(), 2u);
  EXPECT_EQ(report.unanswerable_atoms, 0);
}

}  // namespace
}  // namespace fdc::policy
