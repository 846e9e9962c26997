#include <gtest/gtest.h>

#include <memory>

#include "label/pipeline.h"
#include "policy/cumulative.h"
#include "policy/explain.h"
#include "policy/reference_monitor.h"
#include "test_util.h"

namespace fdc::policy {
namespace {

using cq::Schema;

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = test::MakePaperSchema();
    catalog_ = std::make_unique<label::ViewCatalog>(&schema_);
    ASSERT_TRUE(
        catalog_->AddViewText("meetings_full", "V(x, y) :- Meetings(x, y)")
            .ok());
    ASSERT_TRUE(
        catalog_->AddViewText("meeting_times", "V(x) :- Meetings(x, y)").ok());
    ASSERT_TRUE(
        catalog_->AddViewText("contacts_full", "V(x, y, z) :- Contacts(x, y, z)")
            .ok());
    pipeline_ = std::make_unique<label::LabelingPipeline>(catalog_.get());
    auto policy = SecurityPolicy::Compile(
        *catalog_,
        {{"meetings_side", {catalog_->FindByName("meetings_full")->id}},
         {"contacts_side", {catalog_->FindByName("contacts_full")->id}}});
    ASSERT_TRUE(policy.ok());
    policy_ = std::make_unique<SecurityPolicy>(std::move(policy).value());
  }

  label::DisclosureLabel Label(const std::string& text) {
    return pipeline_->LabelPacked(test::Q(text, schema_));
  }

  Schema schema_;
  std::unique_ptr<label::ViewCatalog> catalog_;
  std::unique_ptr<label::LabelingPipeline> pipeline_;
  std::unique_ptr<SecurityPolicy> policy_;
};

TEST_F(ExplainTest, AcceptedQueryExplained) {
  Explanation e = ExplainDecision(*policy_, *catalog_,
                                  Label("Q(x) :- Meetings(x, y)"),
                                  policy_->AllPartitionsMask());
  EXPECT_TRUE(e.accepted);
  ASSERT_EQ(e.partitions.size(), 2u);
  EXPECT_TRUE(e.partitions[0].allowed);
  EXPECT_FALSE(e.partitions[1].allowed);
  EXPECT_EQ(e.partitions[1].blocking_atom, 0);
  // Adding meetings_full (or meeting_times) to contacts_side would unblock.
  EXPECT_EQ(e.partitions[1].covering_views,
            (std::vector<std::string>{"meetings_full", "meeting_times"}));
  EXPECT_NE(e.ToString().find("DECISION: answer"), std::string::npos);
}

TEST_F(ExplainTest, WallLossReported) {
  // Principal already locked to contacts_side (bit 0 cleared).
  Explanation e = ExplainDecision(*policy_, *catalog_,
                                  Label("Q(x) :- Meetings(x, y)"),
                                  /*consistent=*/0b10);
  EXPECT_FALSE(e.accepted);
  EXPECT_TRUE(e.partitions[0].lost_earlier);
  EXPECT_FALSE(e.partitions[1].allowed);
  EXPECT_NE(e.ToString().find("already inconsistent"), std::string::npos);
}

TEST_F(ExplainTest, TopLabelExplained) {
  // No view over Contacts emails only? contacts_full covers everything, so
  // craft a catalog-less label.
  label::DisclosureLabel top;
  top.MarkTop();
  Explanation e =
      ExplainDecision(*policy_, *catalog_, top, policy_->AllPartitionsMask());
  EXPECT_FALSE(e.accepted);
  EXPECT_TRUE(e.label_is_top);
  EXPECT_NE(e.ToString().find("⊤"), std::string::npos);
}

TEST_F(ExplainTest, ExplanationMatchesMonitorDecision) {
  ReferenceMonitor monitor(policy_.get());
  Rng rng(4242);
  const std::vector<std::string> pool = {
      "Q(x) :- Meetings(x, y)", "Q(x, y) :- Meetings(x, y)",
      "Q(x) :- Contacts(x, y, z)", "Q(z) :- Contacts(x, y, z)",
      "Q(x) :- Meetings(x, y), Contacts(y, e, p)"};
  for (int run = 0; run < 10; ++run) {
    PrincipalState state = monitor.InitialState();
    for (int step = 0; step < 8; ++step) {
      label::DisclosureLabel label = Label(pool[rng.Below(pool.size())]);
      Explanation e =
          ExplainDecision(*policy_, *catalog_, label, state.consistent);
      EXPECT_EQ(e.accepted, monitor.Submit(&state, label));
    }
  }
}

// Regression: wide blocking atoms are numbered after the packed ones in
// the documented *label order* (packed atoms #0..size()-1, wide atoms from
// #size()), flagged as wide, and rendered as such — on a mixed label the
// old "query atom #N" wording implied the query's dissected-atom order,
// which the split packed/wide storage does not preserve.
TEST(ExplainWideTest, MixedPackedAndWideNumberingIsStable) {
  cq::Schema schema;
  (void)schema.AddRelation("Meetings", {"time", "person"});
  (void)schema.AddRelation("Wide", {"a", "b"});
  label::ViewCatalog catalog(&schema);
  ASSERT_TRUE(
      catalog.AddViewText("meetings_full", "V(x, y) :- Meetings(x, y)").ok());
  // 33 views over one relation: one past the packed capacity, so Wide
  // atoms ride the multi-word representation.
  for (int i = 0; i < 33; ++i) {
    ASSERT_TRUE(catalog
                    .AddViewText("w" + std::to_string(i),
                                 "V(x, y) :- Wide(x, y)")
                    .ok());
  }
  label::LabelingPipeline pipeline(&catalog);
  const label::DisclosureLabel label = pipeline.Label(
      test::Q("Q(x, y, u, v) :- Meetings(x, y), Wide(u, v)", schema));
  ASSERT_EQ(label.size(), 1);                 // Meetings: packed
  ASSERT_EQ(label.wide_atoms().size(), 1u);   // Wide: 33 views -> wide

  auto policy = SecurityPolicy::Compile(
      catalog, {{"meetings_side", {catalog.FindByName("meetings_full")->id}},
                {"wide_w0", {catalog.FindByName("w0")->id}}});
  ASSERT_TRUE(policy.ok());

  Explanation e = ExplainDecision(*policy, catalog, label,
                                  policy->AllPartitionsMask());
  EXPECT_FALSE(e.accepted);
  ASSERT_EQ(e.partitions.size(), 2u);
  // meetings_side covers the packed atom; the wide atom blocks it at label
  // index size() + 0 = 1.
  EXPECT_FALSE(e.partitions[0].allowed);
  EXPECT_EQ(e.partitions[0].blocking_atom, label.size());
  EXPECT_TRUE(e.partitions[0].blocking_atom_wide);
  EXPECT_EQ(e.partitions[0].covering_views.size(), 33u);
  // wide_w0 covers the wide atom; the packed atom blocks it at index 0.
  EXPECT_FALSE(e.partitions[1].allowed);
  EXPECT_EQ(e.partitions[1].blocking_atom, 0);
  EXPECT_FALSE(e.partitions[1].blocking_atom_wide);
  const std::string rendered = e.ToString();
  EXPECT_NE(rendered.find("blocked by label atom #1 (wide)"),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("blocked by label atom #0 ("), std::string::npos)
      << rendered;
}

// ---- CumulativeTracker -----------------------------------------------------

TEST_F(ExplainTest, TrackerAccumulatesLub) {
  CumulativeTracker tracker;
  label::DisclosureLabel times = Label("Q(x) :- Meetings(x, y)");
  label::DisclosureLabel full = Label("Q(x, y) :- Meetings(x, y)");

  EXPECT_TRUE(tracker.WouldIncrease(times));
  tracker.RecordAnswered(times);
  EXPECT_EQ(tracker.answered_queries(), 1);
  // The same query again adds nothing.
  EXPECT_FALSE(tracker.WouldIncrease(times));
  // The full table is strictly more.
  EXPECT_TRUE(tracker.WouldIncrease(full));
  tracker.RecordAnswered(full);
  EXPECT_FALSE(tracker.WouldIncrease(times));
  EXPECT_FALSE(tracker.WouldIncrease(full));
}

TEST_F(ExplainTest, TrackerThresholds) {
  CumulativeTracker tracker;
  // Threshold: everything meetings_full can reveal.
  label::DisclosureLabel threshold = Label("Q(x, y) :- Meetings(x, y)");
  tracker.RecordAnswered(Label("Q(x) :- Meetings(x, y)"));
  EXPECT_TRUE(tracker.WithinThreshold(threshold));
  tracker.RecordAnswered(Label("Q(x) :- Contacts(x, y, z)"));
  EXPECT_FALSE(tracker.WithinThreshold(threshold));
}

TEST_F(ExplainTest, TrackerDescribesAtoms) {
  CumulativeTracker tracker;
  tracker.RecordAnswered(Label("Q(x) :- Meetings(x, y)"));
  auto description = tracker.DescribeAtoms(*catalog_);
  ASSERT_EQ(description.size(), 1u);
  EXPECT_EQ(description[0],
            (std::vector<std::string>{"meetings_full", "meeting_times"}));
}

}  // namespace
}  // namespace fdc::policy
