#include "label/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "fb/fb_schema.h"
#include "fb/fb_views.h"
#include "workload/query_generator.h"
#include "test_util.h"

namespace fdc::label {
namespace {

using cq::Schema;

// ---- Figure 1: labels of Q1 and Q2 ---------------------------------------

class Figure1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = test::MakePaperSchema();
    catalog_ = std::make_unique<ViewCatalog>(&schema_);
    // Security views of Figure 1(b).
    ASSERT_TRUE(
        catalog_->AddViewText("V1", "V1(x, y) :- Meetings(x, y)").ok());
    ASSERT_TRUE(catalog_->AddViewText("V2", "V2(x) :- Meetings(x, y)").ok());
    ASSERT_TRUE(
        catalog_->AddViewText("V3", "V3(x, y, z) :- Contacts(x, y, z)").ok());
  }

  std::vector<std::string> NamesOf(const SetLabel& label) {
    std::vector<std::string> names;
    for (const auto& per_atom : label.per_atom) {
      for (int id : per_atom) names.push_back(catalog_->view(id).name);
    }
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    return names;
  }

  Schema schema_;
  std::unique_ptr<ViewCatalog> catalog_;
};

TEST_F(Figure1Test, LabelOfQ1IsV1) {
  // Q1 selects meetings with Cathy: needs the full Meetings view, not V2.
  LabelingPipeline pipeline(catalog_.get());
  auto q1 = test::Q("Q1(x) :- Meetings(x, 'Cathy')", schema_);
  SetLabel label = pipeline.LabelHashed(q1);
  EXPECT_FALSE(label.top);
  EXPECT_EQ(NamesOf(label), (std::vector<std::string>{"V1"}));
}

TEST_F(Figure1Test, LabelOfQ2IsV1AndV3) {
  LabelingPipeline pipeline(catalog_.get());
  auto q2 = test::Q("Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
                    schema_);
  SetLabel label = pipeline.LabelHashed(q2);
  EXPECT_FALSE(label.top);
  EXPECT_EQ(NamesOf(label), (std::vector<std::string>{"V1", "V3"}));
}

TEST_F(Figure1Test, TimeOnlyQueryLabeledV2AndV1) {
  // π_time is answerable from V2 *and* from V1; ℓ+ records both.
  LabelingPipeline pipeline(catalog_.get());
  auto q = test::Q("Q(x) :- Meetings(x, y)", schema_);
  SetLabel label = pipeline.LabelHashed(q);
  EXPECT_EQ(NamesOf(label), (std::vector<std::string>{"V1", "V2"}));
}

TEST_F(Figure1Test, UncoveredQueryIsTop) {
  LabelingPipeline pipeline(catalog_.get());
  // Select the person column only: V2 can't answer, V1 can — so not top.
  auto by_person = test::Q("Q(y) :- Meetings(x, y)", schema_);
  EXPECT_FALSE(pipeline.LabelHashed(by_person).top);
  // A catalog without V1/V3 makes Contacts queries top.
  ViewCatalog small(&schema_);
  ASSERT_TRUE(small.AddViewText("V2", "V2(x) :- Meetings(x, y)").ok());
  LabelingPipeline small_pipeline(&small);
  auto q = test::Q("Q(x) :- Contacts(x, y, z)", schema_);
  EXPECT_TRUE(small_pipeline.LabelHashed(q).top);
}

// ---- The variants agree on the Facebook workload ---------------------------

class PipelineAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineAgreementTest, AllVariantsComputeTheSameLabel) {
  cq::Schema schema = fb::BuildFacebookSchema();
  ViewCatalog catalog(&schema);
  ASSERT_TRUE(fb::RegisterFacebookViews(&catalog).ok());
  LabelingPipeline pipeline(&catalog);

  workload::GeneratorOptions options;
  options.subqueries = 3;
  workload::QueryGenerator generator(&schema, options, GetParam());

  for (int i = 0; i < 60; ++i) {
    cq::ConjunctiveQuery q = generator.Next();
    SetLabel baseline = pipeline.LabelBaseline(q);
    SetLabel hashed = pipeline.LabelHashed(q);
    DisclosureLabel packed = pipeline.LabelPacked(q);
    WideLabel wide = pipeline.LabelWide(q);
    DisclosureLabel label = pipeline.Label(q);

    // Baseline and hashed produce identical id sets.
    EXPECT_EQ(baseline.per_atom, hashed.per_atom);
    EXPECT_EQ(baseline.top, hashed.top);
    EXPECT_EQ(hashed.top, packed.top());
    EXPECT_EQ(packed.top(), wide.top());
    // The catalog is packed-only, so Label is LabelPacked exactly.
    EXPECT_EQ(label, packed);

    // Packed masks encode exactly the hashed id sets.
    std::multiset<std::pair<uint32_t, uint32_t>> from_sets;
    for (size_t a = 0; a < hashed.per_atom.size(); ++a) {
      if (hashed.per_atom[a].empty()) continue;  // top atom, not stored
      const uint32_t relation = static_cast<uint32_t>(
          catalog.view(*hashed.per_atom[a].begin()).relation);
      uint32_t mask = 0;
      for (int id : hashed.per_atom[a]) {
        mask |= (1u << catalog.view(id).bit);
      }
      from_sets.insert({relation, mask});
    }
    std::multiset<std::pair<uint32_t, uint32_t>> from_packed;
    for (const PackedAtomLabel& atom : packed.atoms()) {
      from_packed.insert({atom.relation(), atom.mask()});
    }
    // Seal() dedupes; dedupe the set view as well.
    std::set<std::pair<uint32_t, uint32_t>> lhs(from_sets.begin(),
                                                from_sets.end());
    std::set<std::pair<uint32_t, uint32_t>> rhs(from_packed.begin(),
                                                from_packed.end());
    EXPECT_EQ(lhs, rhs);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineAgreementTest,
                         ::testing::Values(101, 202, 303));

// ---- Folding ablation ------------------------------------------------------

TEST(PipelineAblationTest, NoFoldLabelsAreSoundButWider) {
  cq::Schema schema = test::MakePaperSchema();
  ViewCatalog catalog(&schema);
  ASSERT_TRUE(catalog.AddViewText("V1", "V1(x, y) :- Meetings(x, y)").ok());
  ASSERT_TRUE(
      catalog.AddViewText("V3", "V3(x, y, z) :- Contacts(x, y, z)").ok());

  DissectOptions no_fold;
  no_fold.fold = false;
  LabelingPipeline with_fold(&catalog);
  LabelingPipeline without_fold(&catalog, no_fold);

  // Redundant-join query: with folding it needs only V1; without folding
  // the Contacts atom also enters the label.
  auto q = test::Q(
      "Q(x) :- Meetings(x, y), Meetings(x, z), Contacts(p, q, r)",
      schema);
  // Contacts atom is disconnected & boolean — folding keeps it (it is not
  // implied by Meetings atoms), but the duplicate Meetings atom goes away.
  DisclosureLabel folded = with_fold.LabelPacked(q);
  DisclosureLabel unfolded = without_fold.LabelPacked(q);
  EXPECT_LE(folded.size(), unfolded.size());
  // Both must bound the query: folded ⪯ unfolded (less or equal info).
  EXPECT_TRUE(folded.Leq(unfolded));
}

}  // namespace
}  // namespace fdc::label
