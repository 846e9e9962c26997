#include <gtest/gtest.h>

#include "fb/fb_audit.h"
#include "fb/fb_documentation.h"
#include "fb/fb_schema.h"
#include "fb/fb_views.h"
#include "label/pipeline.h"
#include "test_util.h"

namespace fdc::fb {
namespace {

class FbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = BuildFacebookSchema();
    catalog_ = std::make_unique<label::ViewCatalog>(&schema_);
    auto added = RegisterFacebookViews(catalog_.get());
    ASSERT_TRUE(added.ok()) << added.status().ToString();
    views_added_ = *added;
  }

  cq::Schema schema_;
  std::unique_ptr<label::ViewCatalog> catalog_;
  int views_added_ = 0;
};

// ---- Schema shape (§7.2) ---------------------------------------------------

TEST_F(FbTest, EightRelations) {
  EXPECT_EQ(schema_.NumRelations(), 8);
}

TEST_F(FbTest, UserHas34Attributes) {
  EXPECT_EQ(schema_.Find(kUser)->arity(), 34);
}

TEST_F(FbTest, OtherRelationsHave3To10Attributes) {
  for (const cq::RelationDef& rel : schema_.relations()) {
    if (rel.name == kUser) continue;
    EXPECT_GE(rel.arity(), 3) << rel.name;
    EXPECT_LE(rel.arity(), 10) << rel.name;
  }
}

TEST_F(FbTest, EveryRelationHasOwnerAndViewerRel) {
  for (const cq::RelationDef& rel : schema_.relations()) {
    EXPECT_GE(OwnerUidIndex(schema_, rel.id), 0) << rel.name;
    EXPECT_GE(ViewerRelIndex(schema_, rel.id), 0) << rel.name;
  }
}

// ---- View catalog (§7.2) ----------------------------------------------------

TEST_F(FbTest, SixteenUserViews) {
  const int user = schema_.Find(kUser)->id;
  EXPECT_EQ(catalog_->ViewsOfRelation(user).size(), 16u);
}

TEST_F(FbTest, ThreeViewsPerOtherRelation) {
  for (const cq::RelationDef& rel : schema_.relations()) {
    if (rel.name == kUser) continue;
    EXPECT_EQ(catalog_->ViewsOfRelation(rel.id).size(), 3u) << rel.name;
  }
}

TEST_F(FbTest, TotalViewCount) {
  EXPECT_EQ(views_added_, 16 + 7 * 3);
  EXPECT_EQ(catalog_->size(), 37);
  EXPECT_LE(catalog_->MaxViewsPerRelation(), 32);  // packed labels fit
}

TEST_F(FbTest, PermissionNamesResolvable) {
  for (const char* name :
       {"public_profile", "self_profile", "user_likes", "friends_likes",
        "user_birthday", "friends_birthday", "friend_list_public",
        "user_photos", "friends_statuses"}) {
    EXPECT_NE(catalog_->FindByName(name), nullptr) << name;
  }
}

// ---- Attribute-query labeling ----------------------------------------------

TEST_F(FbTest, SelfBirthdayNeedsUserBirthday) {
  label::LabelingPipeline pipeline(catalog_.get());
  auto q = MakeAttributeQuery(schema_, "birthday", kSelf);
  label::SetLabel label = pipeline.LabelHashed(q);
  ASSERT_EQ(label.per_atom.size(), 1u);
  ASSERT_EQ(label.per_atom[0].size(), 1u);
  EXPECT_EQ(catalog_->view(*label.per_atom[0].begin()).name, "user_birthday");
}

TEST_F(FbTest, FriendBirthdayNeedsFriendsBirthday) {
  label::LabelingPipeline pipeline(catalog_.get());
  auto q = MakeAttributeQuery(schema_, "birthday", kFriendRel);
  label::SetLabel label = pipeline.LabelHashed(q);
  ASSERT_EQ(label.per_atom.size(), 1u);
  ASSERT_EQ(label.per_atom[0].size(), 1u);
  EXPECT_EQ(catalog_->view(*label.per_atom[0].begin()).name, "friends_birthday");
}

TEST_F(FbTest, PublicAttributeNeedsNoGroupPermission) {
  label::LabelingPipeline pipeline(catalog_.get());
  auto q = MakeAttributeQuery(schema_, "name", kOther);
  label::SetLabel label = pipeline.LabelHashed(q);
  ASSERT_EQ(label.per_atom.size(), 1u);
  ASSERT_EQ(label.per_atom[0].size(), 1u);
  EXPECT_EQ(catalog_->view(*label.per_atom[0].begin()).name, "public_profile");
}

TEST_F(FbTest, EveryViewIsItsOwnFixpoint) {
  // Definition 3.4(b): labels of the security views themselves are
  // fixpoints. For every catalog view, labeling its defining query must
  // include the view in its own ℓ+ set, and every other view in the set
  // must be mutually rewritable-from (≡ or above).
  label::LabelingPipeline pipeline(catalog_.get());
  for (const label::SecurityView& view : catalog_->views()) {
    cq::ConjunctiveQuery def = view.pattern.ToQuery(view.name);
    label::SetLabel label = pipeline.LabelHashed(def);
    ASSERT_FALSE(label.top) << view.name;
    ASSERT_EQ(label.per_atom.size(), 1u) << view.name;
    EXPECT_TRUE(label.per_atom[0].contains(view.id)) << view.name;
  }
}

TEST_F(FbTest, ViewsWithinRelationMostlyIncomparable) {
  // The 16 User views form a generating set: apart from the deliberate
  // overlap between self_profile and the group views (disjoint attribute
  // sets, so none), no view should subsume another. A subsumption would be
  // a redundant permission (§2.2's smell).
  label::LabelingPipeline pipeline(catalog_.get());
  const int user = schema_.Find(kUser)->id;
  for (int a : catalog_->ViewsOfRelation(user)) {
    cq::ConjunctiveQuery def = catalog_->view(a).pattern.ToQuery("V");
    label::SetLabel label = pipeline.LabelHashed(def);
    EXPECT_EQ(label.per_atom[0].size(), 1u)
        << catalog_->view(a).name << " subsumed by another view";
  }
}

TEST_F(FbTest, FofGroupedAttributeIsTop) {
  label::LabelingPipeline pipeline(catalog_.get());
  auto q = MakeAttributeQuery(schema_, "birthday", kFof);
  EXPECT_TRUE(pipeline.LabelHashed(q).top);
}

TEST_F(FbTest, JoinBasedFriendQueryLabels) {
  // The §7.2 workload shape: Friend('me', f) ⋈ User(f, 'friend', ...).
  const int user = schema_.Find(kUser)->id;
  const int fr = schema_.Find(kFriend)->id;
  const cq::RelationDef* user_def = schema_.FindById(user);
  std::vector<cq::Term> user_terms;
  std::vector<cq::Term> head;
  const int uid_idx = user_def->AttributeIndex("uid");
  const int rel_idx = user_def->AttributeIndex("viewer_rel");
  const int bday_idx = user_def->AttributeIndex("birthday");
  for (int i = 0; i < user_def->arity(); ++i) {
    if (i == uid_idx) {
      user_terms.push_back(cq::Term::Var(0));
    } else if (i == rel_idx) {
      user_terms.push_back(cq::Term::Const(kFriendRel));
    } else {
      user_terms.push_back(cq::Term::Var(10 + i));
      if (i == bday_idx) head.push_back(cq::Term::Var(10 + i));
    }
  }
  cq::ConjunctiveQuery q(
      "Q", head,
      {cq::Atom(fr, {cq::Term::Const("me"), cq::Term::Var(0),
                     cq::Term::Var(1)}),
       cq::Atom(user, user_terms)});
  ASSERT_TRUE(q.Validate(schema_).ok());

  label::LabelingPipeline pipeline(catalog_.get());
  label::SetLabel label = pipeline.LabelHashed(q);
  EXPECT_FALSE(label.top);
  ASSERT_EQ(label.per_atom.size(), 2u);
  // Friend atom covered by friend_list_public; User atom by
  // friends_birthday.
  std::vector<std::string> names;
  for (const auto& per_atom : label.per_atom) {
    for (int id : per_atom) names.push_back(catalog_->view(id).name);
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "friends_birthday"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "friend_list_public"),
            names.end());
}

// ---- Documentation tables ----------------------------------------------------

TEST(FbDocumentationTest, FortyTwoViews) {
  EXPECT_EQ(DocumentedUserViews().size(), 42u);
}

TEST(FbDocumentationTest, ExactlySixInconsistent) {
  int inconsistent = 0;
  for (const DocumentedView& doc : DocumentedUserViews()) {
    if (!(doc.fql == doc.graph)) ++inconsistent;
  }
  EXPECT_EQ(inconsistent, 6);
}

TEST(FbDocumentationTest, ActualAlwaysMatchesOneDoc) {
  for (const DocumentedView& doc : DocumentedUserViews()) {
    EXPECT_TRUE(doc.actual == doc.fql || doc.actual == doc.graph)
        << doc.attribute;
  }
}

TEST(FbDocumentationTest, RequirementToString) {
  EXPECT_EQ(Requirement::None().ToString(), "none");
  EXPECT_EQ(Requirement::Any().ToString(), "any");
  EXPECT_EQ(Requirement::Forbidden().ToString(), "forbidden");
  EXPECT_EQ(Requirement::Perms({"a", "b"}).ToString(), "a or b");
}

// ---- The audit (Table 2) ------------------------------------------------------

TEST_F(FbTest, AuditReproducesTable2) {
  AuditResult result = RunFacebookAudit(*catalog_);
  EXPECT_EQ(result.total_views, 42);
  EXPECT_EQ(result.consistent, 36);
  ASSERT_EQ(result.inconsistencies.size(), 6u);

  // The six attributes of Table 2, in order.
  const std::vector<std::string> expected_attrs = {
      "pic", "timezone", "devices", "relationship_status", "quotes",
      "profile_url"};
  const std::vector<std::string> expected_correct = {
      "FQL", "Graph API", "Graph API", "Graph API", "FQL", "FQL"};
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(result.inconsistencies[i].attribute, expected_attrs[i]);
    EXPECT_EQ(result.inconsistencies[i].correct_api, expected_correct[i]);
  }
}

TEST_F(FbTest, AuditLabelerCrossCheckClean) {
  // The data-derived labeler agrees with observed behaviour on every
  // permission-guarded attribute — the paper's core claim.
  AuditResult result = RunFacebookAudit(*catalog_);
  EXPECT_TRUE(result.labeler_mismatches.empty())
      << "first mismatch: "
      << (result.labeler_mismatches.empty() ? ""
                                            : result.labeler_mismatches[0]);
}

TEST_F(FbTest, RenderTable2Shape) {
  AuditResult result = RunFacebookAudit(*catalog_);
  std::string table = RenderTable2(result);
  EXPECT_NE(table.find("pic"), std::string::npos);
  EXPECT_NE(table.find("quotes"), std::string::npos);
  EXPECT_NE(table.find("6 of 42"), std::string::npos);
}

}  // namespace
}  // namespace fdc::fb
