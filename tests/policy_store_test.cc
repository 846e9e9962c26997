#include "policy/policy_store.h"

#include <gtest/gtest.h>

#include <memory>

#include "fb/fb_audit.h"
#include "fb/fb_schema.h"
#include "fb/fb_views.h"
#include "label/pipeline.h"
#include "policy/reference_monitor.h"
#include "workload/label_stream.h"
#include "workload/policy_generator.h"

namespace fdc::policy {
namespace {

class PolicyStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = fb::BuildFacebookSchema();
    catalog_ = std::make_unique<label::ViewCatalog>(&schema_);
    ASSERT_TRUE(fb::RegisterFacebookViews(catalog_.get()).ok());
    pipeline_ = std::make_unique<label::LabelingPipeline>(catalog_.get());
  }

  cq::Schema schema_;
  std::unique_ptr<label::ViewCatalog> catalog_;
  std::unique_ptr<label::LabelingPipeline> pipeline_;
};

TEST_F(PolicyStoreTest, MatchesPerPrincipalMonitors) {
  // The flat store must make exactly the decisions the object-per-principal
  // reference monitor makes, on identical random inputs.
  workload::PolicyOptions options;
  options.max_partitions = 5;
  options.max_elements_per_partition = 12;
  workload::PolicyGenerator policy_gen(catalog_.get(), options, 5150);

  const int kPrincipals = 40;
  std::vector<SecurityPolicy> policies;
  std::vector<PrincipalState> monitor_states;
  PolicyStore store(schema_.NumRelations());
  store.Reserve(kPrincipals, options.max_partitions);
  for (int p = 0; p < kPrincipals; ++p) {
    policies.push_back(policy_gen.Next());
    monitor_states.push_back(
        ReferenceMonitor(&policies.back()).InitialState());
    auto id = store.AddPrincipal(policies.back());
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, static_cast<uint32_t>(p));
  }

  auto stream = workload::GenerateLabelStream(*pipeline_, 3000, kPrincipals,
                                              909);
  int accepted = 0;
  for (const workload::LabeledQuery& lq : stream) {
    ReferenceMonitor monitor(&policies[lq.principal]);
    const bool expected =
        monitor.Submit(&monitor_states[lq.principal], lq.label);
    const bool got = store.Submit(lq.principal, lq.label);
    ASSERT_EQ(expected, got);
    EXPECT_EQ(monitor_states[lq.principal].consistent,
              store.ConsistentPartitions(lq.principal));
    accepted += got ? 1 : 0;
  }
  EXPECT_GT(accepted, 0);
}

TEST_F(PolicyStoreTest, StatelessIgnoresState) {
  const label::SecurityView* v = catalog_->FindByName("user_likes");
  ASSERT_NE(v, nullptr);
  const label::SecurityView* w = catalog_->FindByName("user_birthday");
  ASSERT_NE(w, nullptr);
  auto policy = SecurityPolicy::Compile(
      *catalog_, {{"likes", {v->id}}, {"bday", {w->id}}});
  ASSERT_TRUE(policy.ok());

  PolicyStore store(schema_.NumRelations());
  ASSERT_TRUE(store.AddPrincipal(*policy).ok());

  label::DisclosureLabel likes =
      pipeline_->LabelPacked(fb::MakeAttributeQuery(schema_, "likes",
                                                    fb::kSelf));
  label::DisclosureLabel bday = pipeline_->LabelPacked(
      fb::MakeAttributeQuery(schema_, "birthday", fb::kSelf));

  ASSERT_TRUE(store.Submit(0, likes));  // locks partition 0
  EXPECT_FALSE(store.Submit(0, bday));  // Chinese Wall blocks
  // Stateless check still accepts birthday on its own.
  EXPECT_TRUE(store.CheckStateless(0, bday));
}

TEST_F(PolicyStoreTest, ResetRestoresAllPartitions) {
  workload::PolicyOptions options;
  workload::PolicyGenerator policy_gen(catalog_.get(), options, 8);
  PolicyStore store(schema_.NumRelations());
  SecurityPolicy policy = policy_gen.Next();
  ASSERT_TRUE(store.AddPrincipal(policy).ok());
  const uint64_t initial = store.ConsistentPartitions(0);

  auto stream = workload::GenerateLabelStream(*pipeline_, 50, 1, 2);
  for (const auto& lq : stream) store.Submit(0, lq.label);
  store.ResetStates();
  EXPECT_EQ(store.ConsistentPartitions(0), initial);
}

TEST_F(PolicyStoreTest, TopLabelRefused) {
  workload::PolicyOptions options;
  workload::PolicyGenerator policy_gen(catalog_.get(), options, 44);
  PolicyStore store(schema_.NumRelations());
  ASSERT_TRUE(store.AddPrincipal(policy_gen.Next()).ok());
  label::DisclosureLabel top;
  top.MarkTop();
  EXPECT_FALSE(store.Submit(0, top));
  EXPECT_FALSE(store.CheckStateless(0, top));
}

TEST_F(PolicyStoreTest, MemoryStaysCompact) {
  workload::PolicyOptions options;
  options.max_partitions = 5;
  workload::PolicyGenerator policy_gen(catalog_.get(), options, 1234);
  PolicyStore store(schema_.NumRelations());
  const int kPrincipals = 1000;
  store.Reserve(kPrincipals, 5);
  for (int i = 0; i < kPrincipals; ++i) {
    ASSERT_TRUE(store.AddPrincipal(policy_gen.Next()).ok());
  }
  // ≤ ~350 bytes/principal: 5 partitions × 8 relations × 8B (one 64-bit
  // mask word per relation — the wide-capable layout) + metadata.
  EXPECT_LT(store.MemoryBytes(), kPrincipals * 400u);
}

}  // namespace
}  // namespace fdc::policy
