#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "fb/fb_schema.h"
#include "fb/fb_views.h"
#include "label/pipeline.h"
#include "policy/reference_monitor.h"
#include "workload/label_stream.h"
#include "workload/policy_generator.h"
#include "workload/query_generator.h"

namespace fdc::workload {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = fb::BuildFacebookSchema();
    catalog_ = std::make_unique<label::ViewCatalog>(&schema_);
    ASSERT_TRUE(fb::RegisterFacebookViews(catalog_.get()).ok());
  }

  cq::Schema schema_;
  std::unique_ptr<label::ViewCatalog> catalog_;
};

TEST_F(WorkloadTest, DeterministicGivenSeed) {
  GeneratorOptions options;
  QueryGenerator g1(&schema_, options, 42);
  QueryGenerator g2(&schema_, options, 42);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(g1.Next(), g2.Next());
  }
}

TEST_F(WorkloadTest, DifferentSeedsDiffer) {
  GeneratorOptions options;
  QueryGenerator g1(&schema_, options, 1);
  QueryGenerator g2(&schema_, options, 2);
  int differing = 0;
  for (int i = 0; i < 20; ++i) {
    differing += (g1.Next() == g2.Next()) ? 0 : 1;
  }
  EXPECT_GT(differing, 10);
}

TEST_F(WorkloadTest, RealisticQueriesHave1To3Atoms) {
  GeneratorOptions options;
  options.subqueries = 1;
  QueryGenerator generator(&schema_, options, 7);
  for (int i = 0; i < 300; ++i) {
    cq::ConjunctiveQuery q = generator.Next();
    EXPECT_GE(q.size(), 1);
    EXPECT_LE(q.size(), 3);
    EXPECT_TRUE(q.Validate(schema_).ok());
    EXPECT_FALSE(q.head().empty());
  }
}

TEST_F(WorkloadTest, StressQueriesRespectAtomBudget) {
  for (int k = 2; k <= 5; ++k) {
    GeneratorOptions options;
    options.subqueries = k;
    QueryGenerator generator(&schema_, options, 13 * k);
    int max_seen = 0;
    for (int i = 0; i < 200; ++i) {
      cq::ConjunctiveQuery q = generator.Next();
      EXPECT_LE(q.size(), 3 * k);
      EXPECT_TRUE(q.Validate(schema_).ok());
      max_seen = std::max(max_seen, q.size());
    }
    EXPECT_GT(max_seen, 3) << "stress mode should exceed realistic sizes";
  }
}

TEST_F(WorkloadTest, AudienceWeightsRespected) {
  GeneratorOptions options;
  options.audience_weights[0] = 1.0;  // self only
  options.audience_weights[1] = 0.0;
  options.audience_weights[2] = 0.0;
  options.audience_weights[3] = 0.0;
  QueryGenerator generator(&schema_, options, 5);
  for (int i = 0; i < 100; ++i) {
    cq::ConjunctiveQuery q = generator.Next();
    EXPECT_EQ(q.size(), 1);  // self queries never join Friend
  }
}

TEST_F(WorkloadTest, MostRealisticQueriesAreLabelable) {
  label::LabelingPipeline pipeline(catalog_.get());
  GeneratorOptions options;
  QueryGenerator generator(&schema_, options, 11);
  int labelable = 0;
  const int total = 200;
  for (int i = 0; i < total; ++i) {
    if (!pipeline.LabelPacked(generator.Next()).top()) ++labelable;
  }
  // Self/friend queries are coverable; fof/other payloads often are not
  // (only public attributes leak) — at least the self/friend half must
  // label below ⊤.
  EXPECT_GT(labelable, total / 4);
  EXPECT_LT(labelable, total);  // fof grouped-attribute queries remain ⊤
}

TEST_F(WorkloadTest, PolicyGeneratorBounds) {
  PolicyOptions options;
  options.max_partitions = 5;
  options.max_elements_per_partition = 10;
  PolicyGenerator generator(catalog_.get(), options, 21);
  for (int i = 0; i < 50; ++i) {
    policy::SecurityPolicy policy = generator.Next();
    EXPECT_GE(policy.num_partitions(), 1);
    EXPECT_LE(policy.num_partitions(), 5);
    for (const policy::Partition& partition : policy.partitions()) {
      EXPECT_GE(partition.view_ids.size(), 1u);
      EXPECT_LE(partition.view_ids.size(), 10u);
      // Distinct views.
      std::vector<int> ids = partition.view_ids;
      std::sort(ids.begin(), ids.end());
      EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
    }
  }
}

TEST_F(WorkloadTest, StatelessPolicyOptionYieldsOnePartition) {
  PolicyOptions options;
  options.max_partitions = 1;
  PolicyGenerator generator(catalog_.get(), options, 3);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(generator.Next().num_partitions(), 1);
  }
}

TEST_F(WorkloadTest, LabelStreamShape) {
  label::LabelingPipeline pipeline(catalog_.get());
  auto stream = GenerateLabelStream(pipeline, 500, 10, 77);
  ASSERT_EQ(stream.size(), 500u);
  std::vector<int> per_principal(10, 0);
  for (const LabeledQuery& lq : stream) {
    ASSERT_LT(lq.principal, 10u);
    ++per_principal[lq.principal];
    EXPECT_LE(lq.label.size(), 3);
  }
  // Every principal sees some traffic.
  for (int count : per_principal) EXPECT_GT(count, 0);
}

TEST_F(WorkloadTest, EndToEndMonitorRunOnGeneratedWorkload) {
  // Glue test: stream labels through per-principal monitors; accepted
  // fraction must be neither 0 nor 1 for a meaningful benchmark.
  label::LabelingPipeline pipeline(catalog_.get());
  auto stream = GenerateLabelStream(pipeline, 1000, 20, 123);
  PolicyOptions options;
  PolicyGenerator policy_gen(catalog_.get(), options, 9);
  std::vector<policy::SecurityPolicy> policies;
  std::vector<policy::PrincipalState> states;
  for (int p = 0; p < 20; ++p) {
    policies.push_back(policy_gen.Next());
    states.push_back(
        policy::ReferenceMonitor(&policies.back()).InitialState());
  }
  int accepted = 0;
  for (const LabeledQuery& lq : stream) {
    policy::ReferenceMonitor monitor(&policies[lq.principal]);
    accepted += monitor.Submit(&states[lq.principal], lq.label) ? 1 : 0;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 1000);
}

}  // namespace
}  // namespace fdc::workload
