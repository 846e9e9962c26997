// The seed labeling/monitor path must be decision-for-decision consistent:
// Label vs LabelPacked on the §7.2 workload (packed-only, so the two
// coincide), SubmitBatch vs sequential Submit on random label streams, and
// the widened 64-partition monitor state.
#include <gtest/gtest.h>

#include "fb/fb_schema.h"
#include "fb/fb_views.h"
#include "label/pipeline.h"
#include "policy/reference_monitor.h"
#include "test_util.h"
#include "workload/policy_generator.h"
#include "workload/query_generator.h"

namespace fdc::label {
namespace {

using test::FbFixture;

std::vector<cq::ConjunctiveQuery> Workload(const cq::Schema* schema,
                                           int subqueries, int count,
                                           uint64_t seed) {
  return test::RandomWorkload(schema, subqueries, count, seed);
}

TEST(BatchPipelineTest, LabelAgreesWithLabelPacked) {
  FbFixture fb;
  LabelingPipeline seed_pipeline(&fb.catalog);
  LabelingPipeline pipeline(&fb.catalog);
  for (int subqueries = 1; subqueries <= 3; ++subqueries) {
    for (const auto& query :
         Workload(&fb.schema, subqueries, 200, 0xbeef + subqueries)) {
      DisclosureLabel expected = seed_pipeline.LabelPacked(query);
      DisclosureLabel got = pipeline.Label(query);
      EXPECT_EQ(got, expected);
    }
  }
}

TEST(BatchPipelineTest, SubmitBatchMatchesSequentialSubmit) {
  FbFixture fb;
  LabelingPipeline pipeline(&fb.catalog);
  workload::PolicyOptions policy_options;
  policy_options.max_partitions = 5;
  workload::PolicyGenerator policies(&fb.catalog, policy_options, 0x9090);

  for (int trial = 0; trial < 10; ++trial) {
    const policy::SecurityPolicy policy = policies.Next();
    policy::ReferenceMonitor monitor(&policy);
    auto queries = Workload(&fb.schema, 1, 128, 0xaaaa + trial);
    // Duplicate-heavy stream.
    const std::vector<cq::ConjunctiveQuery> prefix(queries.begin(),
                                                   queries.begin() + 64);
    queries.insert(queries.end(), prefix.begin(), prefix.end());
    std::vector<DisclosureLabel> labels;
    labels.reserve(queries.size());
    for (const auto& query : queries) labels.push_back(pipeline.Label(query));

    policy::PrincipalState sequential = monitor.InitialState();
    std::vector<bool> expected;
    expected.reserve(labels.size());
    for (const auto& label : labels) {
      expected.push_back(monitor.Submit(&sequential, label));
    }

    policy::PrincipalState batched = monitor.InitialState();
    const auto decisions = monitor.SubmitBatch(&batched, labels);
    EXPECT_EQ(decisions, expected);
    EXPECT_EQ(batched.consistent, sequential.consistent);
  }
}

TEST(BatchPipelineTest, MonitorSupportsUpTo64Partitions) {
  cq::Schema schema = test::MakePaperSchema();
  ViewCatalog catalog(&schema);
  auto v0 = catalog.AddViewText("scan", "V(x, y) :- Meetings(x, y)");
  auto v1 = catalog.AddViewText("times", "V(x) :- Meetings(x, y)");
  ASSERT_TRUE(v0.ok());
  ASSERT_TRUE(v1.ok());

  // 64 partitions: the first 63 hold only the narrow view, the last holds
  // the full scan. A scan query must be refused by all but partition 63.
  std::vector<policy::Partition> partitions;
  for (int i = 0; i < 63; ++i) {
    partitions.push_back({"narrow" + std::to_string(i), {*v1}});
  }
  partitions.push_back({"wide", {*v0}});
  auto policy = policy::SecurityPolicy::Compile(catalog, partitions);
  ASSERT_TRUE(policy.ok());
  EXPECT_EQ(policy->AllPartitionsMask(), ~0ULL);

  LabelingPipeline pipeline(&catalog);
  policy::ReferenceMonitor monitor(&*policy);
  policy::PrincipalState state = monitor.InitialState();
  const auto scan_label =
      pipeline.Label(test::Q("Q(x, y) :- Meetings(x, y)", schema));
  ASSERT_TRUE(monitor.Submit(&state, scan_label));
  // Only the high bit (partition 63) survives — exercising state bits
  // beyond the old 32-bit word.
  EXPECT_EQ(state.consistent, 1ULL << 63);
}

}  // namespace
}  // namespace fdc::label
