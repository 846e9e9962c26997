#include "workload/label_stream.h"

#include "common/rng.h"

namespace fdc::workload {

std::vector<LabeledQuery> GenerateLabelStream(
    const label::LabelingPipeline& pipeline, int count, uint32_t num_principals,
    uint64_t seed) {
  GeneratorOptions options;
  options.subqueries = 1;  // realistic 1–3 atom queries
  QueryGenerator generator(&pipeline.catalog().schema(), options, seed);
  Rng rng(seed ^ 0xa5a5a5a5a5a5a5a5ULL);
  std::vector<LabeledQuery> out;
  out.reserve(count);
  for (int i = 0; i < count; ++i) {
    LabeledQuery lq;
    lq.label = pipeline.LabelPacked(generator.Next());
    lq.principal = static_cast<uint32_t>(rng.Below(num_principals));
    out.push_back(std::move(lq));
  }
  return out;
}

}  // namespace fdc::workload
