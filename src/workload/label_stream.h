// Pre-labeled query streams for the Figure 6 policy-checker benchmark.
//
// §7.2 runs the policy checker "on a collection of 10 million disclosure
// labels output by the previous experiment", with each labeled query
// containing 1–3 body atoms and a randomly assigned principal. This module
// produces that stream: it generates §7.2 queries, labels them through the
// packed pipeline, and assigns principals deterministically.
#pragma once

#include <cstdint>
#include <vector>

#include "label/compressed_label.h"
#include "label/pipeline.h"
#include "workload/query_generator.h"

namespace fdc::workload {

struct LabeledQuery {
  label::DisclosureLabel label;
  uint32_t principal;
};

/// Generates `count` labeled queries over `pipeline`'s catalog, assigning
/// each to a random principal in [0, num_principals).
std::vector<LabeledQuery> GenerateLabelStream(
    const label::LabelingPipeline& pipeline, int count, uint32_t num_principals,
    uint64_t seed);

}  // namespace fdc::workload
