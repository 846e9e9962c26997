// The one labeling kernel: whole-query disclosure labels through the
// compiled matcher's batch kernel (§5.2 dissection + §6.1 per-atom ℓ+).
//
// Every served label — engine::ConcurrentLabeler's tier walk and
// engine::FrozenCatalog's build-time table — is computed by
// LabelQueriesBatched, whether the batch holds one query or thousands. The
// paper's per-view labelers (label::LabelingPipeline: Label, LabelPacked,
// LabelWide, in label/pipeline.h) share none of this code and are the
// oracles it is checked against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cq/pattern.h"
#include "cq/query.h"
#include "label/compiled_matcher.h"
#include "label/compressed_label.h"
#include "label/dissect.h"

namespace fdc::label {

/// Working state for LabelQueriesBatched, reusable across calls: the
/// dissected atoms, their relation-bucketed order, the bucket mask buffer
/// hoisted out of the bucket loop (sized once per call by
/// CompiledCatalogMatcher::max_mask_words() × the largest bucket), and the
/// matcher's BatchScratch. A warm scratch makes the whole bucket/kernel
/// phase allocation-free; confine an instance to one thread.
struct BatchLabelScratch {
  std::vector<cq::AtomPattern> atoms;
  std::vector<int32_t> atom_query;  // atoms[i] dissected from query atom_query[i]
  std::vector<int32_t> order;       // atom indices, bucketed by relation
  std::vector<const cq::AtomPattern*> bucket;  // current bucket's patterns
  std::vector<uint64_t> masks;      // hoisted per-bucket mask rows
  BatchScratch kernel;
};

/// Counters LabelQueriesBatched accumulates for the caller's stats.
struct BatchLabelCounters {
  uint64_t batch_mask_evals = 0;        // masks evaluated through the kernel
  uint64_t wide_mask_evals = 0;         // of those, wide-relation masks
  uint64_t per_view_tests_avoided = 0;  // seed per-view tests replaced
};

/// Dissects every query, buckets the dissected atoms per relation,
/// evaluates each bucket in one CompiledCatalogMatcher::MatchMaskBatch
/// call, and scatters the mask rows into one Sealed DisclosureLabel per
/// query (labels[i] for queries[i]). Relations beyond the packed view
/// capacity get exact multi-word wide atoms; the rest keep the packed
/// representation. Pure reads of `matcher`; thread-safe given a per-thread
/// scratch.
void LabelQueriesBatched(const CompiledCatalogMatcher& matcher,
                         DissectOptions dissect_options,
                         std::span<const cq::ConjunctiveQuery* const> queries,
                         BatchLabelScratch* scratch,
                         std::vector<DisclosureLabel>* labels,
                         BatchLabelCounters* counters);

}  // namespace fdc::label
