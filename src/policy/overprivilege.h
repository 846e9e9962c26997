// Overprivilege detection (§2.2): apps that request more permissions than
// their query workload needs — "due to developer error" — are flagged by
// comparing the requested view set against the labels of observed queries.
#pragma once

#include <vector>

#include "cq/query.h"
#include "label/view_catalog.h"

namespace fdc::policy {

struct OverprivilegeReport {
  /// Requested views that appear in no observed atom's ℓ+ set: revoking
  /// them cannot break any observed query.
  std::vector<int> unused_views;

  /// A minimal sufficient subset of the requested views (greedy set cover
  /// over atoms; minimal w.r.t. removal, not guaranteed minimum).
  std::vector<int> minimal_sufficient;

  /// Number of observed query atoms not answerable even with everything
  /// requested — the app is simultaneously over- and under-privileged.
  int unanswerable_atoms = 0;

  bool overprivileged() const { return !unused_views.empty(); }
};

/// Labels `workload` (LabelingPipeline::LabelHashed: folding enabled, one
/// rewritability test per atom and view of its relation) and analyzes it
/// against `requested_views` (catalog ids).
OverprivilegeReport AnalyzeOverprivilege(
    const label::ViewCatalog& catalog, const std::vector<int>& requested_views,
    const std::vector<cq::ConjunctiveQuery>& workload);

}  // namespace fdc::policy
