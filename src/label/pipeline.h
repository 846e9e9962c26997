// The paper's per-view labelers (§4.2 dissection + §5.2 + §6.1), one class
// holding only a catalog and its DissectOptions. Every method dissects the
// query (folding included) and tests each dissected atom against security
// views with rewriting::AtomRewritable, one test per (atom, view):
//
//   * LabelBaseline — Figure 5's "baseline": LabelGen adapted directly
//                     from §4.2, scanning the *entire* catalog per atom and
//                     collecting ℓ+ as a sorted id set;
//   * LabelHashed   — "hashing only": only the views of the atom's
//                     relation (the catalog's per-relation buckets);
//   * LabelPacked   — "bit vectors + hashing": the bucket scan into packed
//                     64-bit atoms (§6.1), packed-only;
//   * LabelWide     — every atom as a multi-word mask, no view-count cap;
//   * Label         — the paper's label in the serving representation:
//                     packed atoms for relations with at most
//                     kPackedViewCapacity views, wide atoms beyond
//                     (UsesWideAtoms).
//
// Label is the seed path's labeler. It shares no code with the serving
// kernel (label::LabelQueriesBatched over the compiled matcher) and no
// memo, so the engine tests and perfbench's decision check compare every
// served label against the paper's definition. LabelHashed, LabelPacked,
// LabelWide and Label run one per-view loop; only LabelBaseline scans the
// whole catalog. All methods are const and keep no state, so one instance
// may be shared by any number of threads.
#pragma once

#include <set>
#include <vector>

#include "cq/query.h"
// Callers that also label through the serving kernel reach
// LabelQueriesBatched and its scratch types through this header.
#include "label/batch_label.h"
#include "label/compressed_label.h"
#include "label/dissect.h"
#include "label/view_catalog.h"

namespace fdc::label {

/// Set-based label: per dissected atom, the catalog ids of views in ℓ+ as a
/// genuine set container — this is the §4.2 representation that the §6.1
/// bit vectors replace, kept as an honest comparison point (Figure 5's
/// "baseline" and "hashing only" series) and for analysis tooling.
struct SetLabel {
  std::vector<std::set<int>> per_atom;
  bool top = false;  // some atom matched no view

  /// ⪯ in the label lattice (mirrors DisclosureLabel::Leq).
  bool Leq(const SetLabel& other) const;
};

class LabelingPipeline {
 public:
  /// `catalog` must outlive the pipeline.
  explicit LabelingPipeline(const ViewCatalog* catalog,
                            DissectOptions dissect_options = {})
      : catalog_(catalog), dissect_options_(dissect_options) {}

  /// Figure 5 series "baseline".
  SetLabel LabelBaseline(const cq::ConjunctiveQuery& query) const;

  /// Figure 5 series "hashing only".
  SetLabel LabelHashed(const cq::ConjunctiveQuery& query) const;

  /// Figure 5 series "bit vectors + hashing". Packed masks carry
  /// kPackedViewCapacity (32) views per relation; views with bit ≥ 32 are
  /// excluded (labels strictly higher — fail-safe). Label has no such
  /// edge: it emits wide atoms for relations beyond the packed capacity.
  DisclosureLabel LabelPacked(const cq::ConjunctiveQuery& query) const;

  /// Every atom in multi-word form (ablation A2); no per-relation
  /// view-count limit.
  WideLabel LabelWide(const cq::ConjunctiveQuery& query) const;

  /// The sealed disclosure label of `query`, packed or wide per relation
  /// exactly as the serving kernel represents it, so the two compare with
  /// operator==.
  DisclosureLabel Label(const cq::ConjunctiveQuery& query) const;

  const ViewCatalog& catalog() const { return *catalog_; }

 private:
  const ViewCatalog* catalog_;
  DissectOptions dissect_options_;
};

}  // namespace fdc::label
