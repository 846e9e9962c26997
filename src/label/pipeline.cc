#include "label/pipeline.h"

#include <algorithm>

#include "rewriting/atom_rewriting.h"

namespace fdc::label {

namespace {

// The per-view loop: calls visit(view) for every view of `atom`'s relation
// that `atom` is rewritable by, one AtomRewritable test per view.
template <typename Visit>
void ForEachRewritingView(const ViewCatalog& catalog,
                          const cq::AtomPattern& atom, Visit visit) {
  for (int view_id : catalog.ViewsOfRelation(atom.relation)) {
    const SecurityView& view = catalog.view(view_id);
    if (rewriting::AtomRewritable(atom, view.pattern)) visit(view);
  }
}

PackedAtomLabel PackedAtom(const ViewCatalog& catalog,
                           const cq::AtomPattern& atom) {
  uint32_t mask = 0;
  ForEachRewritingView(catalog, atom, [&mask](const SecurityView& view) {
    // Packed masks hold kPackedViewCapacity views per relation; views
    // beyond that are excluded (labels get strictly higher — fail-safe),
    // never shifted out of range.
    if (view.bit < kPackedViewCapacity) mask |= 1u << view.bit;
  });
  return PackedAtomLabel(static_cast<uint32_t>(atom.relation), mask);
}

WideAtomLabel WideAtom(const ViewCatalog& catalog,
                       const cq::AtomPattern& atom) {
  WideAtomLabel wide;
  wide.relation = atom.relation;
  ForEachRewritingView(catalog, atom,
                       [&wide](const SecurityView& view) {
                         wide.SetBit(view.bit);
                       });
  return wide;
}

}  // namespace

bool SetLabel::Leq(const SetLabel& other) const {
  if (other.top) return true;
  if (top) return false;
  for (const std::set<int>& a : per_atom) {
    bool bounded = false;
    for (const std::set<int>& b : other.per_atom) {
      // ℓ+(a) ⊇ ℓ+(b).
      bounded = std::includes(a.begin(), a.end(), b.begin(), b.end());
      if (bounded) break;
    }
    if (!bounded) return false;
  }
  return true;
}

SetLabel LabelingPipeline::LabelBaseline(
    const cq::ConjunctiveQuery& query) const {
  SetLabel label;
  for (const cq::AtomPattern& atom : Dissect(query, dissect_options_)) {
    std::set<int> plus;
    // Deliberately scan every view in the catalog: views over other
    // relations fail inside AtomRewritable. This is the §4.2 algorithm
    // without the §6 optimizations.
    for (const SecurityView& view : catalog_->views()) {
      if (rewriting::AtomRewritable(atom, view.pattern)) {
        plus.insert(view.id);
      }
    }
    if (plus.empty()) label.top = true;
    label.per_atom.push_back(std::move(plus));
  }
  return label;
}

SetLabel LabelingPipeline::LabelHashed(
    const cq::ConjunctiveQuery& query) const {
  SetLabel label;
  for (const cq::AtomPattern& atom : Dissect(query, dissect_options_)) {
    std::set<int> plus;
    ForEachRewritingView(*catalog_, atom, [&plus](const SecurityView& view) {
      plus.insert(view.id);
    });
    if (plus.empty()) label.top = true;
    label.per_atom.push_back(std::move(plus));
  }
  return label;
}

DisclosureLabel LabelingPipeline::LabelPacked(
    const cq::ConjunctiveQuery& query) const {
  DisclosureLabel label;
  for (const cq::AtomPattern& atom : Dissect(query, dissect_options_)) {
    label.Add(PackedAtom(*catalog_, atom));
  }
  label.Seal();
  return label;
}

WideLabel LabelingPipeline::LabelWide(const cq::ConjunctiveQuery& query) const {
  WideLabel label;
  for (const cq::AtomPattern& atom : Dissect(query, dissect_options_)) {
    label.Add(WideAtom(*catalog_, atom));
  }
  return label;
}

DisclosureLabel LabelingPipeline::Label(
    const cq::ConjunctiveQuery& query) const {
  DisclosureLabel label;
  for (const cq::AtomPattern& atom : Dissect(query, dissect_options_)) {
    const int views =
        static_cast<int>(catalog_->ViewsOfRelation(atom.relation).size());
    if (UsesWideAtoms(views)) {
      label.AddWide(WideAtom(*catalog_, atom));
    } else {
      label.Add(PackedAtom(*catalog_, atom));
    }
  }
  label.Seal();
  return label;
}

}  // namespace fdc::label
