#include "label/pipeline.h"

#include <algorithm>

#include "rewriting/atom_rewriting.h"

namespace fdc::label {

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

SetLabel LabelerPipeline::LabelBaseline(
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

SetLabel LabelerPipeline::LabelHashed(const cq::ConjunctiveQuery& query) const {
  SetLabel label;
  for (const cq::AtomPattern& atom : Dissect(query, dissect_options_)) {
    std::set<int> plus;
    for (int view_id : catalog_->ViewsOfRelation(atom.relation)) {
      if (rewriting::AtomRewritable(atom, catalog_->view(view_id).pattern)) {
        plus.insert(view_id);
      }
    }
    if (plus.empty()) label.top = true;
    label.per_atom.push_back(std::move(plus));
  }
  return label;
}

DisclosureLabel LabelerPipeline::LabelPacked(
    const cq::ConjunctiveQuery& query) const {
  DisclosureLabel label;
  for (const cq::AtomPattern& atom : Dissect(query, dissect_options_)) {
    uint32_t mask = 0;
    for (int view_id : catalog_->ViewsOfRelation(atom.relation)) {
      const SecurityView& view = catalog_->view(view_id);
      // Packed masks hold kPackedViewCapacity views per relation; views
      // beyond that are excluded (labels get strictly higher — fail-safe),
      // never shifted out of range. The matcher path carries such
      // relations exactly, as wide atoms.
      if (view.bit < kPackedViewCapacity &&
          rewriting::AtomRewritable(atom, view.pattern)) {
        mask |= (1u << view.bit);
      }
    }
    label.Add(PackedAtomLabel(static_cast<uint32_t>(atom.relation), mask));
  }
  label.Seal();
  return label;
}

LabelingPipeline::LabelingPipeline(const ViewCatalog* catalog,
                                   DissectOptions dissect_options,
                                   Options options)
    : inner_(catalog, dissect_options),
      dissect_options_(dissect_options),
      options_(options) {
  if (options_.ablate_compiled_matcher) {
    EnsureCache();  // the seed kernel probes it on every mask miss
  } else if (!options_.ablate_interning) {
    matcher_ = std::make_unique<const CompiledCatalogMatcher>(
        CompiledCatalogMatcher::Compile(*catalog));
  }
}

PackedAtomLabel ComputePatternMask(const ViewCatalog& catalog,
                                   const cq::QueryInterner& interner,
                                   rewriting::ContainmentCache& cache,
                                   int pattern_id,
                                   const cq::AtomPattern& pattern) {
  uint32_t mask = 0;
  for (int view_id : catalog.ViewsOfRelation(pattern.relation)) {
    const SecurityView& view = catalog.view(view_id);
    // OutOfRange guard at the kernel: packed masks carry
    // kPackedViewCapacity views per relation, and shifting by bit ≥ 32 is
    // UB (the seed only asserted one level up, in ComputeLabel, and the
    // assert vanishes under NDEBUG). Excess views are excluded — labels
    // get strictly higher (stricter, fail-safe) — identically to
    // LabelPacked and to the low 32 bits of the compiled matcher's mask, so
    // the packed kernels stay mask-for-mask equivalent; the wide label
    // atoms are what represent such views exactly.
    if (view.bit < kPackedViewCapacity &&
        cache.RewritableCached(interner, pattern_id, view_id, pattern,
                               view.pattern)) {
      mask |= (1u << view.bit);
    }
  }
  return PackedAtomLabel(static_cast<uint32_t>(pattern.relation), mask);
}

rewriting::ContainmentCache& LabelingPipeline::EnsureCache() {
  if (cache_ == nullptr) {
    cache_ = std::make_unique<rewriting::ContainmentCache>();
  }
  return *cache_;
}

PackedAtomLabel LabelingPipeline::MaskFor(int pattern_id,
                                          const cq::AtomPattern& pattern) {
  auto it = mask_by_pattern_.find(pattern_id);
  if (it != mask_by_pattern_.end()) {
    ++stats_.mask_hits;
    return it->second;
  }
  ++stats_.mask_misses;
  const PackedAtomLabel packed = ComputePatternMask(
      inner_.catalog(), interner_, EnsureCache(), pattern_id, pattern);
  mask_by_pattern_.emplace(pattern_id, packed);
  return packed;
}

void LabelingPipeline::ComputeBatch(
    std::span<const cq::ConjunctiveQuery* const> queries) {
  BatchLabelCounters counters;
  LabelQueriesBatched(*matcher_, dissect_options_, queries, &batch_scratch_,
                      &computed_, &counters);
  stats_.compiled_mask_evals += counters.batch_mask_evals;
  stats_.batch_mask_evals += counters.batch_mask_evals;
  stats_.wide_mask_evals += counters.wide_mask_evals;
  stats_.per_view_tests_avoided += counters.per_view_tests_avoided;
}

DisclosureLabel LabelingPipeline::ComputeLabel(
    const cq::ConjunctiveQuery& query) {
  if (matcher_ != nullptr) {
    const cq::ConjunctiveQuery* one = &query;
    ComputeBatch(std::span<const cq::ConjunctiveQuery* const>(&one, 1));
    return std::move(computed_[0]);
  }
  DisclosureLabel label;
  for (const cq::AtomPattern& atom : Dissect(query, dissect_options_)) {
    label.Add(MaskFor(interner_.InternPattern(atom), atom));
  }
  label.Seal();
  return label;
}

DisclosureLabel LabelingPipeline::Label(const cq::ConjunctiveQuery& query) {
  if (options_.ablate_interning) return inner_.LabelPacked(query);
  const cq::InternedQuery* interned =
      interner_.TryIntern(query, options_.max_interned_queries);
  if (interned == nullptr) {
    // Saturated: label without interning. The seed kernel would intern the
    // query's patterns, so that mode falls back to LabelPacked.
    return matcher_ != nullptr ? ComputeLabel(query)
                               : inner_.LabelPacked(query);
  }
  auto it = label_by_query_.find(interned->id());
  if (it != label_by_query_.end()) {
    ++stats_.label_hits;
    return it->second;
  }
  ++stats_.label_misses;
  if (label_by_query_.size() >= options_.max_label_cache) {
    label_by_query_.clear();
  }
  DisclosureLabel label = ComputeLabel(interned->query());
  label_by_query_.emplace(interned->id(), label);
  return label;
}

std::vector<DisclosureLabel> LabelingPipeline::LabelBatch(
    std::span<const cq::ConjunctiveQuery> queries) {
  std::vector<DisclosureLabel> out;
  if (matcher_ == nullptr) {
    // Reference modes: the per-query path.
    out.reserve(queries.size());
    for (const cq::ConjunctiveQuery& query : queries) {
      out.push_back(Label(query));
    }
    return out;
  }
  // Bucket by interned id against the persistent memo: the batch's
  // distinct novel structures and its saturated-interner queries fill one
  // kernel batch; duplicates and memo hits cost one map probe. The memo's
  // capacity is checked once per batch.
  if (label_by_query_.size() >= options_.max_label_cache) {
    label_by_query_.clear();
  }
  out.resize(queries.size());
  struct Pending {
    size_t out_index;
    int32_t slot;
  };
  std::vector<Pending> pending;
  std::vector<int> slot_id;  // interned id per kernel slot, -1 = saturated
  std::vector<const cq::ConjunctiveQuery*> slot_query;
  std::unordered_map<int, int32_t> slot_of_id;
  for (size_t k = 0; k < queries.size(); ++k) {
    const cq::InternedQuery* interned =
        interner_.TryIntern(queries[k], options_.max_interned_queries);
    const int32_t next = static_cast<int32_t>(slot_id.size());
    if (interned == nullptr) {
      pending.push_back({k, next});
      slot_id.push_back(-1);
      slot_query.push_back(&queries[k]);
      continue;
    }
    auto it = label_by_query_.find(interned->id());
    if (it != label_by_query_.end()) {
      ++stats_.label_hits;
      out[k] = it->second;
      continue;
    }
    const auto [slot, fresh] = slot_of_id.emplace(interned->id(), next);
    if (fresh) {
      ++stats_.label_misses;
      slot_id.push_back(interned->id());
      slot_query.push_back(&interned->query());
    } else {
      ++stats_.label_hits;  // batch-internal duplicate, as on the memo path
    }
    pending.push_back({k, slot->second});
  }
  if (slot_query.empty()) return out;
  ComputeBatch(std::span<const cq::ConjunctiveQuery* const>(slot_query));
  for (const Pending& p : pending) {
    out[p.out_index] = computed_[static_cast<size_t>(p.slot)];
  }
  for (size_t s = 0; s < slot_id.size(); ++s) {
    if (slot_id[s] >= 0) {
      label_by_query_.emplace(slot_id[s], std::move(computed_[s]));
    }
  }
  return out;
}

WideLabel LabelerPipeline::LabelWide(const cq::ConjunctiveQuery& query) const {
  WideLabel label;
  for (const cq::AtomPattern& atom : Dissect(query, dissect_options_)) {
    WideAtomLabel wide;
    wide.relation = atom.relation;
    for (int view_id : catalog_->ViewsOfRelation(atom.relation)) {
      const SecurityView& view = catalog_->view(view_id);
      if (rewriting::AtomRewritable(atom, view.pattern)) {
        wide.SetBit(view.bit);
      }
    }
    label.Add(std::move(wide));
  }
  return label;
}

}  // namespace fdc::label
