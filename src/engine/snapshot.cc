#include "engine/snapshot.h"

#include "label/batch_label.h"
#include "rewriting/atom_rewriting.h"

namespace fdc::engine {

std::shared_ptr<const FrozenCatalog> FrozenCatalog::Build(
    const label::ViewCatalog* catalog,
    std::span<const cq::ConjunctiveQuery> warmup,
    label::DissectOptions dissect_options) {
  auto frozen = std::shared_ptr<FrozenCatalog>(new FrozenCatalog());
  frozen->catalog_ = catalog;
  frozen->dissect_options_ = dissect_options;
  frozen->matcher_ = label::CompiledCatalogMatcher::Compile(*catalog);

  // Intern the views' defining queries and the warmup pool into the frozen
  // interner once (so their ids land in the id space FindLabel probes),
  // then label every distinct structure in one batch-kernel call — the
  // kernel the serving tiers run, over the matcher they evaluate.
  const int n = catalog->size();
  frozen->view_query_ids_.reserve(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) {
    frozen->view_query_ids_.push_back(
        frozen->interner_.Intern(catalog->view(v).pattern.ToQuery("V")).id());
  }
  for (const cq::ConjunctiveQuery& query : warmup) {
    frozen->interner_.Intern(query);
  }
  const int distinct = frozen->interner_.num_queries();
  std::vector<const cq::ConjunctiveQuery*> structures;
  structures.reserve(static_cast<size_t>(distinct));
  for (int id = 0; id < distinct; ++id) {
    structures.push_back(&frozen->interner_.query(id).query());
  }
  label::BatchLabelScratch scratch;
  label::BatchLabelCounters counters;
  label::LabelQueriesBatched(
      frozen->matcher_, dissect_options,
      std::span<const cq::ConjunctiveQuery* const>(structures), &scratch,
      &frozen->labels_, &counters);

  // Rewriting-order closure over catalog views: one bit per ordered pair.
  // O(n²) AtomRewritable calls at build time — fine for real catalogs
  // (tens of views); consumed by explain/analysis tooling and the
  // equivalence tests, not the per-request hot path, so it is paid once
  // here rather than lazily under a lock.
  frozen->closure_stride_ = (static_cast<size_t>(n) + 63) / 64;
  frozen->closure_.assign(static_cast<size_t>(n) * frozen->closure_stride_,
                          0);
  for (int v = 0; v < n; ++v) {
    for (int w = 0; w < n; ++w) {
      if (rewriting::AtomRewritable(catalog->view(v).pattern,
                                    catalog->view(w).pattern)) {
        frozen->closure_[static_cast<size_t>(v) * frozen->closure_stride_ +
                         (static_cast<size_t>(w) >> 6)] |=
            (uint64_t{1} << (static_cast<size_t>(w) & 63));
      }
    }
  }

  return frozen;
}

const label::DisclosureLabel* FrozenCatalog::FindLabel(
    const cq::ConjunctiveQuery& query) const {
  const cq::InternedQuery* interned = interner_.Find(query);
  if (interned == nullptr) return nullptr;
  return &labels_[static_cast<size_t>(interned->id())];
}

}  // namespace fdc::engine
