#include "engine/snapshot.h"

#include <utility>

#include "cq/canonical.h"
#include "label/batch_label.h"

namespace fdc::engine {

std::shared_ptr<const FrozenCatalog> FrozenCatalog::Build(
    const label::ViewCatalog* catalog,
    std::span<const cq::ConjunctiveQuery> warmup,
    label::DissectOptions dissect_options) {
  auto frozen = std::shared_ptr<FrozenCatalog>(new FrozenCatalog());
  frozen->catalog_ = catalog;
  frozen->dissect_options_ = dissect_options;
  frozen->matcher_ = label::CompiledCatalogMatcher::Compile(*catalog);

  // Canonicalize the views' defining queries and the warmup pool once,
  // label them in one batch-kernel call — the kernel the serving tiers
  // run, over the matcher they evaluate — and store each structure's label
  // once, under its canonical form and every raw form it came as.
  const int n = catalog->size();
  std::vector<cq::ConjunctiveQuery> canonical;  // views, then warmup
  canonical.reserve(static_cast<size_t>(n) + warmup.size());
  for (int v = 0; v < n; ++v) {
    canonical.push_back(
        cq::Canonicalize(catalog->view(v).pattern.ToQuery("V")));
  }
  for (const cq::ConjunctiveQuery& query : warmup) {
    canonical.push_back(cq::Canonicalize(query));
  }
  std::vector<const cq::ConjunctiveQuery*> batch;
  batch.reserve(canonical.size());
  for (const cq::ConjunctiveQuery& query : canonical) batch.push_back(&query);
  std::vector<label::DisclosureLabel> labels;
  label::BatchLabelScratch scratch;
  label::BatchLabelCounters counters;
  label::LabelQueriesBatched(frozen->matcher_, dissect_options,
                             std::span<const cq::ConjunctiveQuery* const>(batch),
                             &scratch, &labels, &counters);
  LabelTable& table = frozen->labels_;
  auto store = [&](size_t i, const cq::ConjunctiveQuery& raw) {
    const uint64_t hash = cq::RawHash(canonical[i]);
    const label::DisclosureLabel* stored = table.Find(hash, canonical[i]);
    if (stored == nullptr) {
      stored = table.Insert(hash, canonical[i], std::move(labels[i]));
    }
    const uint64_t raw_hash = cq::RawHash(raw);
    if (table.Find(raw_hash, raw) == nullptr) table.Alias(raw_hash, raw, stored);
    return stored;
  };
  for (size_t v = 0; v < static_cast<size_t>(n); ++v) {
    frozen->view_labels_.push_back(store(v, canonical[v]));
  }
  for (size_t i = 0; i < warmup.size(); ++i) store(n + i, warmup[i]);
  return frozen;
}

}  // namespace fdc::engine
