#include "label/batch_label.h"

#include <algorithm>

namespace fdc::label {

void LabelQueriesBatched(const CompiledCatalogMatcher& matcher,
                         DissectOptions dissect_options,
                         std::span<const cq::ConjunctiveQuery* const> queries,
                         BatchLabelScratch* scratch,
                         std::vector<DisclosureLabel>* labels,
                         BatchLabelCounters* counters) {
  labels->clear();
  labels->resize(queries.size());
  if (queries.empty()) return;

  // Dissect every query into one flat atom pool (folding included — the
  // same Dissect the reference labelers run).
  scratch->atoms.clear();
  scratch->atom_query.clear();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (cq::AtomPattern& atom : Dissect(*queries[qi], dissect_options)) {
      scratch->atoms.push_back(std::move(atom));
      scratch->atom_query.push_back(static_cast<int32_t>(qi));
    }
  }
  const int total = static_cast<int>(scratch->atoms.size());
  scratch->order.resize(static_cast<size_t>(total));
  for (int i = 0; i < total; ++i) scratch->order[static_cast<size_t>(i)] = i;
  // Bucket by relation, arrival order within a bucket (deterministic and
  // stable without std::stable_sort's temporary buffer).
  std::sort(scratch->order.begin(), scratch->order.end(),
            [scratch](int32_t a, int32_t b) {
              const int ra = scratch->atoms[static_cast<size_t>(a)].relation;
              const int rb = scratch->atoms[static_cast<size_t>(b)].relation;
              if (ra != rb) return ra < rb;
              return a < b;
            });

  // Hoisted bucket mask buffer: max bucket length × max words covers every
  // bucket, sized once per call (and only grown across calls).
  int max_bucket = 0;
  for (int i = 0; i < total;) {
    const int relation = scratch->atoms[scratch->order[i]].relation;
    int j = i + 1;
    while (j < total && scratch->atoms[scratch->order[j]].relation == relation)
      ++j;
    max_bucket = std::max(max_bucket, j - i);
    i = j;
  }
  const size_t masks_needed =
      static_cast<size_t>(max_bucket) * matcher.max_mask_words();
  if (scratch->masks.size() < masks_needed) scratch->masks.resize(masks_needed);

  for (int i = 0; i < total;) {
    const int relation = scratch->atoms[scratch->order[i]].relation;
    int j = i + 1;
    while (j < total && scratch->atoms[scratch->order[j]].relation == relation)
      ++j;
    const int len = j - i;
    scratch->bucket.clear();
    for (int k = i; k < j; ++k) {
      scratch->bucket.push_back(&scratch->atoms[scratch->order[k]]);
    }
    const int W = matcher.MaskWords(relation);
    matcher.MatchMaskBatch(
        std::span<const cq::AtomPattern* const>(scratch->bucket),
        scratch->masks.data(), &scratch->kernel);
    counters->batch_mask_evals += static_cast<uint64_t>(len);
    counters->per_view_tests_avoided +=
        static_cast<uint64_t>(len) *
        static_cast<uint64_t>(matcher.AvoidedPerViewTests(relation));
    const bool wide = matcher.UsesWideMask(relation);
    if (wide) counters->wide_mask_evals += static_cast<uint64_t>(len);
    for (int k = i; k < j; ++k) {
      DisclosureLabel& label =
          (*labels)[static_cast<size_t>(scratch->atom_query[scratch->order[k]])];
      const uint64_t* row =
          scratch->masks.data() + static_cast<size_t>(k - i) * W;
      if (wide) {
        WideAtomLabel atom;
        atom.relation = relation;
        atom.mask.assign(row, row + W);
        label.AddWide(std::move(atom));
      } else {
        label.Add(PackedAtomLabel(static_cast<uint32_t>(relation),
                                  static_cast<uint32_t>(row[0])));
      }
    }
    i = j;
  }
  for (DisclosureLabel& label : *labels) label.Seal();
}

}  // namespace fdc::label
