#include "engine/labeler.h"

#include <unordered_map>
#include <utility>

#include "common/epoch.h"
#include "cq/canonical.h"
#include "label/batch_label.h"

namespace fdc::engine {

ConcurrentLabeler::ConcurrentLabeler(
    std::shared_ptr<const FrozenCatalog> frozen, Options options)
    : frozen_(std::move(frozen)), options_(options) {}

namespace {

// The walk's working state, kept per thread so a warm walk that resolves
// in a probe allocates nothing.
struct WalkScratch {
  // Per query no probe has answered yet: its index, canonical form and
  // canonical-form hash.
  std::vector<size_t> unresolved;
  std::vector<cq::ConjunctiveQuery> canonical;
  std::vector<uint64_t> canonical_hash;
  std::vector<int32_t> slot_of;  // kernel slot per unresolved query
  // Per kernel slot: the unresolved query whose canonical form it labels,
  // and that form.
  std::vector<size_t> slot_owner;
  std::vector<const cq::ConjunctiveQuery*> slot_query;
  std::vector<label::DisclosureLabel> computed;  // kernel output per slot
  label::BatchLabelScratch kernel;
};

}  // namespace

label::DisclosureLabel ConcurrentLabeler::Label(
    const cq::ConjunctiveQuery& query) {
  label::DisclosureLabel label;
  const cq::ConjunctiveQuery* one = &query;
  LabelInto(std::span<const cq::ConjunctiveQuery* const>(&one, 1), &label);
  return label;
}

void ConcurrentLabeler::LabelInto(
    std::span<const cq::ConjunctiveQuery* const> queries,
    label::DisclosureLabel* out) {
  thread_local WalkScratch s;
  s.unresolved.clear();
  s.canonical.clear();
  s.canonical_hash.clear();

  // One form's probe of both tables, no lock; true when *label was set.
  auto probe = [this](uint64_t hash, const cq::ConjunctiveQuery& form,
                      label::DisclosureLabel* label) {
    if (const label::DisclosureLabel* hit =
            frozen_->labels().Find(hash, form)) {
      frozen_hits_.fetch_add(1, std::memory_order_relaxed);
      *label = *hit;
      return true;
    }
    if (const label::DisclosureLabel* hit = overlay_.Find(hash, form)) {
      overlay_chunk_hits_.fetch_add(1, std::memory_order_relaxed);
      overlay_hits_.fetch_add(1, std::memory_order_relaxed);
      *label = *hit;
      return true;
    }
    return false;
  };
  {
    epoch::Guard guard;
    // Raw forms first: resubmitted templates and repeated text hit here
    // without canonicalizing.
    for (size_t k = 0; k < queries.size(); ++k) {
      if (!probe(cq::RawHash(*queries[k]), *queries[k], &out[k])) {
        s.unresolved.push_back(k);
      }
    }
    // One canonicalization per miss: renamed or reordered variants of a
    // stored structure hit here.
    size_t kept = 0;
    for (size_t u = 0; u < s.unresolved.size(); ++u) {
      const size_t k = s.unresolved[u];
      cq::ConjunctiveQuery canonical = cq::Canonicalize(*queries[k]);
      const uint64_t hash = cq::RawHash(canonical);
      if (probe(hash, canonical, &out[k])) continue;
      s.unresolved[kept++] = k;
      s.canonical.push_back(std::move(canonical));
      s.canonical_hash.push_back(hash);
    }
    s.unresolved.resize(kept);
  }
  const size_t n = s.unresolved.size();
  if (n == 0) return;

  // Write side, pass 1: re-probe under the mutex (a racing walk may have
  // stored a structure since the probe above) and dedupe the batch's novel
  // structures into kernel slots.
  constexpr int32_t kResolved = -1;
  s.slot_of.assign(n, kResolved);
  s.slot_owner.clear();
  s.slot_query.clear();
  // Local, not scratch: clearing a map a large batch once grew would cost
  // every later walk a sweep of its bucket array.
  std::unordered_map<uint64_t, int32_t> first_slot;  // canonical hash -> slot
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t u = 0; u < n; ++u) {
      const cq::ConjunctiveQuery& canonical = s.canonical[u];
      if (const label::DisclosureLabel* hit =
              overlay_.Find(s.canonical_hash[u], canonical)) {
        overlay_hits_.fetch_add(1, std::memory_order_relaxed);
        out[s.unresolved[u]] = *hit;
        continue;
      }
      const int32_t next = static_cast<int32_t>(s.slot_query.size());
      const auto [it, fresh] = first_slot.emplace(s.canonical_hash[u], next);
      if (!fresh && s.canonical[s.slot_owner[it->second]] == canonical) {
        // Batch-internal duplicate structure.
        overlay_hits_.fetch_add(1, std::memory_order_relaxed);
        s.slot_of[u] = it->second;
        continue;
      }
      s.slot_of[u] = next;
      s.slot_owner.push_back(u);
      s.slot_query.push_back(&canonical);
    }
  }
  if (s.slot_query.empty()) return;

  // The batch kernel with no lock held — Dissect + one MatchMaskBatch per
  // relation over every slot at once. Labels are pure functions of the
  // structure, so N threads labeling distinct novel structures proceed in
  // parallel and a racing duplicate computes the same value.
  label::BatchLabelCounters counters;
  label::LabelQueriesBatched(
      frozen_->matcher(), frozen_->dissect_options(),
      std::span<const cq::ConjunctiveQuery* const>(s.slot_query), &s.kernel,
      &s.computed, &counters);
  compiled_mask_evals_.fetch_add(counters.batch_mask_evals,
                                 std::memory_order_relaxed);
  wide_mask_evals_.fetch_add(counters.wide_mask_evals,
                             std::memory_order_relaxed);
  per_view_tests_avoided_.fetch_add(counters.per_view_tests_avoided,
                                    std::memory_order_relaxed);
  for (size_t u = 0; u < n; ++u) {
    if (s.slot_of[u] != kResolved) {
      out[s.unresolved[u]] = s.computed[static_cast<size_t>(s.slot_of[u])];
    }
  }

  // Write side, pass 2: store each label once under its canonical form
  // (unless a racing walk already did) and point the raw form it arrived
  // as at it. Past either cap the labels above were computed statelessly.
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t slot = 0; slot < s.slot_query.size(); ++slot) {
    const size_t u = s.slot_owner[slot];
    const label::DisclosureLabel* stored =
        overlay_.Find(s.canonical_hash[u], s.canonical[u]);
    if (stored == nullptr) {
      if (overlay_.structures() >= options_.max_interned_queries ||
          overlay_.bytes() >= LabelTable::kMaxBytes) {
        stateless_fallbacks_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      stored = overlay_.Insert(s.canonical_hash[u], s.canonical[u],
                               std::move(s.computed[slot]));
    }
    overlay_misses_.fetch_add(1, std::memory_order_relaxed);
    const cq::ConjunctiveQuery& raw = *queries[s.unresolved[u]];
    const uint64_t raw_hash = cq::RawHash(raw);
    if (overlay_.bytes() < LabelTable::kMaxBytes &&
        overlay_.Find(raw_hash, raw) == nullptr) {
      overlay_.Alias(raw_hash, raw, stored);
    }
  }
}

ConcurrentLabeler::Stats ConcurrentLabeler::stats() const {
  Stats stats;
  stats.frozen_hits = frozen_hits_.load(std::memory_order_relaxed);
  stats.overlay_hits = overlay_hits_.load(std::memory_order_relaxed);
  stats.overlay_misses = overlay_misses_.load(std::memory_order_relaxed);
  stats.stateless_fallbacks =
      stateless_fallbacks_.load(std::memory_order_relaxed);
  stats.compiled_mask_evals =
      compiled_mask_evals_.load(std::memory_order_relaxed);
  stats.wide_mask_evals = wide_mask_evals_.load(std::memory_order_relaxed);
  stats.batch_mask_evals = stats.compiled_mask_evals;
  stats.per_view_tests_avoided =
      per_view_tests_avoided_.load(std::memory_order_relaxed);
  stats.overlay_chunk_hits =
      overlay_chunk_hits_.load(std::memory_order_relaxed);
  stats.overlay_chunk_publishes = overlay_.publishes();
  stats.overlay_structures = overlay_.structures();
  stats.overlay_bytes = overlay_.bytes();
  return stats;
}

}  // namespace fdc::engine
