#include "engine/labeler.h"

#include <algorithm>
#include <bit>
#include <mutex>
#include <string>
#include <utility>

#include "cq/canonical.h"
#include "label/batch_label.h"

namespace fdc::engine {

// Immutable snapshot of the overlay's (raw form | canonical key) -> label
// mapping. Built under the write mutex, published through an epoch-protected
// atomic pointer, probed lock-free under an epoch::Guard, retired through
// epoch::Domain when replaced. Two open-addressed tables mirror the
// interner's two levels: byte-identical resubmitted templates hit the raw
// table without paying canonicalization; renamed/reordered variants fall
// through to the canonical-key table.
struct ConcurrentLabeler::OverlayChunk {
  static constexpr uint32_t kEmpty = 0xffffffffu;

  struct Slot {
    uint64_t hash = 0;
    uint32_t idx = kEmpty;
  };

  std::vector<std::pair<cq::ConjunctiveQuery, label::DisclosureLabel>>
      raw_entries;
  std::vector<std::pair<std::string, label::DisclosureLabel>> canon_entries;
  std::vector<Slot> raw_slots;    // power-of-two, linear probing
  std::vector<Slot> canon_slots;  // power-of-two, linear probing

  static uint64_t KeyHash(const std::string& key) {
    uint64_t h = 1469598103934665603ull;  // FNV-1a
    for (const char c : key) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    return h;
  }

  template <typename Entries, typename HashFn>
  static void BuildTable(const Entries& entries, HashFn&& hash_of,
                         std::vector<Slot>* slots) {
    const size_t n = entries.size();
    const size_t cap = std::max<size_t>(8, std::bit_ceil(2 * n + 1));
    slots->assign(cap, Slot{});
    const size_t mask = cap - 1;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t h = hash_of(entries[i].first);
      size_t pos = static_cast<size_t>(h) & mask;
      while ((*slots)[pos].idx != kEmpty) pos = (pos + 1) & mask;
      (*slots)[pos] = Slot{h, static_cast<uint32_t>(i)};
    }
  }

  void BuildTables() {
    BuildTable(raw_entries, [](const cq::ConjunctiveQuery& q) {
      return cq::QueryInterner::RawHash(q);
    }, &raw_slots);
    BuildTable(canon_entries, [](const std::string& k) { return KeyHash(k); },
               &canon_slots);
  }

  const label::DisclosureLabel* FindRaw(uint64_t hash,
                                        const cq::ConjunctiveQuery& q) const {
    const size_t mask = raw_slots.size() - 1;
    for (size_t pos = static_cast<size_t>(hash) & mask;;
         pos = (pos + 1) & mask) {
      const Slot& slot = raw_slots[pos];
      if (slot.idx == kEmpty) return nullptr;
      if (slot.hash == hash && raw_entries[slot.idx].first == q) {
        return &raw_entries[slot.idx].second;
      }
    }
  }

  const label::DisclosureLabel* FindCanonical(uint64_t hash,
                                              const std::string& key) const {
    const size_t mask = canon_slots.size() - 1;
    for (size_t pos = static_cast<size_t>(hash) & mask;;
         pos = (pos + 1) & mask) {
      const Slot& slot = canon_slots[pos];
      if (slot.idx == kEmpty) return nullptr;
      if (slot.hash == hash && canon_entries[slot.idx].first == key) {
        return &canon_entries[slot.idx].second;
      }
    }
  }
};

ConcurrentLabeler::ConcurrentLabeler(
    std::shared_ptr<const FrozenCatalog> frozen, Options options)
    : frozen_(std::move(frozen)), options_(options) {}

ConcurrentLabeler::~ConcurrentLabeler() {
  // Destruction implies no concurrent Label calls on *this*, but a chunk
  // retired earlier may still be pending in the domain; route the live one
  // through the same path rather than deleting inline.
  if (const OverlayChunk* chunk =
          chunk_.exchange(nullptr, std::memory_order_acq_rel)) {
    epoch::Domain::Instance().RetireDelete(chunk);
  }
}

void ConcurrentLabeler::PublishChunkLocked() {
  auto* chunk = new OverlayChunk;
  interner_.ForEachRawEntry([&](const cq::ConjunctiveQuery& raw, int id) {
    auto it = label_by_query_.find(id);
    if (it != label_by_query_.end()) {
      chunk->raw_entries.emplace_back(raw, it->second);
    }
  });
  interner_.ForEachCanonicalKey([&](const std::string& key, int id) {
    auto it = label_by_query_.find(id);
    if (it != label_by_query_.end()) {
      chunk->canon_entries.emplace_back(key, it->second);
    }
  });
  chunk->BuildTables();
  overlay_chunk_entries_.store(
      chunk->raw_entries.size() + chunk->canon_entries.size(),
      std::memory_order_relaxed);
  overlay_chunk_publishes_.fetch_add(1, std::memory_order_relaxed);
  publish_pressure_ = 0;
  published_entries_ = label_by_query_.size();
  const OverlayChunk* old =
      chunk_.exchange(chunk, std::memory_order_acq_rel);
  if (old != nullptr) epoch::Domain::Instance().RetireDelete(old);
}

void ConcurrentLabeler::NotePublishPressureLocked() {
  ++publish_pressure_;
  const size_t threshold =
      std::max<size_t>(1, std::max(options_.overlay_min_publish,
                                   published_entries_ / 8));
  if (publish_pressure_ >= threshold) PublishChunkLocked();
}

void ConcurrentLabeler::PublishOverlayChunk() {
  std::unique_lock<locks::CountedSharedMutex> lock(mu_);
  PublishChunkLocked();
}

namespace {

// The walk's working state, kept per thread so a warm walk that resolves
// in the frozen tier or the chunk allocates nothing.
struct WalkScratch {
  std::vector<size_t> unresolved;  // query indices no tier has answered yet
  std::vector<int32_t> slot_of;    // kernel slot per unresolved query
  std::vector<int> slot_id;        // interned id per slot, -1 = stateless
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

std::vector<label::DisclosureLabel> ConcurrentLabeler::LabelBatch(
    std::span<const cq::ConjunctiveQuery> queries) {
  std::vector<const cq::ConjunctiveQuery*> ptrs;
  ptrs.reserve(queries.size());
  for (const cq::ConjunctiveQuery& query : queries) ptrs.push_back(&query);
  return LabelBatch(std::span<const cq::ConjunctiveQuery* const>(ptrs));
}

std::vector<label::DisclosureLabel> ConcurrentLabeler::LabelBatch(
    std::span<const cq::ConjunctiveQuery* const> queries) {
  std::vector<label::DisclosureLabel> out(queries.size());
  LabelInto(queries, out.data());
  return out;
}

void ConcurrentLabeler::LabelInto(
    std::span<const cq::ConjunctiveQuery* const> queries,
    label::DisclosureLabel* out) {
  thread_local WalkScratch scratch;
  std::vector<size_t>& unresolved = scratch.unresolved;
  unresolved.clear();

  // Tier 1: frozen warmup table, no locks.
  for (size_t k = 0; k < queries.size(); ++k) {
    if (const label::DisclosureLabel* hit = frozen_->FindLabel(*queries[k])) {
      frozen_hits_.fetch_add(1, std::memory_order_relaxed);
      out[k] = *hit;
    } else {
      unresolved.push_back(k);
    }
  }
  if (unresolved.empty()) return;

  // Tier 2: probe the published chunk for every miss under one epoch guard
  // (no lock, no shared state mutation). Byte-identical resubmissions hit
  // the raw table without paying canonicalization.
  {
    epoch::Guard guard;
    if (const OverlayChunk* chunk = chunk_.load(std::memory_order_acquire)) {
      size_t kept = 0;
      for (const size_t k : unresolved) {
        const cq::ConjunctiveQuery& query = *queries[k];
        const label::DisclosureLabel* hit =
            chunk->FindRaw(cq::QueryInterner::RawHash(query), query);
        if (hit == nullptr) {
          const std::string key = cq::CanonicalKey(query);
          hit = chunk->FindCanonical(OverlayChunk::KeyHash(key), key);
        }
        if (hit != nullptr) {
          overlay_chunk_hits_.fetch_add(1, std::memory_order_relaxed);
          overlay_hits_.fetch_add(1, std::memory_order_relaxed);
          out[k] = *hit;
          continue;
        }
        unresolved[kept++] = k;
      }
      unresolved.resize(kept);
    }
  }
  if (unresolved.empty()) return;

  // Tier 3, writer pass 1: intern the misses, answer memoized entries the
  // chunk does not cover yet (racing threads may have labeled some since
  // the chunk probe), and dedupe the novel structures into kernel slots.
  // Saturated-interner queries get slots too; they are never memoized.
  constexpr int32_t kResolved = -1;
  scratch.slot_of.assign(unresolved.size(), kResolved);
  scratch.slot_id.clear();
  scratch.slot_query.clear();
  // Local, not scratch: clearing a map a large batch once grew would cost
  // every later walk a sweep of its bucket array.
  std::unordered_map<int, int32_t> first_slot;  // interned id -> slot
  {
    std::unique_lock<locks::CountedSharedMutex> lock(mu_);
    for (size_t u = 0; u < unresolved.size(); ++u) {
      const size_t k = unresolved[u];
      const int32_t next = static_cast<int32_t>(scratch.slot_id.size());
      const cq::InternedQuery* interned =
          interner_.TryIntern(*queries[k], options_.max_interned_queries);
      if (interned == nullptr) {
        stateless_fallbacks_.fetch_add(1, std::memory_order_relaxed);
        scratch.slot_of[u] = next;
        scratch.slot_id.push_back(-1);
        scratch.slot_query.push_back(queries[k]);
        continue;
      }
      const int id = interned->id();
      auto it = label_by_query_.find(id);
      if (it != label_by_query_.end()) {
        overlay_hits_.fetch_add(1, std::memory_order_relaxed);
        // Memoized but not yet chunk-visible: publish pressure, so
        // repeated traffic re-freezes the chunk promptly.
        NotePublishPressureLocked();
        out[k] = it->second;
        continue;
      }
      const auto [slot, fresh] = first_slot.emplace(id, next);
      if (fresh) {
        scratch.slot_id.push_back(id);
        scratch.slot_query.push_back(queries[k]);
      } else {
        // Batch-internal duplicate structure.
        overlay_hits_.fetch_add(1, std::memory_order_relaxed);
      }
      scratch.slot_of[u] = slot->second;
    }
  }
  if (scratch.slot_query.empty()) return;

  // Tier 4: the batch kernel with no lock held — Dissect + one
  // MatchMaskBatch per relation over every slot at once. Labels are pure
  // functions of the query, so N threads labeling distinct novel structures
  // proceed in parallel and a racing duplicate computes the same value.
  label::BatchLabelCounters counters;
  label::LabelQueriesBatched(
      frozen_->matcher(), frozen_->dissect_options(),
      std::span<const cq::ConjunctiveQuery* const>(scratch.slot_query),
      &scratch.kernel, &scratch.computed, &counters);
  compiled_mask_evals_.fetch_add(counters.batch_mask_evals,
                                 std::memory_order_relaxed);
  wide_mask_evals_.fetch_add(counters.wide_mask_evals,
                             std::memory_order_relaxed);
  per_view_tests_avoided_.fetch_add(counters.per_view_tests_avoided,
                                    std::memory_order_relaxed);
  for (size_t u = 0; u < unresolved.size(); ++u) {
    if (scratch.slot_of[u] != kResolved) {
      out[unresolved[u]] =
          scratch.computed[static_cast<size_t>(scratch.slot_of[u])];
    }
  }

  // Writer pass 2: memoize the interned structures. A racing duplicate
  // insert loses harmlessly — labels of one structure are identical.
  std::unique_lock<locks::CountedSharedMutex> lock(mu_);
  for (size_t s = 0; s < scratch.slot_id.size(); ++s) {
    if (scratch.slot_id[s] < 0) continue;  // stateless: never memoized
    overlay_misses_.fetch_add(1, std::memory_order_relaxed);
    if (label_by_query_.size() >= options_.max_label_cache) {
      label_by_query_.clear();
    }
    label_by_query_.emplace(scratch.slot_id[s],
                            std::move(scratch.computed[s]));
    NotePublishPressureLocked();
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
  stats.overlay_chunk_publishes =
      overlay_chunk_publishes_.load(std::memory_order_relaxed);
  stats.overlay_chunk_entries =
      overlay_chunk_entries_.load(std::memory_order_relaxed);
  return stats;
}

cq::QueryInterner::Stats ConcurrentLabeler::interner_stats() const {
  std::shared_lock<locks::CountedSharedMutex> lock(mu_);
  return interner_.stats();
}

}  // namespace fdc::engine
