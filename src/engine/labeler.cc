#include "engine/labeler.h"

#include <algorithm>
#include <bit>
#include <mutex>
#include <string>
#include <utility>

#include "cq/canonical.h"
#include "label/dissect.h"

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
    : frozen_(std::move(frozen)),
      options_(options),
      stateless_(&frozen_->catalog(), frozen_->dissect_options()) {
  if (options_.ablate_compiled_matcher) {
    cache_ = std::make_unique<rewriting::ContainmentCache>(
        options_.containment_cache_capacity);
  }
}

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

label::DisclosureLabel ConcurrentLabeler::LabelCompiled(
    const cq::ConjunctiveQuery& query) {
  // One matcher evaluation per atom against the frozen artifact — no
  // pattern interning, no mask memo, no cache probes, no locks. Relations
  // beyond the packed view capacity get exact multi-word wide atoms.
  label::DisclosureLabel label;
  const label::CompiledCatalogMatcher& matcher = frozen_->matcher();
  for (const cq::AtomPattern& atom :
       label::Dissect(query, frozen_->dissect_options())) {
    compiled_mask_evals_.fetch_add(1, std::memory_order_relaxed);
    per_view_tests_avoided_.fetch_add(
        static_cast<uint64_t>(matcher.AvoidedPerViewTests(atom.relation)),
        std::memory_order_relaxed);
    if (matcher.UsesWideMask(atom.relation)) {
      wide_mask_evals_.fetch_add(1, std::memory_order_relaxed);
      label::WideAtomLabel wide;
      matcher.MatchWideAtom(atom, &wide);
      label.AddWide(std::move(wide));
    } else {
      label.Add(matcher.MatchLabel(atom));
    }
  }
  label.Seal();
  return label;
}

label::DisclosureLabel ConcurrentLabeler::ComputeLabelLocked(
    const cq::ConjunctiveQuery& canonical) {
  label::DisclosureLabel label;
  for (const cq::AtomPattern& atom :
       label::Dissect(canonical, frozen_->dissect_options())) {
    const int pattern_id = interner_.InternPattern(atom);
    auto it = mask_by_pattern_.find(pattern_id);
    if (it == mask_by_pattern_.end()) {
      // Same kernel as LabelingPipeline::MaskFor — decision identity with
      // the seed path depends on sharing it, not re-implementing it.
      it = mask_by_pattern_
               .emplace(pattern_id,
                        label::ComputePatternMask(frozen_->catalog(),
                                                  interner_, *cache_,
                                                  pattern_id, atom))
               .first;
    }
    label.Add(it->second);
  }
  label.Seal();
  return label;
}

label::DisclosureLabel ConcurrentLabeler::Label(
    const cq::ConjunctiveQuery& query) {
  // Tier 1: frozen warmup table, no locks.
  if (const label::DisclosureLabel* hit = frozen_->FindLabel(query)) {
    frozen_hits_.fetch_add(1, std::memory_order_relaxed);
    return *hit;
  }

  // Tier 2a: probe the published chunk under an epoch guard (no lock, no
  // shared state mutation).
  {
    epoch::Guard guard;
    if (const OverlayChunk* chunk = chunk_.load(std::memory_order_acquire)) {
      if (const label::DisclosureLabel* hit =
              chunk->FindRaw(cq::QueryInterner::RawHash(query), query)) {
        overlay_chunk_hits_.fetch_add(1, std::memory_order_relaxed);
        overlay_hits_.fetch_add(1, std::memory_order_relaxed);
        return *hit;
      }
      const std::string key = cq::CanonicalKey(query);
      if (const label::DisclosureLabel* hit =
              chunk->FindCanonical(OverlayChunk::KeyHash(key), key)) {
        overlay_chunk_hits_.fetch_add(1, std::memory_order_relaxed);
        overlay_hits_.fetch_add(1, std::memory_order_relaxed);
        return *hit;
      }
    }
  }

  // Tier 2b: label, intern, memoize. On the compiled path the label is
  // computed *before* the writer lock — LabelCompiled only reads frozen
  // state, so N threads labeling distinct novel structures (Dissect,
  // folding's hom searches, the net evaluations) proceed in parallel and
  // the exclusive section shrinks to TryIntern + one memo insert. Labels
  // are pure functions of the structure, so a racing duplicate compute
  // stores the identical value. The ablated seed kernel mutates overlay
  // state (pattern interner + mask memo) and must stay fully locked.
  if (!options_.ablate_compiled_matcher) {
    label::DisclosureLabel label = LabelCompiled(query);
    std::unique_lock<locks::CountedSharedMutex> lock(mu_);
    const cq::InternedQuery* interned =
        interner_.TryIntern(query, options_.max_interned_queries);
    if (interned == nullptr) {
      // Tier 3: overlay saturated; the label is already stateless.
      lock.unlock();
      stateless_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      return label;
    }
    auto it = label_by_query_.find(interned->id());
    if (it != label_by_query_.end()) {
      overlay_hits_.fetch_add(1, std::memory_order_relaxed);
      // A memoized entry the chunk doesn't cover yet — publish pressure,
      // so repeated traffic re-freezes the chunk promptly.
      NotePublishPressureLocked();
      return it->second;
    }
    overlay_misses_.fetch_add(1, std::memory_order_relaxed);
    if (label_by_query_.size() >= options_.max_label_cache) {
      label_by_query_.clear();
    }
    label_by_query_.emplace(interned->id(), label);
    NotePublishPressureLocked();
    return label;
  }

  // Ablated (seed-kernel) path: exclusive intern + label. Double-check
  // under the writer lock: another thread may have labeled the same
  // structure since we unlocked.
  std::unique_lock<locks::CountedSharedMutex> lock(mu_);
  const cq::InternedQuery* interned =
      interner_.TryIntern(query, options_.max_interned_queries);
  if (interned == nullptr) {
    // Tier 3: overlay saturated; pure stateless compute, no shared state.
    lock.unlock();
    stateless_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    return stateless_.LabelPacked(query);
  }
  auto it = label_by_query_.find(interned->id());
  if (it != label_by_query_.end()) {
    overlay_hits_.fetch_add(1, std::memory_order_relaxed);
    NotePublishPressureLocked();
    return it->second;
  }
  overlay_misses_.fetch_add(1, std::memory_order_relaxed);
  if (label_by_query_.size() >= options_.max_label_cache) {
    label_by_query_.clear();
  }
  label::DisclosureLabel label = ComputeLabelLocked(interned->query());
  label_by_query_.emplace(interned->id(), label);
  NotePublishPressureLocked();
  return label;
}

std::vector<label::DisclosureLabel> ConcurrentLabeler::LabelBatch(
    std::span<const cq::ConjunctiveQuery> queries) {
  // Forward to the pointer-span core (the serving front end's shape).
  std::vector<const cq::ConjunctiveQuery*> ptrs;
  ptrs.reserve(queries.size());
  for (const cq::ConjunctiveQuery& query : queries) ptrs.push_back(&query);
  return LabelBatch(std::span<const cq::ConjunctiveQuery* const>(ptrs));
}

std::vector<label::DisclosureLabel> ConcurrentLabeler::LabelBatch(
    std::span<const cq::ConjunctiveQuery* const> queries) {
  if (options_.ablate_compiled_matcher || options_.ablate_batch_kernel) {
    // Ablations: the seed kernel mutates overlay state per query, and the
    // batch ablation deliberately restores the pre-batch shape.
    std::vector<label::DisclosureLabel> out;
    out.reserve(queries.size());
    for (const cq::ConjunctiveQuery* query : queries) {
      out.push_back(Label(*query));
    }
    return out;
  }

  std::vector<label::DisclosureLabel> out(queries.size());

  // Tier 1: frozen warmup table, no locks.
  std::vector<size_t> unresolved;
  for (size_t k = 0; k < queries.size(); ++k) {
    if (const label::DisclosureLabel* hit = frozen_->FindLabel(*queries[k])) {
      frozen_hits_.fetch_add(1, std::memory_order_relaxed);
      out[k] = *hit;
    } else {
      unresolved.push_back(k);
    }
  }
  if (unresolved.empty()) return out;

  // Tier 2a: probe the published chunk for every miss under one epoch guard
  // (no lock).
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
  if (unresolved.empty()) return out;

  // Writer pass 1: intern the misses and dedupe the batch's novel
  // structures (racing threads may have labeled some since the chunk
  // probe — those resolve here). Saturated-interner queries get compute
  // slots too; they are just never memoized.
  constexpr int32_t kResolved = -1;
  std::vector<int32_t> slot_of(unresolved.size(), kResolved);
  std::vector<int> slot_id;  // interned id per slot, -1 = stateless
  std::vector<const cq::ConjunctiveQuery*> slot_query;
  std::unordered_map<int, int32_t> first_slot;
  {
    std::unique_lock<locks::CountedSharedMutex> lock(mu_);
    for (size_t u = 0; u < unresolved.size(); ++u) {
      const size_t k = unresolved[u];
      const cq::InternedQuery* interned =
          interner_.TryIntern(*queries[k], options_.max_interned_queries);
      if (interned == nullptr) {
        stateless_fallbacks_.fetch_add(1, std::memory_order_relaxed);
        slot_of[u] = static_cast<int32_t>(slot_id.size());
        slot_id.push_back(-1);
        slot_query.push_back(queries[k]);
        continue;
      }
      const int id = interned->id();
      auto it = label_by_query_.find(id);
      if (it != label_by_query_.end()) {
        overlay_hits_.fetch_add(1, std::memory_order_relaxed);
        // Memoized but not yet chunk-visible: publish pressure.
        NotePublishPressureLocked();
        out[k] = it->second;
        continue;
      }
      auto fit = first_slot.find(id);
      if (fit != first_slot.end()) {
        overlay_hits_.fetch_add(1, std::memory_order_relaxed);
        slot_of[u] = fit->second;  // batch-internal duplicate structure
        continue;
      }
      const int32_t slot = static_cast<int32_t>(slot_id.size());
      first_slot.emplace(id, slot);
      slot_of[u] = slot;
      slot_id.push_back(id);
      slot_query.push_back(queries[k]);
    }
  }

  // Heavy compute with no lock held: Dissect + the per-relation
  // MatchMaskBatch buckets over every distinct novel structure at once.
  // Labels are pure functions of the (raw) query — exactly what the
  // per-query compiled path evaluates — so per-thread scratch suffices.
  if (!slot_query.empty()) {
    thread_local label::BatchLabelScratch scratch;
    std::vector<label::DisclosureLabel> computed;
    label::BatchLabelCounters counters;
    label::LabelQueriesBatched(
        frozen_->matcher(), frozen_->dissect_options(),
        std::span<const cq::ConjunctiveQuery* const>(slot_query), &scratch,
        &computed, &counters);
    compiled_mask_evals_.fetch_add(counters.batch_mask_evals,
                                   std::memory_order_relaxed);
    batch_mask_evals_.fetch_add(counters.batch_mask_evals,
                                std::memory_order_relaxed);
    wide_mask_evals_.fetch_add(counters.wide_mask_evals,
                               std::memory_order_relaxed);
    per_view_tests_avoided_.fetch_add(counters.per_view_tests_avoided,
                                      std::memory_order_relaxed);

    // Writer pass 2: memoize the genuinely novel structures. A racing
    // duplicate insert loses harmlessly — labels of one structure are
    // identical by purity.
    {
      std::unique_lock<locks::CountedSharedMutex> lock(mu_);
      for (size_t s = 0; s < slot_id.size(); ++s) {
        if (slot_id[s] < 0) continue;  // stateless: never memoized
        overlay_misses_.fetch_add(1, std::memory_order_relaxed);
        if (label_by_query_.size() >= options_.max_label_cache) {
          label_by_query_.clear();
        }
        label_by_query_.emplace(slot_id[s], computed[s]);
        NotePublishPressureLocked();
      }
    }
    for (size_t u = 0; u < unresolved.size(); ++u) {
      if (slot_of[u] != kResolved) {
        out[unresolved[u]] = computed[static_cast<size_t>(slot_of[u])];
      }
    }
  }
  return out;
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
  stats.batch_mask_evals = batch_mask_evals_.load(std::memory_order_relaxed);
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
