// The engine's shared labeling front end: frozen tier + guarded overlay.
//
// LabelingPipeline memoizes aggressively but is single-threaded by design;
// duplicating one per serving thread duplicates exactly the state interning
// exists to share. ConcurrentLabeler is the thread-safe replacement:
//
//   1. the FrozenCatalog warmup tier is probed first — an immutable
//      interner + label table, read lock-free by any number of threads;
//   2. misses fall into a *dynamic overlay* whose warm hits take NO lock.
//      An immutable OverlayChunk — the overlay interner's raw and canonical
//      tables plus their memoized labels, frozen into open-addressed
//      arrays — is published through an epoch-protected atomic pointer and
//      probed under an epoch::Guard. The chunk is rebuilt under the write
//      mutex when enough novel structures accumulate
//      (Options::overlay_min_publish + a live-size-proportional threshold,
//      so rebuild work is amortized O(n)) and the old chunk is retired
//      through epoch::Domain, never freed under a reader. Chunk misses
//      (genuinely novel structures, or entries memoized since the last
//      publish) take the exclusive write side to intern and label once. A
//      stale chunk is always *correct* — labels are pure functions of the
//      query — it just under-hits. Per-atom ℓ+ masks come from the frozen
//      tier's CompiledCatalogMatcher (one allocation-free pass per atom,
//      read lock-free); the seed per-view kernel — pattern interning + the
//      sharded rewriting::ContainmentCache — stays behind
//      Options::ablate_compiled_matcher as the oracle;
//   3. when the overlay interner saturates (principal-controlled input must
//      not grow memory without bound), novel structures are labeled
//      statelessly via the compiled matcher — a pure function, no locks.
//
// This saturation bound is the labeling-side twin of the principal map's
// capacity/TTL lifecycle (engine/principal_map.h): both cap the only two
// engine tiers that grow with untrusted traffic. Labels are pure functions
// of the query, so overlay saturation merely costs recomputation; monitor
// state is *not* recomputable, which is why the principal map needs its
// residual store where the labeler can simply fall back.
//
// Labels produced here are byte-identical to LabelingPipeline::Label on
// the same catalog — including which relations ride packed vs wide atoms:
// every path evaluates the same Dissect + single-atom rewritability
// decision (the compiled matcher is property-tested mask-for-mask against
// the per-view loop, across the packed 32-view edge), so the engine path
// is decision-equivalent to the seed path. On packed-only catalogs that
// also coincides with LabelerPipeline::LabelPacked.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/epoch.h"
#include "common/locks.h"
#include "cq/interned.h"
#include "cq/query.h"
#include "engine/snapshot.h"
#include "label/compressed_label.h"
#include "label/pipeline.h"
#include "rewriting/containment_cache.h"

namespace fdc::engine {

/// Namespace-scope (not nested) so it can brace-default in signatures.
struct ConcurrentLabelerOptions {
  /// Overlay interner growth bound (see LabelingOptions).
  size_t max_interned_queries = 1 << 20;
  /// Overlay whole-query label memo entries kept before a reset.
  size_t max_label_cache = 1 << 20;
  /// Total slots in the sharded containment cache (seed-kernel path only).
  size_t containment_cache_capacity = 1 << 16;
  /// Ablation: per-atom masks via the seed per-view kernel (pattern
  /// interning + ContainmentCache) instead of the compiled matcher. The
  /// seed kernel is packed-only (views with bit ≥ 32 excluded — strictly
  /// higher labels), so this oracle is meaningful on catalogs within the
  /// packed view capacity; the wide path has its own per-view oracle
  /// (LabelerPipeline::LabelWide, tests/wide_matcher_property_test.cc).
  bool ablate_compiled_matcher = false;
  /// Batch ablation: LabelBatch degrades to one Label() per query (the
  /// pre-batch shape) instead of the bucketed MatchMaskBatch path. Labels
  /// are identical either way; isolates the batch kernel in benchmarks.
  bool ablate_batch_kernel = false;
  /// Minimum publish pressure (novel memoizations + warm hits served from
  /// the write side because the chunk is stale) before the overlay chunk is
  /// rebuilt and re-published. The effective threshold is
  /// max(overlay_min_publish, live_entries/8), so rebuild cost stays
  /// amortized-linear under novel floods. Tests set 1 for determinism.
  size_t overlay_min_publish = 16;
};

class ConcurrentLabeler {
 public:
  using Options = ConcurrentLabelerOptions;

  struct Stats {
    uint64_t frozen_hits = 0;    // resolved by the lock-free frozen tier
    uint64_t overlay_hits = 0;   // resolved by the shared overlay memo
    uint64_t overlay_misses = 0; // labeled from scratch into the overlay
    uint64_t stateless_fallbacks = 0;  // overlay saturated; pure compute
    uint64_t compiled_mask_evals = 0;  // per-atom masks from the matcher
    // Of those, evaluations over relations beyond the packed view capacity
    // (multi-word wide atoms).
    uint64_t wide_mask_evals = 0;
    // Of those, masks evaluated through the batch-structured kernel
    // (LabelBatch's per-relation buckets via MatchMaskBatch).
    uint64_t batch_mask_evals = 0;
    // Per-view rewritability tests the seed kernel would have run for
    // those masks.
    uint64_t per_view_tests_avoided = 0;
    // Warm hits served lock-free from the published chunk (a subset of
    // overlay_hits), chunk rebuild/publish count, and entries in the
    // currently published chunk (raw + canonical).
    uint64_t overlay_chunk_hits = 0;
    uint64_t overlay_chunk_publishes = 0;
    uint64_t overlay_chunk_entries = 0;
  };

  explicit ConcurrentLabeler(std::shared_ptr<const FrozenCatalog> frozen,
                             Options options = {});

  /// Thread-safe label; agrees with LabelingPipeline::Label (and with
  /// LabelerPipeline::LabelPacked on packed-only catalogs).
  label::DisclosureLabel Label(const cq::ConjunctiveQuery& query);

  /// Labels a batch; each distinct novel structure is computed once. On the
  /// compiled path the batch's novel structures resolve through the
  /// batch-structured frozen-tier kernel: one epoch-pinned pass probes the
  /// overlay chunk for every miss, a first writer section interns and
  /// dedupes, the heavy compute (Dissect + per-relation MatchMaskBatch
  /// buckets via label::LabelQueriesBatched) runs with no lock held, and a
  /// second writer section memoizes. `ablate_batch_kernel` (or the seed-kernel
  /// ablation) restores the per-query loop.
  std::vector<label::DisclosureLabel> LabelBatch(
      std::span<const cq::ConjunctiveQuery> queries);

  /// Same batched labeling over non-contiguous queries (one pointer per
  /// query). This is the serving front end's shape: the coalescing layer
  /// gathers requests that point at per-connection interned templates, so
  /// the batch is naturally a pointer span — labeling must not force a
  /// copy of every query per wake.
  std::vector<label::DisclosureLabel> LabelBatch(
      std::span<const cq::ConjunctiveQuery* const> queries);

  ~ConcurrentLabeler();

  Stats stats() const;
  rewriting::ContainmentCache::Stats cache_stats() const {
    return cache_ != nullptr ? cache_->stats()
                             : rewriting::ContainmentCache::Stats{};
  }
  cq::QueryInterner::Stats interner_stats() const;
  const FrozenCatalog& frozen() const { return *frozen_; }

  /// Forces an overlay chunk rebuild + publish now. Tests and operators use
  /// it to make every memoized entry immediately probe-able lock-free
  /// instead of waiting for publish pressure to accumulate.
  void PublishOverlayChunk();

 private:
  struct OverlayChunk;
  /// Dissect + compiled-matcher evaluation: pure reads of frozen state plus
  /// relaxed counter bumps, safe from any thread with no locks held.
  label::DisclosureLabel LabelCompiled(const cq::ConjunctiveQuery& query);

  /// Seed-kernel (ablated) labeling; requires mu_ held exclusively — it
  /// mutates the per-pattern mask memo and the overlay pattern interner.
  label::DisclosureLabel ComputeLabelLocked(
      const cq::ConjunctiveQuery& canonical);

  /// Write side, mu_ held exclusively: bumps publish pressure and rebuilds
  /// + publishes the chunk when it crosses the threshold.
  void NotePublishPressureLocked();
  void PublishChunkLocked();

  std::shared_ptr<const FrozenCatalog> frozen_;
  Options options_;
  label::LabelerPipeline stateless_;  // pure fallback; const methods only
  // Sharded, internally synchronized; only the ablated seed kernel probes
  // it, so it is constructed only when that mode is selected.
  std::unique_ptr<rewriting::ContainmentCache> cache_;

  // Dynamic overlay write side: interning and labeling of novel structures
  // under unique_lock. Readers never touch mu_ — they probe the published
  // chunk below. The mutex type counts shared acquisitions so tests can
  // assert the warm path takes zero reader-side locks.
  mutable locks::CountedSharedMutex mu_;
  cq::QueryInterner interner_;
  std::unordered_map<int, label::DisclosureLabel> label_by_query_;
  std::unordered_map<int, label::PackedAtomLabel> mask_by_pattern_;

  // Overlay chunk: immutable snapshot of (raw form | canonical key) ->
  // label, swapped atomically on publish; the old chunk is retired through
  // epoch::Domain. Null until the first publish.
  std::atomic<const OverlayChunk*> chunk_{nullptr};
  // Guarded by mu_ (write side only).
  size_t publish_pressure_ = 0;
  size_t published_entries_ = 0;

  std::atomic<uint64_t> frozen_hits_{0};
  std::atomic<uint64_t> overlay_hits_{0};
  std::atomic<uint64_t> overlay_misses_{0};
  std::atomic<uint64_t> stateless_fallbacks_{0};
  std::atomic<uint64_t> compiled_mask_evals_{0};
  std::atomic<uint64_t> wide_mask_evals_{0};
  std::atomic<uint64_t> batch_mask_evals_{0};
  std::atomic<uint64_t> per_view_tests_avoided_{0};
  std::atomic<uint64_t> overlay_chunk_hits_{0};
  std::atomic<uint64_t> overlay_chunk_publishes_{0};
  std::atomic<uint64_t> overlay_chunk_entries_{0};
};

}  // namespace fdc::engine
