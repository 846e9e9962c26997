// The engine's shared labeling front end: frozen tier + guarded overlay.
//
// LabelingPipeline memoizes aggressively but is single-threaded by design;
// duplicating one per serving thread duplicates exactly the state interning
// exists to share. ConcurrentLabeler is the thread-safe replacement. Label
// and both LabelBatch overloads enter one tier walk, and each query probes
// each tier at most once:
//
//   1. the FrozenCatalog warmup tier — an immutable interner + label
//      table, read lock-free by any number of threads;
//   2. the published *overlay chunk* — the overlay interner's raw and
//      canonical tables plus their memoized labels, frozen into
//      open-addressed arrays, published through an epoch-protected atomic
//      pointer and probed under an epoch::Guard with no lock. The chunk is
//      rebuilt under the write mutex when enough novel structures
//      accumulate (Options::overlay_min_publish + a live-size-proportional
//      threshold, so rebuild work is amortized O(n)) and the old chunk is
//      retired through epoch::Domain, never freed under a reader. A stale
//      chunk is always *correct* — labels are pure functions of the query
//      — it just under-hits;
//   3. the overlay interner and memo, under the exclusive write mutex:
//      chunk misses are interned, memoized entries the chunk does not yet
//      cover resolve here, and the walk's novel structures are deduped;
//   4. the batch kernel (label::LabelQueriesBatched over the frozen tier's
//      CompiledCatalogMatcher) with no lock held, then a second writer
//      section memoizes what it computed. When the overlay interner
//      saturates (principal-controlled input must not grow memory without
//      bound), novel structures still go through the kernel but are
//      neither interned nor memoized — a pure function, no shared state.
//
// This saturation bound is the labeling-side twin of the principal map's
// capacity/TTL lifecycle (engine/principal_map.h): both cap the only two
// engine tiers that grow with untrusted traffic. Labels are pure functions
// of the query, so overlay saturation merely costs recomputation; monitor
// state is *not* recomputable, which is why the principal map needs its
// residual store where the labeler can simply fall back.
//
// Labels produced here are byte-identical to LabelingPipeline::Label on
// the same catalog — both compute through the same kernel — and
// tests/wide_matcher_property_test.cc checks them against the independent
// per-view oracle (LabelerPipeline::LabelWide) across the packed and wide
// view-count boundaries. On packed-only catalogs they also coincide with
// LabelerPipeline::LabelPacked.
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

namespace fdc::engine {

/// Namespace-scope (not nested) so it can brace-default in signatures.
struct ConcurrentLabelerOptions {
  /// Overlay interner growth bound (see LabelingOptions).
  size_t max_interned_queries = 1 << 20;
  /// Overlay whole-query label memo entries kept before a reset.
  size_t max_label_cache = 1 << 20;
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
    // Of those, masks evaluated through the batch-structured kernel. Every
    // mask is, so this equals compiled_mask_evals; it stays so readers of
    // the batch share (perfbench's label.batch_share) keep their input.
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

  /// Thread-safe label of one query: the tier walk over a batch of one.
  /// Agrees with LabelingPipeline::Label (and with
  /// LabelerPipeline::LabelPacked on packed-only catalogs).
  label::DisclosureLabel Label(const cq::ConjunctiveQuery& query);

  /// Labels a batch through the same walk; each distinct novel structure is
  /// computed once, in one kernel call for the whole batch.
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
  cq::QueryInterner::Stats interner_stats() const;
  const FrozenCatalog& frozen() const { return *frozen_; }

  /// Forces an overlay chunk rebuild + publish now. Tests and operators use
  /// it to make every memoized entry immediately probe-able lock-free
  /// instead of waiting for publish pressure to accumulate.
  void PublishOverlayChunk();

 private:
  struct OverlayChunk;
  /// The tier walk: frozen → overlay chunk → intern/memo → batch kernel.
  /// Writes the label of queries[k] into out[k].
  void LabelInto(std::span<const cq::ConjunctiveQuery* const> queries,
                 label::DisclosureLabel* out);

  /// Write side, mu_ held exclusively: bumps publish pressure and rebuilds
  /// + publishes the chunk when it crosses the threshold.
  void NotePublishPressureLocked();
  void PublishChunkLocked();

  std::shared_ptr<const FrozenCatalog> frozen_;
  Options options_;

  // Dynamic overlay write side: interning and memoizing novel structures
  // under unique_lock. Readers never touch mu_ — they probe the published
  // chunk below. The mutex type counts shared acquisitions so tests can
  // assert the warm path takes zero reader-side locks.
  mutable locks::CountedSharedMutex mu_;
  cq::QueryInterner interner_;
  std::unordered_map<int, label::DisclosureLabel> label_by_query_;

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
  std::atomic<uint64_t> per_view_tests_avoided_{0};
  std::atomic<uint64_t> overlay_chunk_hits_{0};
  std::atomic<uint64_t> overlay_chunk_publishes_{0};
  std::atomic<uint64_t> overlay_chunk_entries_{0};
};

}  // namespace fdc::engine
