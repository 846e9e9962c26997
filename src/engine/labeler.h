// The engine's shared labeling front end: frozen tier + insert-only overlay.
//
// The one label memo of the system: labels are pure functions of the query
// structure, so ConcurrentLabeler stores each structure's label once and
// every serving thread shares it. Label and LabelInto enter one walk over
// two LabelTables (engine/label_table.h), each mapping exact query forms to
// a label stored once per structure:
//
//   1. under one epoch::Guard and no lock, each query's raw form probes the
//      FrozenCatalog's table (views + warmup, immutable) and then the
//      overlay; each miss is canonicalized once, and its canonical form
//      probes both tables again;
//   2. the write side re-probes the canonical forms under the labeler's one
//      mutex (a racing walk may have stored them since) and dedupes the
//      batch's novel structures into kernel slots;
//   3. the batch kernel (label::LabelQueriesBatched over the frozen tier's
//      CompiledCatalogMatcher) labels the slots with no lock held, and a
//      second writer section stores each label once, under its canonical
//      form and the raw form it first arrived as. Once the overlay holds
//      Options::max_interned_queries structures or LabelTable::kMaxBytes
//      bytes (principal-controlled input must not grow memory without
//      bound), novel labels are returned but not stored — a pure function,
//      no shared state.
//
// This saturation bound is the labeling-side twin of the principal map's
// capacity/TTL lifecycle (engine/principal_map.h): both cap the only two
// engine tiers that grow with untrusted traffic. Labels are pure functions
// of the query, so overlay saturation merely costs recomputation; monitor
// state is *not* recomputable, which is why the principal map needs its
// residual store where the labeler can simply fall back.
//
// Labels produced here equal label::LabelingPipeline::Label on the same
// catalog — the paper's per-view test, which shares neither this memo nor
// the kernel — and the engine tests and perfbench's decision check compare
// them, across the packed and wide view-count boundaries
// (tests/wide_matcher_property_test.cc also against LabelWide). On
// packed-only catalogs they also coincide with LabelingPipeline::LabelPacked.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>

#include "cq/query.h"
#include "engine/label_table.h"
#include "engine/snapshot.h"
#include "label/compressed_label.h"

namespace fdc::engine {

/// Namespace-scope (not nested) so it can brace-default in signatures.
struct ConcurrentLabelerOptions {
  /// Overlay bound: structures stored before novel labels go stateless
  /// (the overlay's byte budget, LabelTable::kMaxBytes, bounds it too).
  size_t max_interned_queries = 1 << 20;
};

class ConcurrentLabeler {
 public:
  using Options = ConcurrentLabelerOptions;

  struct Stats {
    uint64_t frozen_hits = 0;    // resolved by the frozen table
    uint64_t overlay_hits = 0;   // resolved by the overlay table
    uint64_t overlay_misses = 0; // labeled and stored into the overlay
    uint64_t stateless_fallbacks = 0;  // overlay full; labeled, not stored
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
    // Of overlay_hits, those the lock-free probe served (the rest were
    // found by the write side's re-probe or deduped within a batch), and
    // the overlay's slot-array publishes (one per growth).
    uint64_t overlay_chunk_hits = 0;
    uint64_t overlay_chunk_publishes = 0;
    // Structures stored in the overlay, and the bytes it holds for them
    // (forms, labels, slot array) against LabelTable::kMaxBytes.
    uint64_t overlay_structures = 0;
    uint64_t overlay_bytes = 0;
  };

  explicit ConcurrentLabeler(std::shared_ptr<const FrozenCatalog> frozen,
                             Options options = {});

  /// Thread-safe label of one query: the tier walk over a batch of one.
  /// Agrees with LabelingPipeline::Label (and with LabelPacked on
  /// packed-only catalogs).
  label::DisclosureLabel Label(const cq::ConjunctiveQuery& query);

  /// The walk over a batch: raw probes → canonical probes → write-side
  /// re-probe → batch kernel → insert. Writes the label of queries[k] into
  /// out[k], assigning over what out[k] held so a reused buffer keeps its
  /// capacity. Each distinct novel structure is computed once, in one
  /// kernel call for the whole batch. The queries are pointers because the
  /// serving front end's batches point at per-connection templates.
  void LabelInto(std::span<const cq::ConjunctiveQuery* const> queries,
                 label::DisclosureLabel* out);

  Stats stats() const;

 private:
  std::shared_ptr<const FrozenCatalog> frozen_;
  Options options_;

  // Overlay: readers probe it lock-free; its inserts are serialized on mu_,
  // which only the write side takes.
  std::mutex mu_;
  LabelTable overlay_;

  std::atomic<uint64_t> frozen_hits_{0};
  std::atomic<uint64_t> overlay_hits_{0};
  std::atomic<uint64_t> overlay_misses_{0};
  std::atomic<uint64_t> stateless_fallbacks_{0};
  std::atomic<uint64_t> compiled_mask_evals_{0};
  std::atomic<uint64_t> wide_mask_evals_{0};
  std::atomic<uint64_t> per_view_tests_avoided_{0};
  std::atomic<uint64_t> overlay_chunk_hits_{0};
};

}  // namespace fdc::engine
