// Tier 1 of the DisclosureEngine: build-then-freeze shared state.
//
// The engine splits enforcement state by mutability so that the common case
// — many threads labeling and submitting concurrently — touches no locks on
// anything shared and immutable:
//
//   * FrozenCatalog: everything derivable from the view catalog alone,
//     built once single-threaded and then immutable. Holds the interned
//     view catalog (every view pattern hash-consed into a frozen
//     QueryInterner), each view's own precomputed disclosure label, the
//     rewriting-order closure over catalog views ({v} ⪯ {w} for every
//     pair), and an optional frozen warmup tier: whole-query labels for a
//     representative workload, looked up lock-free before the engine's
//     mutable overlay is consulted.
//
//   * EngineSnapshot: one *policy epoch* — a FrozenCatalog plus a compiled
//     SecurityPolicy and a monotonically increasing epoch id. Snapshots are
//     immutable and published by the engine via an atomic shared_ptr swap,
//     so a policy update never edits state a concurrent request can see:
//     in-flight requests finish against the snapshot they loaded, new
//     requests see the new epoch. Per-principal consistency bits are tagged
//     with the epoch they were narrowed under; a principal's first submit
//     after a swap restarts from the new policy's full partition mask
//     (partition bit positions are meaningless across policies, so carrying
//     bits across epochs would be unsound).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cq/interned.h"
#include "cq/query.h"
#include "label/compiled_matcher.h"
#include "label/compressed_label.h"
#include "label/dissect.h"
#include "label/view_catalog.h"
#include "policy/policy.h"

namespace fdc::engine {

class FrozenCatalog {
 public:
  /// Builds the frozen tier: compiles the catalog's matcher automaton
  /// (label::CompiledCatalogMatcher), interns each view's defining query and
  /// every `warmup` query into the frozen interner, labels each distinct
  /// structure in one label::LabelQueriesBatched call, and closes the
  /// single-atom rewriting order over the catalog. Single-threaded; the
  /// result is immutable and every const method below is safe from any
  /// number of threads without locks.
  static std::shared_ptr<const FrozenCatalog> Build(
      const label::ViewCatalog* catalog,
      std::span<const cq::ConjunctiveQuery> warmup = {},
      label::DissectOptions dissect_options = {});

  const label::ViewCatalog& catalog() const { return *catalog_; }
  const label::DissectOptions& dissect_options() const {
    return dissect_options_;
  }

  /// The catalog's compiled matcher automaton — the frozen tier owns the
  /// compiled artifact, and the engine's labeler evaluates this one
  /// instance lock-free for every label it computes. Mask width is
  /// per-relation (multi-word beyond 64 views; wide label atoms beyond the
  /// packed 32-view capacity), fixed when this catalog froze.
  const label::CompiledCatalogMatcher& matcher() const { return matcher_; }

  /// Largest per-relation mask word count in the compiled matcher: 1 for
  /// packed-only catalogs, more when some relation carries > 64 views.
  int max_mask_words() const { return matcher_.max_mask_words(); }

  /// Disclosure label of view `id`'s own defining query.
  const label::DisclosureLabel& ViewLabel(int id) const {
    return labels_[static_cast<size_t>(view_query_ids_[id])];
  }

  /// Rewriting-order closure bit: {view v} ⪯ {view w} (single-atom
  /// rewritability of v in terms of w), precomputed for every catalog pair.
  bool ViewLeq(int v, int w) const {
    return (closure_[static_cast<size_t>(v) * closure_stride_ +
                     (static_cast<size_t>(w) >> 6)] >>
            (static_cast<size_t>(w) & 63)) &
           1;
  }

  /// Frozen warmup label for `query` (up to renaming/atom order), or
  /// nullptr if the structure was not in the warmup set. Lock-free.
  const label::DisclosureLabel* FindLabel(
      const cq::ConjunctiveQuery& query) const;

  int num_views() const { return catalog_->size(); }
  size_t num_frozen_labels() const { return labels_.size(); }

 private:
  FrozenCatalog() = default;

  const label::ViewCatalog* catalog_ = nullptr;
  label::DissectOptions dissect_options_;
  label::CompiledCatalogMatcher matcher_;  // frozen after Build
  cq::QueryInterner interner_;  // frozen after Build; const reads only
  std::vector<label::DisclosureLabel> labels_;  // by frozen interned id
  std::vector<int> view_query_ids_;  // interned id of each view's query
  std::vector<uint64_t> closure_;  // row-major bitset, stride in words
  size_t closure_stride_ = 0;
};

/// One immutable policy epoch: the frozen catalog tier plus a compiled
/// policy. Published by DisclosureEngine::UpdatePolicy via atomic
/// shared_ptr exchange; hold the shared_ptr for the duration of a request
/// and every read is consistent.
class EngineSnapshot {
 public:
  EngineSnapshot(std::shared_ptr<const FrozenCatalog> frozen,
                 policy::SecurityPolicy policy, uint64_t epoch)
      : frozen_(std::move(frozen)),
        policy_(std::move(policy)),
        epoch_(epoch) {}

  const FrozenCatalog& frozen() const { return *frozen_; }
  const policy::SecurityPolicy& policy() const { return policy_; }
  uint64_t epoch() const { return epoch_; }

  /// The fully consistent per-principal state under this policy.
  uint64_t InitialMask() const { return policy_.AllPartitionsMask(); }

 private:
  std::shared_ptr<const FrozenCatalog> frozen_;
  policy::SecurityPolicy policy_;
  uint64_t epoch_;
};

}  // namespace fdc::engine
