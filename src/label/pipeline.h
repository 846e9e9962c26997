// End-to-end multi-atom labeling pipeline (§5.2 + §6.1), in the three
// variants benchmarked in Figure 5:
//
//   * Baseline        — LabelGen adapted directly from §4.2: for every
//                       dissected atom, scan the *entire* security-view
//                       catalog and collect ℓ+ as a sorted id set.
//   * Hashed          — partition views by base relation (hashtable); scan
//                       only the bucket of the atom's relation.
//   * Hashed+Bitvector— bucket scan + packed 64-bit ℓ+ masks (§6.1); no
//                       per-query allocation beyond the output label.
//
// All variants share Dissect (folding included), so measured differences
// isolate the lookup/representation optimizations, matching the paper's
// experimental design.
#pragma once

#include <memory>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "cq/interned.h"
#include "cq/query.h"
#include "label/batch_label.h"
#include "label/compiled_matcher.h"
#include "label/compressed_label.h"
#include "label/dissect.h"
#include "label/view_catalog.h"
#include "rewriting/containment_cache.h"

namespace fdc::label {

/// Set-based label: per dissected atom, the catalog ids of views in ℓ+ as a
/// genuine set container — this is the §4.2 representation that the §6.1
/// bit vectors replace, kept as an honest comparison point (Figure 5's
/// "baseline" and "hashing only" series) and for analysis tooling.
struct SetLabel {
  std::vector<std::set<int>> per_atom;
  bool top = false;  // some atom matched no view

  /// ⪯ in the label lattice (mirrors DisclosureLabel::Leq).
  bool Leq(const SetLabel& other) const;
};

class LabelerPipeline {
 public:
  explicit LabelerPipeline(const ViewCatalog* catalog,
                           DissectOptions dissect_options = {})
      : catalog_(catalog), dissect_options_(dissect_options) {}

  /// Figure 5 series "baseline".
  SetLabel LabelBaseline(const cq::ConjunctiveQuery& query) const;

  /// Figure 5 series "hashing only".
  SetLabel LabelHashed(const cq::ConjunctiveQuery& query) const;

  /// Figure 5 series "bit vectors + hashing" — the seed packed path.
  /// Packed masks carry kPackedViewCapacity (32) views per relation; views
  /// with bit ≥ 32 are excluded (labels strictly higher — fail-safe). The
  /// production LabelingPipeline has no such edge: its compiled matcher
  /// emits wide atoms for relations beyond the packed capacity.
  DisclosureLabel LabelPacked(const cq::ConjunctiveQuery& query) const;

  /// Every atom in multi-word form via the raw per-view AtomRewritable loop
  /// (ablation A2); no per-relation view-count limit. This is the seed
  /// oracle the wide compiled kernel is property-tested against.
  WideLabel LabelWide(const cq::ConjunctiveQuery& query) const;

  const ViewCatalog& catalog() const { return *catalog_; }

 private:
  const ViewCatalog* catalog_;
  DissectOptions dissect_options_;
};

/// ℓ+ mask of one normalized single-atom pattern against `catalog`,
/// memoizing per-(pattern, view) rewritability decisions in `cache` under
/// kCatalogRewritable, keyed by `pattern_id` from `interner`. This is the
/// *seed per-view kernel*: production labels come from the compiled
/// matcher's batch kernel instead (LabelQueriesBatched — one pass, no
/// interner, no cache), and this loop remains the `ablate_compiled_matcher`
/// baseline and property-test oracle — tests/compiled_matcher_test.cc pins
/// the two mask-for-mask.
///
/// Packed masks hold kPackedViewCapacity (32) views per relation; views
/// with bit ≥ 32 are excluded here rather than shifted out of range (which
/// was UB) — labels over such catalogs are strictly higher (stricter,
/// fail-safe). The production kernel has no such cap: relations beyond the
/// packed capacity get exact multi-word masks in WideAtomLabel entries, so
/// this kernel is the *packed* oracle only.
PackedAtomLabel ComputePatternMask(const ViewCatalog& catalog,
                                   const cq::QueryInterner& interner,
                                   rewriting::ContainmentCache& cache,
                                   int pattern_id,
                                   const cq::AtomPattern& pattern);

/// The single-threaded labeling front end: intern → memoize → batch kernel.
///
///   1. queries are canonicalized once and hash-consed by a QueryInterner,
///      so structurally repeated queries share one interned id;
///   2. whole-query labels are memoized by interned id — the §7.2
///      repeated-template workload turns into one hash probe per query;
///   3. memo misses are labeled by LabelQueriesBatched (label/batch_label.h),
///      the kernel every production label goes through: Label computes a
///      batch of one, LabelBatch computes each distinct novel structure of
///      the batch exactly once, their dissected atoms bucketed per relation
///      through the compiled matcher's MatchMaskBatch. Relations with more
///      views than a packed mask carries get exact multi-word wide atoms.
///   4. once the interner saturates, novel structures are labeled through
///      the same kernel without being interned or memoized.
///
/// Two reference modes stay as benchmark baselines and test oracles; in
/// either, LabelBatch is one Label per query:
///   * `ablate_interning` — the BatchMonitor baseline: LabelPacked per query,
///     no interning, no memo;
///   * `ablate_compiled_matcher` — the seed per-view kernel: patterns
///     interned, masks memoized, per-view tests through the pipeline's
///     ContainmentCache under kCatalogRewritable (packed-only, so it
///     over-labels relations beyond the packed view capacity).
///
/// Sharing contract: every method (including the memo-warming ones) mutates
/// unguarded state, so an instance must be confined to one thread; it is the
/// seed/ablation oracle and the right choice for one-shot tools. Serving
/// threads share labeling state through engine::ConcurrentLabeler instead,
/// which walks a lock-free frozen tier and an overlay with lock-free warm
/// hits into the same kernel (identical labels, property-tested). The
/// pipeline's ContainmentCache (cache()) may be handed to other analyses
/// over the same interner and catalog; it is internally sharded and
/// thread-safe.
struct LabelingOptions {
  /// Baseline mode: no interning, no memoization (bench ablation).
  bool ablate_interning = false;
  /// Seed-kernel mode: per-atom ℓ+ masks come from the per-view
  /// ComputePatternMask loop (pattern interning + ContainmentCache) instead
  /// of the CompiledCatalogMatcher. Kept as the ablation baseline and the
  /// *packed* oracle the compiled matcher is property-tested against —
  /// on catalogs beyond the packed view capacity it over-labels (bit ≥ 32
  /// excluded), while the compiled path stays exact via wide atoms.
  bool ablate_compiled_matcher = false;
  /// Whole-query label memo entries kept before the memo is reset.
  size_t max_label_cache = 1 << 20;
  /// Interner growth bound: once this many distinct structures are
  /// interned, novel ones are labeled statelessly instead of being
  /// interned — queries are principal-controlled, so the interner must not
  /// grow without bound under adversarial distinct-structure streams.
  /// Known structures keep hitting their memoized labels.
  size_t max_interned_queries = 1 << 20;
};

class LabelingPipeline {
 public:
  using Options = LabelingOptions;

  struct Stats {
    uint64_t label_hits = 0;    // whole-query label memo hits
    uint64_t label_misses = 0;  // labels computed from scratch
    uint64_t mask_hits = 0;     // per-pattern ℓ+ mask memo hits (seed path)
    uint64_t mask_misses = 0;
    uint64_t compiled_mask_evals = 0;  // masks answered by the compiled net
    // Of those, evaluations over relations beyond the packed view capacity
    // (the compiled net produced a multi-word wide atom).
    uint64_t wide_mask_evals = 0;
    // Of those, masks evaluated through the batch-structured kernel
    // (LabelBatch's per-relation buckets via MatchMaskBatch).
    uint64_t batch_mask_evals = 0;
    // Per-view rewritability tests the seed loop would have run for those
    // masks (the work the compiled matcher replaces outright).
    uint64_t per_view_tests_avoided = 0;
  };

  /// Compiles and owns the catalog's matcher unless a reference mode is
  /// selected. `catalog` must outlive the pipeline.
  explicit LabelingPipeline(const ViewCatalog* catalog,
                            DissectOptions dissect_options = {},
                            LabelingOptions options = {});

  /// Interned + memoized label; agrees with LabelPacked on packed-only
  /// catalogs.
  DisclosureLabel Label(const cq::ConjunctiveQuery& query);

  /// Labels a batch, computing each distinct structure once.
  std::vector<DisclosureLabel> LabelBatch(
      std::span<const cq::ConjunctiveQuery> queries);

  cq::QueryInterner& interner() { return interner_; }
  /// The pipeline's decision cache (created on first use — only the seed
  /// kernel probes it itself).
  rewriting::ContainmentCache& cache() { return EnsureCache(); }
  const Stats& stats() const { return stats_; }
  const ViewCatalog& catalog() const { return inner_.catalog(); }
  /// The compiled matcher in use, or nullptr in a reference mode.
  const CompiledCatalogMatcher* matcher() const { return matcher_.get(); }

 private:
  rewriting::ContainmentCache& EnsureCache();
  /// ℓ+ mask of one interned pattern (memoized; seed kernel).
  PackedAtomLabel MaskFor(int pattern_id, const cq::AtomPattern& pattern);
  /// LabelQueriesBatched over `queries` into computed_, bumping stats_.
  void ComputeBatch(std::span<const cq::ConjunctiveQuery* const> queries);
  /// Label of one memo miss: a batch of one through the kernel, or the
  /// seed kernel in that reference mode.
  DisclosureLabel ComputeLabel(const cq::ConjunctiveQuery& query);

  LabelerPipeline inner_;
  DissectOptions dissect_options_;
  Options options_;
  cq::QueryInterner interner_;
  std::unique_ptr<rewriting::ContainmentCache> cache_;
  std::unique_ptr<const CompiledCatalogMatcher> matcher_;
  std::unordered_map<int, DisclosureLabel> label_by_query_;
  std::unordered_map<int, PackedAtomLabel> mask_by_pattern_;
  // Kernel scratch and output, reused across calls (warm batches allocate
  // nothing in the bucket loop).
  BatchLabelScratch batch_scratch_;
  std::vector<DisclosureLabel> computed_;
  Stats stats_;
};

}  // namespace fdc::label
