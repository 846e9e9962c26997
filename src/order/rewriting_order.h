// The equivalent-view-rewriting disclosure order (§3.1, §5) over a Universe
// of single-atom views.
//
// {V} ⪯ W iff V has an equivalent rewriting in terms of the views in W.
// For single-atom V and single-atom views W this reduces to rewritability in
// terms of a single member of W: a multi-view rewriting unfolds to a
// multi-atom query, and for it to be equivalent to the single atom V its
// core must collapse onto one atom — at which point the one view whose atom
// survives in the core already suffices. The reduction is cross-checked
// against the brute-force oracle in tests.
//
// Results of pairwise tests are memoized in a rewriting::ContainmentCache:
// workloads ask the same (pattern, view) pairs millions of times (§7.2).
// Pass a shared cache so every consumer of the same universe (GlbLabeler,
// DisclosureLattice, analyses) hits one bounded table; without one, the
// order creates a private cache.
#pragma once

#include <memory>

#include "order/preorder.h"
#include "order/universe.h"
#include "rewriting/containment_cache.h"

namespace fdc::order {

class RewritingOrder final : public DisclosureOrder {
 public:
  /// `shared_cache` may be null (a private cache is created) but, when
  /// given, must only be keyed with this universe's view ids — one cache
  /// per universe.
  explicit RewritingOrder(const Universe* universe,
                          rewriting::ContainmentCache* shared_cache = nullptr)
      : universe_(universe), cache_(shared_cache) {
    if (cache_ == nullptr) {
      owned_cache_ = std::make_unique<rewriting::ContainmentCache>();
      cache_ = owned_cache_.get();
    }
  }

  bool LeqSingle(int v, const ViewSet& w_set) const override;

  /// Pairwise test {v} ⪯ {w}, memoized.
  bool LeqPair(int v, int w) const;

  const Universe& universe() const { return *universe_; }
  rewriting::ContainmentCache& cache() const { return *cache_; }

 private:
  const Universe* universe_;
  rewriting::ContainmentCache* cache_;
  std::unique_ptr<rewriting::ContainmentCache> owned_cache_;
};

}  // namespace fdc::order
