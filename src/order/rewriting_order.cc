#include "order/rewriting_order.h"

#include "rewriting/atom_rewriting.h"

namespace fdc::order {

bool RewritingOrder::LeqPair(int v, int w) const {
  if (auto cached = cache_->Lookup(v, w)) return *cached;
  const bool result =
      rewriting::AtomRewritable(universe_->Get(v), universe_->Get(w));
  cache_->Insert(v, w, result);
  return result;
}

bool RewritingOrder::LeqSingle(int v, const ViewSet& w_set) const {
  for (int w : w_set) {
    if (LeqPair(v, w)) return true;
  }
  return false;
}

}  // namespace fdc::order
