// The reference monitor (§3.4 algorithm + §6.2 bit-vector state).
//
// Queries arrive one at a time; the monitor answers or refuses each so the
// policy invariant "{answered queries} ⪯ Wi for some partition i" always
// holds. Per-principal state is a single bit vector with one bit per
// partition (Example 6.3): bit i set means the history so far is ⪯ Wi.
// A query is accepted iff at least one bit survives; refused queries leave
// the state untouched. The state word is 64 bits wide, matching
// SecurityPolicy::kMaxPartitions.
//
// SubmitBatch is Submit over each label in order. It keeps no memo of
// repeated labels: on the §7.2 pool a partition scan costs less than
// hashing a label to look it up.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "label/compressed_label.h"
#include "policy/policy.h"

namespace fdc::policy {

/// Per-principal monitor state: which partitions remain consistent with the
/// queries answered so far. Within one policy epoch the bits only ever
/// narrow (Submit clears bits, never sets them). The engine's
/// PrincipalStateMap relies on that: it may reclaim an idle principal's
/// slot and later resume these exact bits from a compact residual record
/// (engine/principal_map.h), because resuming a narrowed value can never
/// widen what the principal may still learn.
struct PrincipalState {
  uint64_t consistent = 0;
};

class ReferenceMonitor {
 public:
  explicit ReferenceMonitor(const SecurityPolicy* policy) : policy_(policy) {}

  PrincipalState InitialState() const {
    return PrincipalState{policy_->AllPartitionsMask()};
  }

  /// Stateless check (§6.2 first model): answer iff the label alone is below
  /// some partition. Equivalent to the stateful model when k == 1.
  bool CheckStateless(const label::DisclosureLabel& label) const {
    return policy_->AllowedPartitions(label, policy_->AllPartitionsMask()) !=
           0;
  }

  /// Stateful submit: on accept, state narrows to the partitions that stay
  /// consistent; on refuse, state is unchanged and false is returned.
  bool Submit(PrincipalState* state, const label::DisclosureLabel& label) const {
    const uint64_t surviving =
        policy_->AllowedPartitions(label, state->consistent);
    if (surviving == 0) return false;
    state->consistent = surviving;
    return true;
  }

  /// Submit on each label in order; one accept/refuse bit per label.
  std::vector<bool> SubmitBatch(
      PrincipalState* state,
      std::span<const label::DisclosureLabel> labels) const {
    std::vector<bool> decisions;
    decisions.reserve(labels.size());
    for (const label::DisclosureLabel& label : labels) {
      decisions.push_back(Submit(state, label));
    }
    return decisions;
  }

  /// The same over labels that are not contiguous, one address per label.
  std::vector<bool> SubmitBatch(
      PrincipalState* state,
      std::span<const label::DisclosureLabel* const> labels) const {
    std::vector<bool> decisions;
    decisions.reserve(labels.size());
    for (const label::DisclosureLabel* label : labels) {
      decisions.push_back(Submit(state, *label));
    }
    return decisions;
  }

  const SecurityPolicy& policy() const { return *policy_; }

 private:
  const SecurityPolicy* policy_;
};

}  // namespace fdc::policy
