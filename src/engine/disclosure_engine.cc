#include "engine/disclosure_engine.h"

#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "artifact/policy_blob.h"
#include "policy/reference_monitor.h"
#include "rewriting/fold.h"
#include "storage/evaluator.h"

namespace fdc::engine {
namespace {

// Parks a displaced snapshot's ownership in the epoch domain: the refcount
// held by the heap holder drops only after every reader pinned at retire
// time has unpinned, so EBR raw-pointer loads stay valid for guard scope.
void RetireSnapshot(std::shared_ptr<const EngineSnapshot> retired) {
  if (retired == nullptr) return;
  auto* holder =
      new std::shared_ptr<const EngineSnapshot>(std::move(retired));
  epoch::Domain::Instance().RetireDelete(holder);
}

}  // namespace

DisclosureEngine::DisclosureEngine(const storage::Database* db,
                                   const label::ViewCatalog* catalog,
                                   policy::SecurityPolicy policy,
                                   EngineOptions options,
                                   std::span<const cq::ConjunctiveQuery> warmup)
    : db_(db),
      frozen_(FrozenCatalog::Build(catalog, warmup, options.dissect)),
      labeler_(frozen_, options.labeler),
      principals_(options.principals),
      snapshot_(std::make_shared<const EngineSnapshot>(
          frozen_, std::move(policy), /*epoch=*/1)),
      shadow_principals_(options.principals),
      sweep_interval_(options.principal_sweep_interval) {
  snapshot_ptr_.store(snapshot_.get(), std::memory_order_seq_cst);
}

uint64_t DisclosureEngine::UpdatePolicy(policy::SecurityPolicy policy) {
  std::shared_ptr<const EngineSnapshot> retired;
  uint64_t epoch;
  {
    // Epoch assignment and publication stay under one writer section so
    // concurrent updaters can never publish out of order. The snapshot is
    // a moved-in policy plus one allocation — cheap enough to build here.
    std::unique_lock<locks::CountedSharedMutex> lock(snapshot_mu_);
    epoch = next_epoch_++;
    auto next = std::make_shared<const EngineSnapshot>(
        frozen_, std::move(policy), epoch);
    snapshot_ptr_.store(next.get(), std::memory_order_seq_cst);
    retired = std::exchange(snapshot_, std::move(next));
  }
  // Readers hold raw pointers, not refcounts — the retired snapshot must
  // outlive every reader pinned before the publish above.
  RetireSnapshot(std::move(retired));

  // Residuals narrowed under retired epochs can never be resumed
  // (consistency bits do not transfer across policies) — drop them all and
  // raise the floor, so a straggler still holding a retired snapshot is
  // refused into the standard reload-and-retry path instead of re-creating
  // state whose narrowing was just forgotten.
  principals_.DropResidualsBefore(epoch);
  return epoch;
}

Result<uint64_t> DisclosureEngine::UpdatePolicy(
    const artifact::LoadedPolicyBlob& blob) {
  Status valid = artifact::ValidateAgainstCatalog(blob, frozen_->catalog());
  if (!valid.ok()) return valid;
  Result<policy::SecurityPolicy> policy = artifact::PolicyFromBlob(blob);
  if (!policy.ok()) return policy.status();
  return UpdatePolicy(*std::move(policy));
}

uint64_t DisclosureEngine::SetShadowPolicy(policy::SecurityPolicy policy,
                                           std::string policy_name) {
  uint64_t epoch;
  std::shared_ptr<const EngineSnapshot> retired;
  {
    std::unique_lock<locks::CountedSharedMutex> lock(snapshot_mu_);
    epoch = next_epoch_++;
    auto next = std::make_shared<const EngineSnapshot>(
        frozen_, std::move(policy), epoch);
    shadow_ptr_.store(next.get(), std::memory_order_seq_cst);
    retired = std::exchange(shadow_snapshot_, std::move(next));
    shadow_name_ = std::move(policy_name);
  }
  RetireSnapshot(std::move(retired));
  // A replaced shadow policy invalidates shadow consistency state exactly
  // like a live swap invalidates live state.
  shadow_principals_.DropResidualsBefore(epoch);
  shadow_enabled_.store(true, std::memory_order_release);
  return epoch;
}

Result<uint64_t> DisclosureEngine::SetShadowPolicy(
    const artifact::LoadedPolicyBlob& blob) {
  Status valid = artifact::ValidateAgainstCatalog(blob, frozen_->catalog());
  if (!valid.ok()) return valid;
  Result<policy::SecurityPolicy> policy = artifact::PolicyFromBlob(blob);
  if (!policy.ok()) return policy.status();
  return SetShadowPolicy(*std::move(policy), blob.meta().name);
}

void DisclosureEngine::ClearShadowPolicy() {
  // Flag first: a request that loads shadow_enabled_ == true right before
  // this still reads a coherent (snapshot, epoch) pair or sees nullptr and
  // skips — either way its live decision is unaffected.
  shadow_enabled_.store(false, std::memory_order_release);
  std::shared_ptr<const EngineSnapshot> retired;
  {
    std::unique_lock<locks::CountedSharedMutex> lock(snapshot_mu_);
    shadow_ptr_.store(nullptr, std::memory_order_seq_cst);
    retired = std::exchange(shadow_snapshot_, nullptr);
    shadow_name_.clear();
  }
  RetireSnapshot(std::move(retired));
}

void DisclosureEngine::ShadowEvaluate(
    SnapshotAccess* access, std::string_view principal,
    std::span<const label::DisclosureLabel* const> labels,
    const std::vector<bool>& live) {
  struct Tally {
    uint64_t agree = 0, stricter = 0, looser = 0;
  };
  for (;;) {
    const EngineSnapshot* snap = access->LoadShadow();
    if (snap == nullptr) return;  // cleared while we were deciding
    const policy::ReferenceMonitor monitor(&snap->policy());
    const std::optional<Tally> tally = shadow_principals_.TryWithState(
        principal, snap->epoch(), snap->InitialMask(),
        [&](policy::PrincipalState& state) {
          Tally t;
          for (size_t i = 0; i < labels.size(); ++i) {
            const bool shadow = monitor.Submit(&state, *labels[i]);
            if (shadow == live[i]) {
              ++t.agree;
            } else if (live[i]) {
              ++t.stricter;  // live accepted, candidate would refuse
            } else {
              ++t.looser;  // live refused, candidate would accept
            }
          }
          return t;
        });
    if (!tally.has_value()) continue;  // raced a shadow swap; reload
    shadow_agree_.fetch_add(tally->agree, std::memory_order_relaxed);
    shadow_stricter_.fetch_add(tally->stricter, std::memory_order_relaxed);
    shadow_looser_.fetch_add(tally->looser, std::memory_order_relaxed);
    return;
  }
}

size_t DisclosureEngine::SweepPrincipals() {
  principals_.AdvanceClock();
  return principals_.Sweep();
}

void DisclosureEngine::MaybeAutoSweep(uint64_t decisions) {
  if (sweep_interval_ == 0) return;
  const uint64_t before =
      decisions_since_sweep_.fetch_add(decisions, std::memory_order_relaxed);
  // Exactly the thread that crosses a multiple of the interval sweeps.
  if (before / sweep_interval_ != (before + decisions) / sweep_interval_) {
    SweepPrincipals();
  }
}

uint64_t DisclosureEngine::Decide(
    SnapshotAccess* access, std::string_view principal,
    std::span<const label::DisclosureLabel* const> labels,
    std::vector<bool>* decided) {
  decided->resize(labels.size());
  for (;;) {
    const EngineSnapshot* snap = access->Load();
    const policy::ReferenceMonitor monitor(&snap->policy());
    const std::optional<uint64_t> accepted = principals_.TryWithState(
        principal, snap->epoch(), snap->InitialMask(),
        [&](policy::PrincipalState& state) {
          uint64_t ok = 0;
          for (size_t i = 0; i < labels.size(); ++i) {
            const bool d = monitor.Submit(&state, *labels[i]);
            (*decided)[i] = d;
            ok += d ? 1 : 0;
          }
          return ok;
        });
    if (!accepted.has_value()) continue;  // lost a race with a policy swap
    accepted_.fetch_add(*accepted, std::memory_order_relaxed);
    refused_.fetch_add(labels.size() - *accepted, std::memory_order_relaxed);
    if (ShadowEnabled()) ShadowEvaluate(access, principal, labels, *decided);
    return snap->epoch();
  }
}

namespace {

// A serving thread's request buffers, reused across requests so a warm
// request allocates nothing. Labels are assigned over, never destroyed, so
// each keeps its atom buffers for the next request.
struct RequestScratch {
  std::vector<const cq::ConjunctiveQuery*> queries;
  std::vector<label::DisclosureLabel> labels;
  std::vector<const label::DisclosureLabel*> label_ptrs;
  std::vector<bool> decided;
  // SubmitCoalesced's grouping by principal.
  std::unordered_map<std::string_view, uint32_t> group_of;
  struct Group {
    std::string_view principal;
    std::vector<uint32_t> indices;  // request indices, arrival order
    std::vector<const label::DisclosureLabel*> labels;
  };
  std::vector<Group> groups;
  size_t groups_used = 0;

  // Labels `queries` (a prefix of the buffers) and points label_ptrs[k] at
  // the label of queries[k]. Labels depend only on the catalog, never on
  // the policy, so this runs once, outside any snapshot retry.
  void Label(ConcurrentLabeler* labeler,
             std::span<const cq::ConjunctiveQuery* const> batch) {
    if (labels.size() < batch.size()) labels.resize(batch.size());
    labeler->LabelInto(batch, labels.data());
    label_ptrs.clear();
    for (size_t k = 0; k < batch.size(); ++k) label_ptrs.push_back(&labels[k]);
  }
};
thread_local RequestScratch t_scratch;

}  // namespace

bool DisclosureEngine::Submit(std::string_view principal,
                              const cq::ConjunctiveQuery& query) {
  RequestScratch& s = t_scratch;
  const cq::ConjunctiveQuery* one = &query;
  s.Label(&labeler_, std::span<const cq::ConjunctiveQuery* const>(&one, 1));
  SnapshotAccess access(this);
  Decide(&access, principal, s.label_ptrs, &s.decided);
  MaybeAutoSweep(1);
  return s.decided[0];
}

std::vector<bool> DisclosureEngine::SubmitBatch(
    std::string_view principal,
    std::span<const cq::ConjunctiveQuery> queries) {
  RequestScratch& s = t_scratch;
  s.queries.clear();
  for (const cq::ConjunctiveQuery& query : queries) s.queries.push_back(&query);
  s.Label(&labeler_, s.queries);
  std::vector<bool> decisions;
  SnapshotAccess access(this);
  Decide(&access, principal, s.label_ptrs, &decisions);
  MaybeAutoSweep(queries.size());
  return decisions;
}

void DisclosureEngine::SubmitCoalesced(
    std::span<const SubmitRequest> requests, std::vector<bool>* decisions,
    std::vector<uint64_t>* epochs) {
  decisions->clear();
  decisions->resize(requests.size());
  if (epochs != nullptr) {
    epochs->clear();
    epochs->resize(requests.size());
  }
  if (requests.empty()) return;

  // One labeling pass over the whole wake: the batch kernel and the
  // batch's distinct-structure dedup see the full coalesced size, not
  // per-connection fragments.
  RequestScratch& s = t_scratch;
  s.queries.clear();
  for (const SubmitRequest& request : requests) {
    s.queries.push_back(request.query);
  }
  s.Label(&labeler_, s.queries);

  // Group request indices by principal, preserving arrival order within
  // each group (the only order monitor decisions depend on).
  s.group_of.clear();
  s.groups_used = 0;
  for (uint32_t i = 0; i < requests.size(); ++i) {
    auto [it, inserted] = s.group_of.try_emplace(
        requests[i].principal, static_cast<uint32_t>(s.groups_used));
    if (inserted) {
      if (s.groups_used == s.groups.size()) s.groups.emplace_back();
      RequestScratch::Group& group = s.groups[s.groups_used++];
      group.principal = requests[i].principal;
      group.indices.clear();
      group.labels.clear();
    }
    RequestScratch::Group& group = s.groups[it->second];
    group.indices.push_back(i);
    group.labels.push_back(s.label_ptrs[i]);
  }

  SnapshotAccess access(this);
  for (size_t g = 0; g < s.groups_used; ++g) {
    const RequestScratch::Group& group = s.groups[g];
    const uint64_t epoch =
        Decide(&access, group.principal, group.labels, &s.decided);
    for (size_t j = 0; j < group.indices.size(); ++j) {
      (*decisions)[group.indices[j]] = s.decided[j];
      if (epochs != nullptr) (*epochs)[group.indices[j]] = epoch;
    }
  }
  MaybeAutoSweep(requests.size());
}

Result<std::vector<storage::Tuple>> DisclosureEngine::Query(
    const std::string& principal, const cq::ConjunctiveQuery& query) {
  if (db_ == nullptr) {
    return Status::InvalidArgument(
        "engine was constructed without a database; use Submit for "
        "decision-only checks");
  }
  if (!Submit(principal, query)) {
    return Status::PolicyViolation(
        "query refused: cumulative disclosure would exceed every policy "
        "partition for principal '" +
        principal + "'");
  }
  return Evaluate(*db_, query);
}

Result<std::vector<storage::Tuple>> DisclosureEngine::QuerySql(
    const std::string& principal, const std::string& sql) {
  if (db_ == nullptr) {
    return Status::InvalidArgument(
        "engine was constructed without a database; use Submit for "
        "decision-only checks");
  }
  Result<cq::ConjunctiveQuery> parsed = cq::ParseSql(sql, db_->schema());
  if (!parsed.ok()) return parsed.status();
  return Query(principal, *parsed);
}

policy::Explanation DisclosureEngine::ExplainQuery(
    const std::string& principal, const cq::ConjunctiveQuery& query) {
  const label::DisclosureLabel label = labeler_.Label(query);
  SnapshotAccess access(this);
  for (;;) {
    const EngineSnapshot* snap = access.Load();
    const std::optional<uint64_t> consistent = principals_.Consistent(
        principal, snap->epoch(), snap->InitialMask());
    if (!consistent.has_value()) continue;  // raced a policy swap; reload
    return policy::ExplainDecision(snap->policy(), frozen_->catalog(), label,
                                   *consistent);
  }
}

uint64_t DisclosureEngine::ConsistentPartitions(
    std::string_view principal) const {
  SnapshotAccess access(this);
  for (;;) {
    const EngineSnapshot* snap = access.Load();
    const std::optional<uint64_t> consistent = principals_.Consistent(
        principal, snap->epoch(), snap->InitialMask());
    if (consistent.has_value()) return *consistent;
  }
}

DisclosureEngine::EngineStats DisclosureEngine::Stats() const {
  EngineStats stats;
  stats.principal_map = principals_.stats();
  stats.num_principals = stats.principal_map.live;
  stats.frozen_labels = frozen_->num_frozen_labels();
  // Independent relaxed counters: totals may be transiently inconsistent
  // with each other under concurrency, but each is monotone and exact.
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.refused = refused_.load(std::memory_order_relaxed);
  stats.submitted = stats.accepted + stats.refused;
  stats.labeler = labeler_.stats();
  stats.fold_scratch_reuses = rewriting::FoldScratchReuses();
  stats.ebr = epoch::Domain::Instance().Stats();
  {
    // One snapshot load per Stats call: the live epoch and the shadow
    // fields are read under the same acquisition, so a report can never
    // pair an epoch with shadow state from a different snapshot.
    std::shared_lock<locks::CountedSharedMutex> lock(snapshot_mu_);
    stats.epoch = snapshot_->epoch();
    if (shadow_snapshot_ != nullptr) {
      stats.shadow.enabled =
          shadow_enabled_.load(std::memory_order_acquire);
      stats.shadow.epoch = shadow_snapshot_->epoch();
      stats.shadow.policy_name = shadow_name_;
    }
  }
  // Each outcome counter is an exact monotone count; `evaluated` is
  // derived as their sum rather than kept separately, so the identity
  // evaluated == agree + stricter + looser holds in every snapshot even
  // when the three loads interleave with a concurrent ShadowEvaluate.
  stats.shadow.agree = shadow_agree_.load(std::memory_order_relaxed);
  stats.shadow.shadow_stricter =
      shadow_stricter_.load(std::memory_order_relaxed);
  stats.shadow.shadow_looser =
      shadow_looser_.load(std::memory_order_relaxed);
  stats.shadow.evaluated = stats.shadow.agree + stats.shadow.shadow_stricter +
                           stats.shadow.shadow_looser;
  return stats;
}

}  // namespace fdc::engine
