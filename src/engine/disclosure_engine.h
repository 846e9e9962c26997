// DisclosureEngine: the shard-aware, thread-safe enforcement core.
//
// One engine instance serves any number of threads. The paper's
// per-principal reference monitor (§3.4/§6.2) is preserved exactly — the
// engine is decision-for-decision identical to the seed
// LabelingPipeline + ReferenceMonitor composition (property-tested) — but
// the state behind it is restructured into three tiers:
//
//   1. frozen shared state (engine/snapshot.h): the compiled view catalog
//      and a frozen label table of view and warmup labels, built once and
//      read lock-free;
//   2. sharded concurrency: the insert-only labeling overlay, whose warm
//      hits are lock-free table probes (engine/labeler.h), and per-principal
//      monitor state in a sharded open-addressed map
//      (engine/principal_map.h) — submits from N threads on distinct
//      principals touch disjoint shard locks and never serialize on
//      labeling hits;
//   3. policy epochs: UpdatePolicy compiles a new EngineSnapshot and
//      publishes it atomically. Every request loads the snapshot exactly
//      once, so it sees one consistent policy — never a half-updated one —
//      and per-principal state is epoch-tagged so stale consistency bits
//      can never leak across policies. The request path loads an
//      epoch-protected raw pointer under an epoch::Guard — no lock, no
//      refcount traffic — and a replaced snapshot is reclaimed through
//      epoch::Domain once every in-flight reader has unpinned.
//
// Submit, SubmitBatch and SubmitCoalesced label into per-thread buffers
// and share one private decision step (Decide); a warm Submit or
// SubmitCoalesced wake allocates nothing.
//
// Oracle: the seed single-threaded composition, LabelingPipeline +
// ReferenceMonitor, lives on in the tests and in perfbench's decision
// check, and the engine's decisions are differential-tested against it
// (tests/engine_equivalence_test.cc, tests/engine_concurrency_test.cc).
// LabelingPipeline labels by the paper's per-view test and shares neither
// the engine's label memo nor its kernel (label::LabelQueriesBatched), so
// the comparison checks labels and monitor state independently;
// bench/fig_engine_scaling.cc sweeps 1→N threads against this facade.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "common/epoch.h"
#include "common/locks.h"
#include "common/result.h"
#include "cq/query.h"
#include "cq/sql_parser.h"
#include "engine/labeler.h"
#include "engine/principal_map.h"
#include "engine/snapshot.h"
#include "label/compressed_label.h"
#include "policy/explain.h"
#include "policy/policy.h"
#include "storage/database.h"
#include "storage/tuple.h"

namespace fdc::artifact {
class LoadedPolicyBlob;
}  // namespace fdc::artifact

namespace fdc::engine {

struct EngineOptions {
  /// Per-principal monitor-state lifecycle: shard count, live-slot
  /// capacity, idle TTL (see PrincipalMapOptions). The defaults preserve
  /// the unbounded pre-lifecycle behavior.
  PrincipalMapOptions principals;
  /// Decisions between automatic principal sweeps (each sweep advances the
  /// map's idle clock one tick and reclaims slots idle longer than
  /// principals.idle_ttl_ticks). 0 = sweep only via SweepPrincipals().
  uint64_t principal_sweep_interval = 0;
  /// Dynamic-labeler bounds (see ConcurrentLabeler::Options).
  ConcurrentLabeler::Options labeler;
  /// Dissection options shared by every tier (must not vary per request:
  /// labels are memoized).
  label::DissectOptions dissect;
};

class DisclosureEngine {
 public:
  /// `db` may be null for decision-only use (Submit/SubmitBatch/Explain*);
  /// Query/QuerySql then return InvalidArgument. `catalog` must outlive
  /// the engine. `policy` is copied into the first snapshot (epoch 1).
  /// `warmup` queries are pre-labeled into the lock-free frozen tier.
  DisclosureEngine(const storage::Database* db,
                   const label::ViewCatalog* catalog,
                   policy::SecurityPolicy policy, EngineOptions options = {},
                   std::span<const cq::ConjunctiveQuery> warmup = {});

  /// The current policy snapshot as an owning handle (one shared-lock
  /// acquisition; hold the returned pointer for request scope and every
  /// read is consistent). This is the ownership-transferring API for
  /// control-plane callers (server hello/drain frames, tests); the request
  /// hot path uses the internal epoch-pinned raw-pointer load instead and
  /// never touches this lock.
  std::shared_ptr<const EngineSnapshot> Snapshot() const {
    std::shared_lock<locks::CountedSharedMutex> lock(snapshot_mu_);
    return snapshot_;
  }

  /// Compiles `policy` into a new snapshot and publishes it atomically.
  /// In-flight requests finish against the snapshot they already loaded
  /// (until the residual drop below refuses them into a retry);
  /// principals' cumulative state restarts at the new epoch. Publishing
  /// also drops every evicted-principal residual narrowed under an older
  /// epoch — consistency bits never transfer across policies, so an epoch
  /// swap is the residual store's natural TTL. Returns the new epoch id.
  /// Safe from any thread; publishers are serialized.
  uint64_t UpdatePolicy(policy::SecurityPolicy policy);

  /// Zero-parse policy rollout: validates the loaded artifact's frozen
  /// layout against this engine's catalog (artifact::ValidateAgainstCatalog
  /// — a blob compiled against a different catalog is rejected, never
  /// misinterpreted), reconstructs the compiled policy, and publishes it.
  /// Returns the new epoch id.
  Result<uint64_t> UpdatePolicy(const artifact::LoadedPolicyBlob& blob);

  /// Shadow-policy mode (staged-rollout divergence auditing): every
  /// subsequent Submit/SubmitBatch/SubmitCoalesced decision is *also*
  /// evaluated against `policy` over an independent per-principal state
  /// map, and the agreement is counted in Stats().shadow — evaluated,
  /// agree, shadow_stricter (live accepted, shadow would refuse),
  /// shadow_looser (live refused, shadow would accept). The returned
  /// decisions and all live monitor state are never affected
  /// (property-tested in tests/shadow_policy_test.cc). Replacing the
  /// shadow policy resets its per-principal state; the divergence
  /// counters are cumulative across shadow policies. Returns the shadow
  /// epoch id. Under concurrent same-principal traffic the live and
  /// shadow orderings can interleave differently, so divergence counts
  /// are exact per-decision comparisons but not a replayable transcript.
  uint64_t SetShadowPolicy(policy::SecurityPolicy policy,
                           std::string policy_name = std::string());

  /// Blob form: validates against this engine's catalog first, and uses
  /// the artifact's embedded policy name for Stats().shadow.policy_name.
  Result<uint64_t> SetShadowPolicy(const artifact::LoadedPolicyBlob& blob);

  /// Stops shadow evaluation and releases the shadow policy and its
  /// per-principal state. The cumulative divergence counters survive.
  void ClearShadowPolicy();

  bool ShadowEnabled() const {
    return shadow_enabled_.load(std::memory_order_acquire);
  }

  /// Advances the principal map's idle clock one tick and reclaims every
  /// slot idle for more than the configured TTL (narrowed slots leave a
  /// resumable residual behind). Returns the number of slots evicted.
  /// Cheap when nothing is idle; safe from any thread. Also runs
  /// automatically every principal_sweep_interval decisions when that
  /// option is set.
  size_t SweepPrincipals();

  /// Stateful decision only (no evaluation): answers iff the principal's
  /// cumulative disclosure stays below some partition of the current
  /// policy; on accept the principal's state narrows. If the principal's
  /// state advanced to a newer epoch while this request held an older
  /// snapshot (a lost race with UpdatePolicy), the request transparently
  /// reloads the current snapshot and retries — slots never regress.
  bool Submit(std::string_view principal, const cq::ConjunctiveQuery& query);

  /// Batched decisions for one principal against one snapshot: the whole
  /// batch is labeled first (sharing the batch's distinct structures), then
  /// decided in order under a single shard-lock acquisition.
  /// Decision-identical to calling Submit per query with no interleaved
  /// policy swap.
  std::vector<bool> SubmitBatch(std::string_view principal,
                                std::span<const cq::ConjunctiveQuery> queries);

  /// One request of a coalesced cross-principal batch (SubmitCoalesced).
  /// `principal` and `*query` must stay valid for the duration of the call;
  /// the serving front end points these at per-connection state.
  struct SubmitRequest {
    std::string_view principal;
    const cq::ConjunctiveQuery* query = nullptr;
  };

  /// Coalesced decisions across principals: everything a server drained
  /// from one event-loop wake goes through a single batched labeling pass
  /// (batch kernel + batch label dedup at the wire path's natural
  /// batch size), then one decision step per maximal run of consecutive
  /// requests from one principal, runs in arrival order. Decision-
  /// identical to calling Submit per request in order: principals' monitor
  /// states are independent, so only the per-principal order matters.
  /// `decisions` is resized to requests.size(); when `epochs` is non-null
  /// it receives the epoch each request's decision was made under (runs
  /// racing UpdatePolicy may land on different epochs, exactly like
  /// sequential Submit calls would).
  void SubmitCoalesced(std::span<const SubmitRequest> requests,
                       std::vector<bool>* decisions,
                       std::vector<uint64_t>* epochs = nullptr);

  /// Full guarded query: decide, then evaluate against the database.
  Result<std::vector<storage::Tuple>> Query(const std::string& principal,
                                            const cq::ConjunctiveQuery& query);
  Result<std::vector<storage::Tuple>> QuerySql(const std::string& principal,
                                               const std::string& sql);

  /// The label the monitor uses for `query` (thread-safe; warms caches).
  label::DisclosureLabel Explain(const cq::ConjunctiveQuery& query) {
    return labeler_.Label(query);
  }

  /// Per-partition diagnosis of the decision the monitor *would* make for
  /// `principal` right now, against one consistent snapshot; mutates no
  /// monitor state.
  policy::Explanation ExplainQuery(const std::string& principal,
                                   const cq::ConjunctiveQuery& query);

  /// Remaining consistent partitions under the current epoch (all
  /// partitions if the principal has not submitted since it began).
  uint64_t ConsistentPartitions(std::string_view principal) const;

  const FrozenCatalog& frozen() const { return *frozen_; }

  /// One aggregated view of every tier's counters (per-shard counters
  /// summed; see individual Stats types for the exact meaning of each).
  struct EngineStats {
    uint64_t epoch = 0;
    size_t num_principals = 0;
    /// Principal-lifecycle counters: evictions (capacity + TTL), residual
    /// store occupancy/bytes, resumed returning principals.
    PrincipalStateMap::Stats principal_map;
    size_t frozen_labels = 0;  // structures pre-labeled in the frozen tier
    uint64_t submitted = 0;
    uint64_t accepted = 0;
    uint64_t refused = 0;
    ConcurrentLabeler::Stats labeler;
    /// Folding's atom-drop hom searches served by a warm thread-local
    /// scratch arena. Process-wide (rewriting::FoldScratchReuses), not
    /// per-engine: it counts every consumer in the process.
    uint64_t fold_scratch_reuses = 0;
    /// Read-path reclamation: the shared epoch::Domain counters
    /// (process-wide — every EBR structure retires through the same
    /// domain).
    epoch::DomainStats ebr;
    /// Shadow-policy divergence audit (SetShadowPolicy). The counters are
    /// cumulative across shadow policies; epoch/policy_name describe the
    /// currently staged one (enabled=false leaves them zero/empty).
    struct ShadowStats {
      bool enabled = false;
      uint64_t epoch = 0;
      std::string policy_name;
      /// Always agree + shadow_stricter + shadow_looser, in any snapshot.
      uint64_t evaluated = 0;
      uint64_t agree = 0;
      /// Live accepted, shadow would have refused.
      uint64_t shadow_stricter = 0;
      /// Live refused, shadow would have accepted.
      uint64_t shadow_looser = 0;
    };
    ShadowStats shadow;
  };
  EngineStats Stats() const;

 private:
  // Request-scoped snapshot access: constructed once per request (or per
  // retry loop), then Load()/LoadShadow() as often as needed. It pins one
  // epoch::Guard for its lifetime and every load is a single seq_cst load
  // of the published raw pointer (common/epoch.h says why seq_cst) —
  // pointers stay valid until the guard drops because retired snapshots
  // pass through epoch::Domain. Holding the guard across a retry loop is
  // safe: a pinned epoch also protects pointers published *after* the pin
  // (they retire at an epoch the pin blocks from expiring).
  class SnapshotAccess {
   public:
    explicit SnapshotAccess(const DisclosureEngine* engine)
        : engine_(engine) {}
    const EngineSnapshot* Load() {
      return engine_->snapshot_ptr_.load(std::memory_order_seq_cst);
    }
    /// Current shadow snapshot, or nullptr when no shadow policy is staged.
    const EngineSnapshot* LoadShadow() {
      return engine_->shadow_ptr_.load(std::memory_order_seq_cst);
    }

   private:
    const DisclosureEngine* engine_;
    epoch::Guard guard_;
  };

  const storage::Database* db_;
  std::shared_ptr<const FrozenCatalog> frozen_;
  ConcurrentLabeler labeler_;
  PrincipalStateMap principals_;
  // Snapshot publication. The shared_ptr under the rwlock is the owning
  // store, which control-plane callers copy through Snapshot()
  // (deliberately not std::atomic<std::shared_ptr>, whose libstdc++
  // _Sp_atomic spin-bit protocol trips ThreadSanitizer). The raw pointer
  // below is the request read path: published with a seq_cst store inside
  // the writer section, loaded with one seq_cst load under an epoch::Guard,
  // and the displaced snapshot's ownership is parked in a heap holder
  // retired through epoch::Domain so its refcount cannot drop while any
  // reader is still pinned.
  mutable locks::CountedSharedMutex snapshot_mu_;
  std::shared_ptr<const EngineSnapshot> snapshot_;
  std::atomic<const EngineSnapshot*> snapshot_ptr_{nullptr};
  uint64_t next_epoch_ = 2;  // guarded by snapshot_mu_; epoch 1 = ctor
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> refused_{0};
  // Shadow-policy state. The snapshot and name share snapshot_mu_ (shadow
  // epochs come from the same counter, so live and shadow epochs are
  // totally ordered); the flag is the request fast path — when false the
  // only shadow cost per decision is one relaxed-ish atomic load.
  std::atomic<bool> shadow_enabled_{false};
  std::shared_ptr<const EngineSnapshot> shadow_snapshot_;  // snapshot_mu_
  // Request read path for the shadow snapshot, mirroring snapshot_ptr_
  // (nullptr = no shadow staged).
  std::atomic<const EngineSnapshot*> shadow_ptr_{nullptr};
  std::string shadow_name_;                                // snapshot_mu_
  // Shadow decisions narrow their *own* per-principal states; live
  // monitor state is never read or written by shadow evaluation — that
  // separation is what makes shadow mode decision-invisible.
  PrincipalStateMap shadow_principals_;
  // Every shadow-evaluated decision lands in exactly one of these three;
  // Stats() derives `evaluated` as their sum so no separate total can
  // drift out of step in a concurrent snapshot.
  std::atomic<uint64_t> shadow_agree_{0};
  std::atomic<uint64_t> shadow_stricter_{0};
  std::atomic<uint64_t> shadow_looser_{0};
  /// The one decision step behind Submit, SubmitBatch and
  /// SubmitCoalesced: under the snapshot `access` loads, runs
  /// ReferenceMonitor::Submit over `labels` in order inside the
  /// principal's state, writes decision i into decided[i] (the caller
  /// sizes the storage), reloads and retries when a policy swap made the
  /// snapshot stale, counts accepts and refusals, and replays the labels
  /// against the shadow policy. Returns the epoch the decisions were made
  /// under.
  uint64_t Decide(SnapshotAccess* access, std::string_view principal,
                  std::span<const label::DisclosureLabel* const> labels,
                  std::vector<bool>::iterator decided);
  /// Replays one principal's just-decided labels against the shadow
  /// policy and tallies agreement; live[i] is the live decision for
  /// labels[i].
  void ShadowEvaluate(SnapshotAccess* access, std::string_view principal,
                      std::span<const label::DisclosureLabel* const> labels,
                      std::vector<bool>::const_iterator live);
  /// Auto-sweep cadence: the thread whose decision count crosses a
  /// multiple of principal_sweep_interval runs one sweep.
  uint64_t sweep_interval_;
  std::atomic<uint64_t> decisions_since_sweep_{0};
  void MaybeAutoSweep(uint64_t decisions);
};

}  // namespace fdc::engine
