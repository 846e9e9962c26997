// End-to-end server benchmark: shared types.
//
// One process starts an in-process server::DisclosureServer (1 worker) over
// a DisclosureEngine warmed like a deployed sidecar, and one load thread
// drives a seeded socket workload against it over at most 4 connections.
// Every served decision is checked against the seed path
// (label::LabelingPipeline + policy::ReferenceMonitor). A traced run
// (--trace 1) additionally replays the served request sequence through each
// layer's public entry points on twin engines and prints per-layer metrics.
// Everything is measured from outside src/: public functions, Stats()
// counters and /proc.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "cq/query.h"
#include "cq/schema.h"
#include "engine/disclosure_engine.h"
#include "label/view_catalog.h"
#include "policy/policy.h"
#include "server/disclosure_server.h"

namespace fdc::perfbench {

enum class Workload { kWarmTemplates, kAdhocText, kChurnRollout };

/// adhoc_text: fresh queries its connections send a second, together; ~1%
/// of the 45-65k requests a second measured on a 4-vCPU VM.
inline constexpr double kFreshPerSecond = 500;

const char* WorkloadName(Workload w);
bool ParseWorkload(std::string_view name, Workload* out);

/// Sizes of one workload. Full() is the measured shape; Small() is the
/// reduced-size mode the benchmark's own test runs (same code paths, same
/// checks, a fraction of the work).
struct Scale {
  int warm_pool = 16384;        // frozen-tier templates, 2-subquery §7.2
  int conns = 4;                // connections (apps) driven at once
  int templates_per_conn = 1024;  // warm_templates registrations per app
  int window = 64;              // submits in flight per connection
  int universe = 30000;         // adhoc_text Zipf universe
  int capacity = 256;           // churn_rollout principal-map capacity
  int population_factor = 5;    // churn_rollout apps = factor * capacity
  int session_templates = 8;    // churn_rollout registrations per session
  int session_submits = 64;     // churn_rollout submit burst per session
  uint64_t swap_every = 32768;  // churn_rollout decisions between rollouts
  int rollout_blobs = 4;        // precompiled rollout variants
  int setup_reps = 3;           // setups per run; setup_s is their median
  double settle_seconds = 2;    // untimed traffic before the timed phase
  int quiet_rollouts = 100;     // post-phase rollouts (non-churn workloads),
                                // one every 5 ms
  size_t replay_cap = 200000;   // traced run: requests replayed per layer
  size_t explain_cap = 60000;   // traced run: Explain calls classified

  static Scale Full() { return Scale{}; }
  static Scale Small();
};

/// Compact, contiguous Datalog texts (inputs are kept as frames, not as
/// generator objects, so the generator does not set the process peak).
class TextPool {
 public:
  void Add(std::string_view text);
  std::string_view Get(size_t i) const {
    return std::string_view(bytes_).substr(offsets_[i],
                                           offsets_[i + 1] - offsets_[i]);
  }
  size_t size() const { return offsets_.size() - 1; }

 private:
  std::string bytes_;
  std::vector<uint32_t> offsets_{0};
};

/// A template an app registers: which pool it comes from and where.
struct TemplateRef {
  uint8_t pool = 0;  // 0 = warm pool, 1 = cold pool
  uint32_t index = 0;
};

/// Zipf(s) sampler over ranks [0, n) by inverse-CDF binary search.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Everything a run sends, generated from --seed before setup starts.
struct Inputs {
  Workload workload = Workload::kWarmTemplates;
  uint64_t seed = 0;
  Scale scale;

  TextPool warm_pool;  // pre-labeled into the frozen tier
  TextPool cold_pool;  // churn templates outside the warm pool
  /// adhoc_text: the Zipf universe (disjoint seed from the warm pool), then
  /// from fresh_begin on the fresh queries; fresh query fresh_begin + k
  /// belongs to connection k % conns, which sends them in order.
  TextPool universe;
  size_t fresh_begin = 0;

  /// policies[0] is the served base policy, [1..rollout_blobs] the rollout
  /// variants (each a superset of the base), back() the shadow policy.
  std::vector<policy::SecurityPolicy> policies;
  std::vector<std::vector<uint8_t>> blobs;  // CompilePolicyBlob of each
  int shadow_index() const { return static_cast<int>(blobs.size()) - 1; }

  /// warm_templates: per connection, its registered warm-pool indices;
  /// template 0 is the app's opener (admitted by its home partition alone).
  std::vector<std::vector<uint32_t>> conn_templates;
  /// adhoc_text: Zipf rank -> universe index (a permutation drawn from the
  /// deployment seed).
  std::vector<uint32_t> rank_to_item;
  /// adhoc_text: universe indices the untimed warm-up sends, per
  /// connection, in order: an opener of the connection's own, then its
  /// round-robin share of the whole Zipf universe.
  std::vector<std::vector<uint32_t>> warmup_items;
  /// churn_rollout: per app, the templates every session of it registers;
  /// template 0 is the app's opener.
  std::vector<std::vector<TemplateRef>> app_templates;
  /// churn_rollout: per session slot, Zipf rank -> app (slots serve
  /// disjoint apps, so one principal never has two sessions at once).
  std::vector<std::vector<uint32_t>> slot_apps;
  /// Popularity: over the universe (adhoc_text) or a slot's apps (churn).
  std::unique_ptr<Zipf> zipf;

  /// Share of the template/universe picks the base policy admits for the
  /// picking app (the accept-heavy construction), for the report.
  double admitted_pick_share = 0;

  std::string_view TemplateText(const TemplateRef& t) const {
    return t.pool == 0 ? warm_pool.Get(t.index) : cold_pool.Get(t.index);
  }
};

/// Builds the inputs for `workload` from `seed`, for a timed phase of
/// `seconds` (which, with the settle, sizes the adhoc_text fresh queries).
/// A non-empty `cache_dir` holds the adhoc_text universe between runs.
std::unique_ptr<Inputs> MakeInputs(Workload workload, uint64_t seed,
                                   const Scale& scale, double seconds,
                                   const std::string& cache_dir);

/// The §7.2 Facebook schema and view catalog. The catalog must outlive every
/// engine built over it.
struct Env {
  cq::Schema schema;
  std::unique_ptr<label::ViewCatalog> catalog;
  Env();
};

/// Principal name of app `k`.
std::string AppName(uint64_t seed, size_t k);

/// Engine options of a workload (churn_rollout bounds the principal map).
engine::EngineOptions EngineOptionsFor(const Inputs& in);

/// Builds an engine exactly like the served one: warm pool parsed from its
/// frames into the frozen tier, policy loaded from the base blob.
std::unique_ptr<engine::DisclosureEngine> BuildEngine(const Env& env,
                                                      const Inputs& in);

// --------------------------------------------------------------------------
// Measurement helpers.

uint64_t NowNs();  // CLOCK_MONOTONIC

/// Fixed-size log-bucketed histogram (128 sub-buckets per power of two,
/// <1% relative error; quantiles interpolate inside a bucket).
class Histogram {
 public:
  void Add(uint64_t v);
  double Quantile(double q) const;
  uint64_t count() const { return count_; }
  void Clear();

 private:
  static constexpr int kSub = 128;
  static constexpr int kBuckets = 64 * kSub;
  static size_t Index(uint64_t v);
  static uint64_t Lower(size_t i);
  std::vector<uint64_t> counts_ = std::vector<uint64_t>(kBuckets, 0);
  uint64_t count_ = 0;
};

double Median(std::vector<double> v);

/// One trace span: name, start, end, parent span and request id. Kept in
/// memory, written once at exit.
struct Span {
  uint32_t name = 0;
  uint32_t parent = 0;  // index + 1 into the span log; 0 = root
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(size_t capacity = 0) : capacity_(capacity) {}
  bool enabled() const { return capacity_ > 0; }
  /// Returns the span's id (index + 1), or 0 when full/disabled.
  uint32_t Add(std::string_view name, uint64_t start_ns, uint64_t end_ns,
               uint32_t parent = 0, uint64_t request = 0);
  uint32_t Open(std::string_view name, uint32_t parent = 0,
                uint64_t request = 0);
  void Close(uint32_t id);
  uint64_t dropped() const { return dropped_; }
  size_t size() const { return spans_.size(); }
  bool WriteJsonl(const std::string& path) const;

 private:
  uint32_t NameId(std::string_view name);
  size_t capacity_;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
};

/// /proc readings.
double ReadStatusKib(const char* field);  // "VmHWM:", "VmRSS:"
std::vector<int> ListThreadIds();
uint64_t ThreadCpuNs(int tid);  // schedstat on-CPU time
uint64_t SelfThreadCpuNs();     // CLOCK_THREAD_CPUTIME_ID

// --------------------------------------------------------------------------
// Served runs.

/// Per-connection record of what came back, in arrival order: enough to
/// re-derive every request (the request streams are deterministic) and to
/// check every decision.
struct ConnRecord {
  std::string principal;
  std::vector<uint64_t> allow_bits;                    // one bit per decision
  std::vector<std::pair<uint64_t, uint64_t>> epochs;   // (first index, epoch)
  std::vector<uint64_t> fresh_at;  // adhoc: request indices sent fresh
  uint64_t decisions = 0;
  uint64_t sent = 0;
  void Record(bool allow, uint64_t epoch);
  bool Allow(uint64_t i) const { return (allow_bits[i >> 6] >> (i & 63)) & 1; }
};

/// churn_rollout: one session = one app connection's lifetime.
struct SessionRecord {
  uint32_t app = 0;
  uint32_t slot = 0;
  uint64_t seq = 0;  // session number within its slot (selects its submits)
  /// The app's first session since the latest rollout: its first submit is
  /// its opener, template 0. Later sessions in the same epoch draw freely,
  /// so their walled submits are refused only if the engine kept (or
  /// resumed from a residual) the app's narrowing.
  bool opens = false;
};

/// Counters read from the server and engine around a timed phase.
struct Counters {
  server::DisclosureServer::Stats server;
  engine::DisclosureEngine::EngineStats engine;
  uint64_t worker_cpu_ns = 0;
  uint64_t client_cpu_ns = 0;
  uint64_t wall_ns = 0;
};

/// Everything one served run (setup + traffic + check) produced.
struct RunResult {
  // End-to-end: the whole timed phase's rate and latency percentiles. The
  // report also prints each fifth of the phase's rate and p99 as a
  // diagnostic: a figure that drifts within a run shows there.
  static constexpr int kSlices = 5;
  double decisions_per_s = 0;  // all timed decisions / timed wall
  uint64_t timed_decisions = 0;
  Histogram latency;  // ns, timed phase
  std::vector<double> slice_rate, slice_p99_us;
  std::vector<double> setup_s;
  double peak_rss_mb = 0;
  std::vector<double> swap_us;  // rollout times (in-run or post-phase)

  // Correctness (attempted / failed per phase).
  uint64_t warmup_attempted = 0, warmup_failed = 0;
  uint64_t timed_attempted = 0, timed_failed = 0;
  uint64_t mismatches = 0;        // decisions the seed path disagrees with
  uint64_t state_mismatches = 0;  // principals whose final state differs
  double check_s = 0;     // time the decision check took
  uint64_t accepted = 0;  // served accepts in the timed phase

  // Per-layer raw material.
  Counters before, after;        // around the timed phase
  Counters warm_before;          // before the warm-up (adhoc)
  double rss_before_warmup_kib = 0, rss_after_timed_kib = 0;
  double session_start_p50_us = 0;
  uint64_t ebr_pending_max = 0;
  std::vector<double> load_us, validate_us, convert_us, publish_us;

  // Replay material: what was served, in order.
  std::vector<ConnRecord> conns;           // warm/adhoc: per connection
  std::deque<ConnRecord> sessions;         // churn: per session
  std::vector<SessionRecord> session_ids;  // churn: per session
  std::map<uint64_t, int> epoch_policy;    // epoch -> policy index
  // Every principal's ConsistentPartitions after the drain, at final_epoch.
  std::vector<std::pair<std::string, uint64_t>> final_states;
  uint64_t final_epoch = 0;
};

struct RunOptions {
  double seconds = 10;
  SpanLog* spans = nullptr;  // record spans when set
  int setup_reps = 1;
};

/// Sets up (setup_reps times), drives the workload, drains, stops the
/// server and checks every decision against the seed path.
RunResult ServeAndCheck(const Env& env, const Inputs& in,
                        const RunOptions& opts);

/// Replays the served decisions through LabelingPipeline + ReferenceMonitor
/// and counts each mismatch as a failed operation of its phase.
void CheckDecisions(const Env& env, const Inputs& in, RunResult* run);

/// Deterministic request streams, shared by the load thread, the decision
/// check and the traced replays.
class RequestStream {
 public:
  /// `fresh_at` (adhoc) lists, ascending, the connection's request indices
  /// that carry its next fresh query; the load thread appends to it while
  /// it sends, by time (see LoadThread::Refill).
  RequestStream(const Inputs& in, size_t conn,
                const std::vector<uint64_t>* fresh_at = nullptr);
  /// Item for the connection's next request: a template id (warm) or a
  /// universe index (adhoc: the warm-up, then Zipf draws, or a fresh query
  /// where fresh_at says).
  uint32_t Next();

 private:
  const Inputs* in_;
  size_t conn_;
  const std::vector<uint64_t>* fresh_at_;
  size_t pos_ = 0;    // requests drawn so far
  size_t fresh_ = 0;  // fresh queries drawn so far
  Rng rng_;
};

/// churn_rollout: session `seq` of `slot` — its app and submit picks.
uint32_t SessionApp(const Inputs& in, uint32_t slot, uint64_t seq);
void SessionSubmits(const Inputs& in, const SessionRecord& session,
                    std::vector<uint32_t>* template_ids);

/// One reported metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Per-layer metrics of a traced run, in BENCHMARK.json order.
std::vector<Metric> TraceLayers(const Env& env, const Inputs& in,
                                const RunResult& untraced,
                                const RunResult& traced, SpanLog* spans,
                                double calib_us);

/// The machine-speed sentinel: a fixed compute-and-memory loop, in µs.
double CalibrateMachine();

}  // namespace fdc::perfbench
