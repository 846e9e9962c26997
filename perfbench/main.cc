// perfbench_server: the end-to-end server benchmark.
//
//   perfbench_server --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--small] [--trace-dir <dir>] [--cache-dir <dir>]
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. --small runs the
// reduced-size shape of the workload (the benchmark's own test).
//
// Workloads (why each exists, what it exercises and what it bypasses; the
// per-layer -> end-to-end predictions are in README.md next to this file).
// BENCHMARK.json gates adhoc_text and churn_rollout; warm_templates runs by
// hand, its p99 being the host's more than the program's (README.md).
//
//   warm_templates  The sidecar steady state. 4 apps, each registering 1,024
//                   templates drawn from the 16,384-query frozen pool, 64
//                   submits in flight per connection; each app's first
//                   submit is its opener (see inputs.cc). Exercises the wire
//                   path, frozen-tier hits and the monitor at large coalesced
//                   batches; the few thousand hot templates over a 16k
//                   frozen table leave L1/L2. Bypasses parsing, the overlay,
//                   the matcher, the principal lifecycle and artifacts
//                   (rollouts are timed after the phase, on the quiescent
//                   engine).
//   adhoc_text      Apps send Datalog text (kSubmitText), drawn Zipf(s=1)
//                   from a universe of 30k distinct structures outside the
//                   warm pool; 4 connections x 16 in flight. An untimed
//                   warm-up sends each connection's opener, then every
//                   universe structure once; after it the connections send
//                   500 fresh queries a second from the paper's generator,
//                   so about 1% of timed requests are novel.
//                   Exercises cq parsing, overlay-chunk hits, novel labeling
//                   (dissect, compiled matcher, interning, chunk publish) and
//                   overlay memory. Bypasses frozen hits, principals and
//                   artifacts.
//   churn_rollout   App sessions and a policy rollout. A bounded principal
//                   map (capacity 256, TTL, sweeps) under a 5x population
//                   with Zipf(0.7) popularity (an exponent chosen for run
//                   stability, not from a dataset); up to 4 sessions at once,
//                   each pipelining hello, 8 registrations (half warm-pool,
//                   half structurally outside it) and 64 submits in one
//                   write, then closing. An app's first session after a
//                   rollout opens with its opener; later ones draw freely,
//                   so residual resume shows in the decisions.
//                   Every 32,768 decisions the load thread rolls out the next
//                   precompiled blob; a shadow blob is staged for the middle
//                   third. Exercises accept/hello/close, canonicalization at
//                   registration, capacity and TTL eviction, residual resume
//                   and drop, snapshot publish, EBR retire, shadow evaluation,
//                   blob load and validation. Bypasses text parsing.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/stat.h>

#include "bench.h"

namespace fdc::perfbench {
namespace {

struct Args {
  Workload workload = Workload::kWarmTemplates;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  std::string trace_dir = ".";
  std::string cache_dir;  // empty: no cache
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_server: %s\nusage: perfbench_server --workload "
               "warm_templates|adhoc_text|churn_rollout --seed N --seconds S "
               "--trace 0|1 [--small] [--trace-dir DIR] [--cache-dir DIR]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      a.small = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing flag value");
    const char* v = argv[++i];
    if (flag == "--workload") {
      if (!ParseWorkload(v, &a.workload)) Usage("unknown workload");
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v);
      if (!(a.seconds > 0 && a.seconds <= 120)) Usage("bad --seconds");
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--trace-dir") {
      a.trace_dir = v;
    } else if (flag == "--cache-dir") {
      a.cache_dir = v;
    } else {
      Usage("unknown flag");
    }
  }
  if (!have_workload) Usage("--workload is required");
  return a;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void ReportPhases(const char* label, const RunResult& r) {
  std::printf(
      "%s: warm-up attempted %llu failed %llu; timed attempted %llu failed "
      "%llu (seed-path mismatches: %llu decisions, %llu of %zu final "
      "principal states; check %.2f s)\n",
      label, static_cast<unsigned long long>(r.warmup_attempted),
      static_cast<unsigned long long>(r.warmup_failed),
      static_cast<unsigned long long>(r.timed_attempted),
      static_cast<unsigned long long>(r.timed_failed),
      static_cast<unsigned long long>(r.mismatches),
      static_cast<unsigned long long>(r.state_mismatches),
      r.final_states.size(), r.check_s);
}

std::vector<Metric> EndToEnd(const RunResult& r) {
  return {
      {"decisions_per_s", "1/s", r.decisions_per_s},
      {"latency_p50_us", "us", r.latency.Quantile(0.50) / 1e3},
      {"latency_p99_us", "us", r.latency.Quantile(0.99) / 1e3},
      {"setup_s", "s", Median(r.setup_s)},
      {"peak_rss_mb", "MiB", r.peak_rss_mb},
      {"policy_swap_us", "us", Median(r.swap_us)},
  };
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Scale scale = args.small ? Scale::Small() : Scale::Full();
  const char* name = WorkloadName(args.workload);

  const double calib_us = CalibrateMachine();
  const uint64_t g0 = NowNs();
  std::unique_ptr<Inputs> in =
      MakeInputs(args.workload, args.seed, scale, args.seconds, args.cache_dir);
  std::printf("workload %s seed %llu: inputs %.3f s, machine.calib_us %.1f, "
              "admitted picks %.3f, universe %zu\n",
              name, static_cast<unsigned long long>(args.seed),
              static_cast<double>(NowNs() - g0) / 1e9, calib_us,
              in->admitted_pick_share, in->universe.size());
  const Env env;

  if (!args.trace) {
    RunOptions opts;
    opts.seconds = args.seconds;
    opts.setup_reps = scale.setup_reps;
    const RunResult r = ServeAndCheck(env, *in, opts);
    ReportPhases(name, r);
    const std::vector<Metric> metrics = EndToEnd(r);
    const double samples[] = {
        static_cast<double>(r.timed_decisions),
        static_cast<double>(r.latency.count()),
        static_cast<double>(r.latency.count()),
        static_cast<double>(r.setup_s.size()),
        1,
        static_cast<double>(r.swap_us.size())};
    for (size_t i = 0; i < metrics.size(); ++i) {
      std::printf("  %-18s %14.4f %-4s (samples %.0f)\n",
                  metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str(), samples[i]);
    }
    const double wall = static_cast<double>(r.after.wall_ns);
    std::printf("  p99.9 %.2f us; fifths of the phase (p99 us @ decisions/s):",
                r.latency.Quantile(0.999) / 1e3);
    for (size_t i = 0; i < r.slice_p99_us.size(); ++i) {
      std::printf(" %.1f @ %.0f", r.slice_p99_us[i], r.slice_rate[i]);
    }
    std::printf("\n");
    const double novel = static_cast<double>(
        r.after.engine.labeler.overlay_misses -
        r.before.engine.labeler.overlay_misses);
    std::printf(
        "  batch_mean %.1f server.busy %.3f client.busy %.3f accept %.3f "
        "novel %.4f\n",
        static_cast<double>(r.after.server.decisions -
                            r.before.server.decisions) /
            static_cast<double>(r.after.server.coalesced_batches -
                                r.before.server.coalesced_batches),
        static_cast<double>(r.after.worker_cpu_ns - r.before.worker_cpu_ns) /
            wall,
        static_cast<double>(r.after.client_cpu_ns - r.before.client_cpu_ns) /
            wall,
        static_cast<double>(r.accepted) /
            static_cast<double>(r.timed_decisions),
        novel / static_cast<double>(r.timed_decisions));
    const uint64_t attempted = r.warmup_attempted + r.timed_attempted;
    const uint64_t failed = r.warmup_failed + r.timed_failed;
    PrintResult(failed == 0 && attempted > 0, attempted, failed, metrics);
    return 0;
  }

  // Traced run: the untraced serve gives the reference wall time per
  // decision, the traced serve records spans, then the layer replays. Each
  // serve times half of --seconds.
  RunOptions plain;
  plain.seconds = args.seconds / 2;
  const RunResult untraced = ServeAndCheck(env, *in, plain);
  ReportPhases("untraced", untraced);
  SpanLog spans(1 << 19);
  RunOptions traced_opts = plain;
  traced_opts.spans = &spans;
  const RunResult traced = ServeAndCheck(env, *in, traced_opts);
  ReportPhases("traced", traced);
  const std::vector<Metric> metrics =
      TraceLayers(env, *in, untraced, traced, &spans, calib_us);
  mkdir(args.trace_dir.c_str(), 0755);
  const std::string path = args.trace_dir + "/" + name + "-seed" +
                           std::to_string(args.seed) + ".jsonl";
  if (!spans.WriteJsonl(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return 3;
  }
  std::printf("spans: %zu written to %s (%llu dropped)\n", spans.size(),
              path.c_str(), static_cast<unsigned long long>(spans.dropped()));
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const uint64_t attempted = untraced.warmup_attempted +
                             untraced.timed_attempted +
                             traced.warmup_attempted + traced.timed_attempted;
  const uint64_t failed = untraced.warmup_failed + untraced.timed_failed +
                          traced.warmup_failed + traced.timed_failed;
  PrintResult(failed == 0 && attempted > 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace fdc::perfbench

int main(int argc, char** argv) { return fdc::perfbench::Main(argc, argv); }
