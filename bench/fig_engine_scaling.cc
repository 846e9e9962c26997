// Engine scaling sweep: aggregate enforcement throughput of one shared
// DisclosureEngine as serving threads grow 1 → N on the distinct-principal
// workload (each thread drives its own principals, so per-principal shard
// locks never contend across threads; labeling contends only on the shared
// frozen/overlay tiers, which are read-mostly after warmup).
//
// Series (real-time rates, counters summed across threads):
//   * EngineScaling/submit_batch/threads/N — SubmitBatch of 256-query
//     batches, the production serving shape;
//   * EngineScaling/submit/threads/N — per-query Submit, the worst case
//     for lock overhead (one shard acquisition per query);
//   * EngineReclaim/ebr/threads/N — per-query Submit served from the
//     dynamic overlay instead of the frozen tier (overlay-warm throughput).
// bench/run_benchmarks.sh folds these into BENCH_hotpath.json and computes
// engine_scaling_efficiency = rate(N) / (N × rate(1)) per series. Note the
// efficiency ceiling is min(cores, N) / N — on a single-core container the
// sweep degenerates to ≈ 1/N and only measures synchronization overhead.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench_util.h"
#include "engine/disclosure_engine.h"
#include "workload/policy_generator.h"

namespace fdc::bench {
namespace {

constexpr int kPoolSize = 2048;
constexpr int kBatchSize = 256;
constexpr int kSubqueries = 2;  // 6-atom bucket: mid-size workload queries
constexpr int kPrincipalsPerThread = 16;

const std::vector<cq::ConjunctiveQuery>& Pool() {
  static const std::vector<cq::ConjunctiveQuery> pool =
      MakeQueryPool(kSubqueries, kPoolSize, 0xe4'611eULL);
  return pool;
}

const policy::SecurityPolicy& Policy() {
  static const policy::SecurityPolicy policy = [] {
    workload::PolicyOptions options;
    options.max_partitions = 5;
    options.max_elements_per_partition = 15;
    workload::PolicyGenerator generator(FacebookEnv::Get().catalog.get(),
                                        options, 0x5107'e002);
    return generator.Next();
  }();
  return policy;
}

// One engine shared by every thread of a benchmark run, pre-warmed so the
// sweep measures steady-state serving, not first-touch labeling.
engine::DisclosureEngine& SharedEngine() {
  static engine::DisclosureEngine* engine = [] {
    const auto& pool = Pool();
    auto* e = new engine::DisclosureEngine(
        /*db=*/nullptr, FacebookEnv::Get().catalog.get(), Policy(), {},
        std::span(pool.data(), pool.size()));
    return e;
  }();
  return *engine;
}

void ReportRate(benchmark::State& state, int queries_per_iteration) {
  state.SetItemsProcessed(state.iterations() * queries_per_iteration);
  state.counters["queries_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * queries_per_iteration,
      benchmark::Counter::kIsRate);
}

void BM_EngineSubmitBatch(benchmark::State& state) {
  engine::DisclosureEngine& engine = SharedEngine();
  const auto& pool = Pool();
  const int thread = state.thread_index();
  size_t i = static_cast<size_t>(thread) * 37 % kPoolSize;
  int principal_serial = 0;
  for (auto _ : state) {
    if (i + kBatchSize > pool.size()) i = 0;
    // Distinct principals per thread, rotated so monitor state keeps
    // narrowing without growing the shard map unboundedly.
    const std::string principal =
        "t" + std::to_string(thread) + "-p" +
        std::to_string(principal_serial++ % kPrincipalsPerThread);
    std::span<const cq::ConjunctiveQuery> batch(pool.data() + i, kBatchSize);
    benchmark::DoNotOptimize(engine.SubmitBatch(principal, batch));
    i += kBatchSize;
  }
  ReportRate(state, kBatchSize);
}

void BM_EngineSubmit(benchmark::State& state) {
  engine::DisclosureEngine& engine = SharedEngine();
  const auto& pool = Pool();
  const int thread = state.thread_index();
  size_t i = static_cast<size_t>(thread) * 37 % kPoolSize;
  int principal_serial = 0;
  for (auto _ : state) {
    if (i + kBatchSize > pool.size()) i = 0;
    const std::string principal =
        "t" + std::to_string(thread) + "-p" +
        std::to_string(principal_serial++ % kPrincipalsPerThread);
    for (int j = 0; j < kBatchSize; ++j) {
      benchmark::DoNotOptimize(engine.Submit(principal, pool[i + j]));
    }
    i += kBatchSize;
  }
  ReportRate(state, kBatchSize);
}

BENCHMARK(BM_EngineSubmitBatch)
    ->ThreadRange(1, 8)
    ->UseRealTime()
    ->Name("EngineScaling/submit_batch/threads");
BENCHMARK(BM_EngineSubmit)
    ->ThreadRange(1, 8)
    ->UseRealTime()
    ->Name("EngineScaling/submit/threads");

// Overlay-warm throughput on the per-query Submit shape. Unlike the
// scaling series above, this engine takes NO frozen warmup — every label
// goes through the insert-only overlay, so the measured tier is the
// epoch-pinned snapshot load plus the lock-free overlay probe. A manual
// Explain warm pass stores every structure, which makes the steady state
// all warm hits. The epoch_retires counter is lifted into
// BENCH_hotpath.json by run_benchmarks.sh.
engine::DisclosureEngine& OverlayWarmEngine() {
  static engine::DisclosureEngine* e = [] {
    auto* engine = new engine::DisclosureEngine(
        /*db=*/nullptr, FacebookEnv::Get().catalog.get(), Policy());
    for (const auto& query : Pool()) (void)engine->Explain(query);
    return engine;
  }();
  return *e;
}

void BM_EngineOverlayWarm(benchmark::State& state) {
  engine::DisclosureEngine& engine = OverlayWarmEngine();
  const auto& pool = Pool();
  const int thread = state.thread_index();
  size_t i = static_cast<size_t>(thread) * 37 % kPoolSize;
  int principal_serial = 0;
  for (auto _ : state) {
    if (i + kBatchSize > pool.size()) i = 0;
    const std::string principal =
        "t" + std::to_string(thread) + "-p" +
        std::to_string(principal_serial++ % kPrincipalsPerThread);
    for (int j = 0; j < kBatchSize; ++j) {
      benchmark::DoNotOptimize(engine.Submit(principal, pool[i + j]));
    }
    i += kBatchSize;
  }
  ReportRate(state, kBatchSize);
  if (thread == 0) {
    state.counters["epoch_retires"] =
        static_cast<double>(engine.Stats().ebr.retired);
  }
}

BENCHMARK(BM_EngineOverlayWarm)
    ->ThreadRange(1, 8)
    ->UseRealTime()
    ->Name("EngineReclaim/ebr/threads");

}  // namespace
}  // namespace fdc::bench

BENCHMARK_MAIN();
