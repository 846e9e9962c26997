// End-to-end hot path: label a query stream and run every label through the
// reference monitor — the inline per-app-request enforcement loop the
// paper's practicality claim rests on.
//
// Two modes over the same repeated-structure workload (a pregenerated §7.2
// query pool, cycled, as an app re-issuing its templates):
//   * per_query_baseline — the seed path: every query is dissected, folded,
//     and scanned against the view catalog from scratch, then submitted to
//     the monitor one at a time (LabelingPipeline ablate_interning mode).
//   * batched — the intern → index → memoize → batch path: queries are
//     hash-consed, whole-query labels memoized, batches bucketed by
//     interned id, and monitor submits deduplicated (LabelBatch +
//     SubmitBatch).
// The two memoizing series label the whole pool once before timing starts,
// so the timed loop measures the warm steady state whatever iteration count
// google-benchmark picks; the per-query baseline has no memo to warm.
// The acceptance target for this layer is ≥ 5× on the batched series;
// bench/run_benchmarks.sh computes the ratio into BENCH_hotpath.json.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "policy/reference_monitor.h"
#include "workload/policy_generator.h"

namespace fdc::bench {
namespace {

constexpr int kPoolSize = 2048;
constexpr int kBatchSize = 256;

const std::vector<cq::ConjunctiveQuery>& PoolFor(int subqueries) {
  static std::vector<cq::ConjunctiveQuery> pools[6];
  auto& pool = pools[subqueries];
  if (pool.empty()) {
    pool = MakeQueryPool(subqueries, kPoolSize, 0xba7c'5eedULL + subqueries);
  }
  return pool;
}

const policy::SecurityPolicy& Policy() {
  static const policy::SecurityPolicy policy = [] {
    workload::PolicyOptions options;
    options.max_partitions = 5;
    options.max_elements_per_partition = 15;
    workload::PolicyGenerator generator(FacebookEnv::Get().catalog.get(),
                                        options, 0x5107'e001);
    return generator.Next();
  }();
  return policy;
}

void ReportRate(benchmark::State& state, int queries_per_iteration) {
  state.SetItemsProcessed(state.iterations() * queries_per_iteration);
  state.counters["queries_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * queries_per_iteration,
      benchmark::Counter::kIsRate);
}

void BM_PerQueryBaseline(benchmark::State& state) {
  const int subqueries = static_cast<int>(state.range(0)) / 3;
  const auto& pool = PoolFor(subqueries);
  label::LabelingPipeline::Options options;
  options.ablate_interning = true;
  label::LabelingPipeline pipeline(FacebookEnv::Get().catalog.get(), {},
                                   options);
  policy::ReferenceMonitor monitor(&Policy());
  policy::PrincipalState principal = monitor.InitialState();
  size_t i = 0;
  for (auto _ : state) {
    // One batch per iteration, submitted query-by-query (the seed shape).
    if (i + kBatchSize > pool.size()) i = 0;
    principal = monitor.InitialState();
    for (int j = 0; j < kBatchSize; ++j) {
      benchmark::DoNotOptimize(
          monitor.Submit(&principal, pipeline.Label(pool[i + j])));
    }
    i += kBatchSize;
  }
  ReportRate(state, kBatchSize);
}

void BM_Batched(benchmark::State& state) {
  const int subqueries = static_cast<int>(state.range(0)) / 3;
  const auto& pool = PoolFor(subqueries);
  label::LabelingPipeline pipeline(FacebookEnv::Get().catalog.get());
  (void)pipeline.LabelBatch(pool);  // warm the memo outside the timed loop
  policy::ReferenceMonitor monitor(&Policy());
  policy::PrincipalState principal = monitor.InitialState();
  size_t i = 0;
  for (auto _ : state) {
    if (i + kBatchSize > pool.size()) i = 0;
    principal = monitor.InitialState();
    std::span<const cq::ConjunctiveQuery> batch(pool.data() + i, kBatchSize);
    benchmark::DoNotOptimize(
        monitor.SubmitBatch(&principal, pipeline.LabelBatch(batch)));
    i += kBatchSize;
  }
  ReportRate(state, kBatchSize);
}

// Ablation between the two: interning + memoized labels, but per-query
// monitor submits — isolates how much of the win each layer contributes.
void BM_InternedPerQuerySubmit(benchmark::State& state) {
  const int subqueries = static_cast<int>(state.range(0)) / 3;
  const auto& pool = PoolFor(subqueries);
  label::LabelingPipeline pipeline(FacebookEnv::Get().catalog.get());
  (void)pipeline.LabelBatch(pool);  // warm the memo outside the timed loop
  policy::ReferenceMonitor monitor(&Policy());
  policy::PrincipalState principal = monitor.InitialState();
  size_t i = 0;
  for (auto _ : state) {
    if (i + kBatchSize > pool.size()) i = 0;
    principal = monitor.InitialState();
    for (int j = 0; j < kBatchSize; ++j) {
      benchmark::DoNotOptimize(
          monitor.Submit(&principal, pipeline.Label(pool[i + j])));
    }
    i += kBatchSize;
  }
  ReportRate(state, kBatchSize);
}

void MaxAtomsAxis(benchmark::internal::Benchmark* bench) {
  for (int max_atoms : {3, 6, 9, 12, 15}) bench->Arg(max_atoms);
}

BENCHMARK(BM_PerQueryBaseline)->Apply(MaxAtomsAxis)
    ->Name("BatchMonitor/per_query_baseline/max_atoms");
BENCHMARK(BM_InternedPerQuerySubmit)->Apply(MaxAtomsAxis)
    ->Name("BatchMonitor/interned_per_query/max_atoms");
BENCHMARK(BM_Batched)->Apply(MaxAtomsAxis)
    ->Name("BatchMonitor/batched/max_atoms");

}  // namespace
}  // namespace fdc::bench

BENCHMARK_MAIN();
