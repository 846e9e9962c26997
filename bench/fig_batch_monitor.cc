// End-to-end hot path: label a query stream and run every label through the
// reference monitor — the inline per-app-request enforcement loop the
// paper's practicality claim rests on.
//
// Three series over the same repeated-structure workload (a pregenerated §7.2
// query pool, cycled, as an app re-issuing its templates):
//   * per_query_baseline — the seed path: every query is dissected, folded,
//     and tested against its relation's views from scratch
//     (LabelingPipeline::LabelPacked), then submitted to the monitor one at
//     a time.
//   * labeler_per_query — the label memo that serves requests
//     (engine::ConcurrentLabeler over a views-only FrozenCatalog): Label and
//     Submit per query.
//   * batched — the same memo, batch-labeled: LabelInto over the batch's
//     query pointers into a reused buffer, then SubmitBatch.
// The two memo series label the whole pool once before timing starts, so
// the timed loop measures the warm steady state whatever iteration count
// google-benchmark picks; the per-query baseline has no memo to warm.
// The acceptance target for this layer is ≥ 5× on the batched series;
// bench/run_benchmarks.sh computes the ratio into BENCH_hotpath.json.
#include <benchmark/benchmark.h>

#include <memory>
#include <span>
#include <vector>

#include "bench_util.h"
#include "engine/labeler.h"
#include "engine/snapshot.h"
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

// The serving label memo over the catalog's views, warmed with one
// LabelInto over the whole pool; `ptrs` receives the pool's query pointers.
std::unique_ptr<engine::ConcurrentLabeler> WarmLabeler(
    const std::vector<cq::ConjunctiveQuery>& pool,
    std::vector<const cq::ConjunctiveQuery*>* ptrs) {
  auto labeler = std::make_unique<engine::ConcurrentLabeler>(
      engine::FrozenCatalog::Build(FacebookEnv::Get().catalog.get()));
  ptrs->clear();
  for (const cq::ConjunctiveQuery& q : pool) ptrs->push_back(&q);
  std::vector<label::DisclosureLabel> labels(pool.size());
  labeler->LabelInto(*ptrs, labels.data());
  return labeler;
}

void BM_PerQueryBaseline(benchmark::State& state) {
  const int subqueries = static_cast<int>(state.range(0)) / 3;
  const auto& pool = PoolFor(subqueries);
  const label::LabelingPipeline pipeline(FacebookEnv::Get().catalog.get());
  policy::ReferenceMonitor monitor(&Policy());
  policy::PrincipalState principal = monitor.InitialState();
  size_t i = 0;
  for (auto _ : state) {
    // One batch per iteration, submitted query-by-query (the seed shape).
    if (i + kBatchSize > pool.size()) i = 0;
    principal = monitor.InitialState();
    for (int j = 0; j < kBatchSize; ++j) {
      benchmark::DoNotOptimize(
          monitor.Submit(&principal, pipeline.LabelPacked(pool[i + j])));
    }
    i += kBatchSize;
  }
  ReportRate(state, kBatchSize);
}

void BM_Batched(benchmark::State& state) {
  const int subqueries = static_cast<int>(state.range(0)) / 3;
  const auto& pool = PoolFor(subqueries);
  std::vector<const cq::ConjunctiveQuery*> ptrs;
  const auto labeler = WarmLabeler(pool, &ptrs);
  std::vector<label::DisclosureLabel> labels(kBatchSize);
  policy::ReferenceMonitor monitor(&Policy());
  policy::PrincipalState principal = monitor.InitialState();
  size_t i = 0;
  for (auto _ : state) {
    if (i + kBatchSize > pool.size()) i = 0;
    principal = monitor.InitialState();
    labeler->LabelInto(
        std::span<const cq::ConjunctiveQuery* const>(ptrs).subspan(
            i, kBatchSize),
        labels.data());
    benchmark::DoNotOptimize(monitor.SubmitBatch(
        &principal, std::span<const label::DisclosureLabel>(labels)));
    i += kBatchSize;
  }
  ReportRate(state, kBatchSize);
}

// Ablation between the two: the warm memo, labeled and submitted per query
// — isolates how much of the win batching contributes.
void BM_LabelerPerQuery(benchmark::State& state) {
  const int subqueries = static_cast<int>(state.range(0)) / 3;
  const auto& pool = PoolFor(subqueries);
  std::vector<const cq::ConjunctiveQuery*> ptrs;
  const auto labeler = WarmLabeler(pool, &ptrs);
  policy::ReferenceMonitor monitor(&Policy());
  policy::PrincipalState principal = monitor.InitialState();
  size_t i = 0;
  for (auto _ : state) {
    if (i + kBatchSize > pool.size()) i = 0;
    principal = monitor.InitialState();
    for (int j = 0; j < kBatchSize; ++j) {
      benchmark::DoNotOptimize(
          monitor.Submit(&principal, labeler->Label(pool[i + j])));
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
BENCHMARK(BM_LabelerPerQuery)->Apply(MaxAtomsAxis)
    ->Name("BatchMonitor/labeler_per_query/max_atoms");
BENCHMARK(BM_Batched)->Apply(MaxAtomsAxis)
    ->Name("BatchMonitor/batched/max_atoms");

}  // namespace
}  // namespace fdc::bench

BENCHMARK_MAIN();
