// Figure 5: disclosure labeler performance.
//
// Reproduces the four series of the paper's Figure 5 over the §7.2 workload:
//   * query_generation_only — the cost of producing a parsed random query;
//   * baseline              — LabelGen with a linear scan over all views;
//   * hashing_only          — views partitioned by relation;
//   * bitvectors_and_hashing— relation partitioning + packed ℓ+ masks.
// The x-axis is the maximum number of atoms per query: 3·k for k = 1..5
// stress subqueries, i.e. 3, 6, 9, 12, 15, exactly as in the paper.
//
// The reported counter `sec_per_1M_queries` matches the paper's y-axis
// ("time to analyze a million queries").
#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace fdc::bench {
namespace {

constexpr int kPoolSize = 2048;

const std::vector<cq::ConjunctiveQuery>& PoolFor(int subqueries) {
  static std::vector<cq::ConjunctiveQuery> pools[6];
  auto& pool = pools[subqueries];
  if (pool.empty()) {
    pool = MakeQueryPool(subqueries, kPoolSize, 0xf16'5eedULL + subqueries);
  }
  return pool;
}

void ReportRate(benchmark::State& state) {
  state.SetItemsProcessed(state.iterations());
  // kIsRate divides by elapsed time, kInvert flips: the reported value is
  // elapsed_seconds * 1e6 / iterations — seconds per million queries.
  state.counters["sec_per_1M_queries"] = benchmark::Counter(
      static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_QueryGenerationOnly(benchmark::State& state) {
  const int subqueries = static_cast<int>(state.range(0)) / 3;
  workload::GeneratorOptions options;
  options.subqueries = subqueries;
  workload::QueryGenerator generator(&FacebookEnv::Get().schema, options,
                                     42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.Next());
  }
  ReportRate(state);
}

void BM_Baseline(benchmark::State& state) {
  const int subqueries = static_cast<int>(state.range(0)) / 3;
  const auto& pool = PoolFor(subqueries);
  label::LabelingPipeline pipeline(FacebookEnv::Get().catalog.get());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.LabelBaseline(pool[i]));
    i = (i + 1) % pool.size();
  }
  ReportRate(state);
}

void BM_HashingOnly(benchmark::State& state) {
  const int subqueries = static_cast<int>(state.range(0)) / 3;
  const auto& pool = PoolFor(subqueries);
  label::LabelingPipeline pipeline(FacebookEnv::Get().catalog.get());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.LabelHashed(pool[i]));
    i = (i + 1) % pool.size();
  }
  ReportRate(state);
}

void BM_BitvectorsAndHashing(benchmark::State& state) {
  const int subqueries = static_cast<int>(state.range(0)) / 3;
  const auto& pool = PoolFor(subqueries);
  label::LabelingPipeline pipeline(FacebookEnv::Get().catalog.get());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.LabelPacked(pool[i]));
    i = (i + 1) % pool.size();
  }
  ReportRate(state);
}

void MaxAtomsAxis(benchmark::internal::Benchmark* bench) {
  for (int max_atoms : {3, 6, 9, 12, 15}) bench->Arg(max_atoms);
}

BENCHMARK(BM_QueryGenerationOnly)->Apply(MaxAtomsAxis)
    ->Name("Fig5/query_generation_only/max_atoms");
BENCHMARK(BM_Baseline)->Apply(MaxAtomsAxis)->Name("Fig5/baseline/max_atoms");
BENCHMARK(BM_HashingOnly)->Apply(MaxAtomsAxis)
    ->Name("Fig5/hashing_only/max_atoms");
BENCHMARK(BM_BitvectorsAndHashing)->Apply(MaxAtomsAxis)
    ->Name("Fig5/bitvectors_and_hashing/max_atoms");

}  // namespace
}  // namespace fdc::bench

BENCHMARK_MAIN();
