// Ablation A2: disclosure-label representations (§6.1).
//
// Compares the three label representations on identical workloads:
//   * set     — sorted vectors of view ids (the §4.2 formulation);
//   * wide    — per-relation multi-word bitmasks (no 32-view limit);
//   * packed  — one 64-bit word per atom (the §6.1 design).
// Measured separately: label construction and label comparison (the two
// operations §6.1 optimizes). The packed representation should win both,
// with the gap largest on comparisons — they collapse to a handful of
// bitmask instructions.
#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace fdc::bench {
namespace {

const std::vector<cq::ConjunctiveQuery>& Pool() {
  static const auto pool = MakeQueryPool(/*subqueries=*/1, 2048, 0xab1a'0002);
  return pool;
}

void BM_BuildSet(benchmark::State& state) {
  label::LabelingPipeline pipeline(FacebookEnv::Get().catalog.get());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.LabelHashed(Pool()[i]));
    i = (i + 1) % Pool().size();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_BuildWide(benchmark::State& state) {
  label::LabelingPipeline pipeline(FacebookEnv::Get().catalog.get());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.LabelWide(Pool()[i]));
    i = (i + 1) % Pool().size();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_BuildPacked(benchmark::State& state) {
  label::LabelingPipeline pipeline(FacebookEnv::Get().catalog.get());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.LabelPacked(Pool()[i]));
    i = (i + 1) % Pool().size();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CompareSet(benchmark::State& state) {
  label::LabelingPipeline pipeline(FacebookEnv::Get().catalog.get());
  std::vector<label::SetLabel> labels;
  for (const auto& q : Pool()) labels.push_back(pipeline.LabelHashed(q));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        labels[i].Leq(labels[(i + 1) % labels.size()]));
    i = (i + 1) % labels.size();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CompareWide(benchmark::State& state) {
  label::LabelingPipeline pipeline(FacebookEnv::Get().catalog.get());
  std::vector<label::WideLabel> labels;
  for (const auto& q : Pool()) labels.push_back(pipeline.LabelWide(q));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        labels[i].Leq(labels[(i + 1) % labels.size()]));
    i = (i + 1) % labels.size();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ComparePacked(benchmark::State& state) {
  label::LabelingPipeline pipeline(FacebookEnv::Get().catalog.get());
  std::vector<label::DisclosureLabel> labels;
  for (const auto& q : Pool()) labels.push_back(pipeline.LabelPacked(q));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        labels[i].Leq(labels[(i + 1) % labels.size()]));
    i = (i + 1) % labels.size();
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_BuildSet)->Name("AblationRepr/build/set");
BENCHMARK(BM_BuildWide)->Name("AblationRepr/build/wide");
BENCHMARK(BM_BuildPacked)->Name("AblationRepr/build/packed");
BENCHMARK(BM_CompareSet)->Name("AblationRepr/compare/set");
BENCHMARK(BM_CompareWide)->Name("AblationRepr/compare/wide");
BENCHMARK(BM_ComparePacked)->Name("AblationRepr/compare/packed");

}  // namespace
}  // namespace fdc::bench

BENCHMARK_MAIN();
