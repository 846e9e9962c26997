// Ablation A1: the folding step inside Dissect (§5.2).
//
// Folding costs homomorphism searches per query but removes redundant atoms
// before labeling. This ablation measures (a) end-to-end labeling time with
// and without folding and (b) the imprecision introduced by skipping it:
// the fraction of queries whose no-fold label is strictly higher in the
// label lattice (`strictly_wider_rate`).
#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace fdc::bench {
namespace {

void BM_LabelWithFold(benchmark::State& state) {
  const int subqueries = static_cast<int>(state.range(0)) / 3;
  const auto pool = MakeQueryPool(subqueries, 1024, 0xab1a'0001);
  label::LabelingPipeline pipeline(FacebookEnv::Get().catalog.get());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.LabelPacked(pool[i]));
    i = (i + 1) % pool.size();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_LabelWithoutFold(benchmark::State& state) {
  const int subqueries = static_cast<int>(state.range(0)) / 3;
  const auto pool = MakeQueryPool(subqueries, 1024, 0xab1a'0001);
  label::DissectOptions options;
  options.fold = false;
  label::LabelingPipeline pipeline(FacebookEnv::Get().catalog.get(), options);

  // Precision accounting happens before the timed loop.
  label::LabelingPipeline folded(FacebookEnv::Get().catalog.get());
  int64_t wider = 0;
  for (const auto& q : pool) {
    label::DisclosureLabel with = folded.LabelPacked(q);
    label::DisclosureLabel without = pipeline.LabelPacked(q);
    // `without` is always ⪰ `with`; strict means not ⪯ back.
    if (!without.Leq(with)) ++wider;
  }

  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.LabelPacked(pool[i]));
    i = (i + 1) % pool.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["strictly_wider_rate"] =
      static_cast<double>(wider) / static_cast<double>(pool.size());
}

BENCHMARK(BM_LabelWithFold)->Arg(3)->Arg(9)->Arg(15)
    ->Name("AblationFolding/with_fold/max_atoms");
BENCHMARK(BM_LabelWithoutFold)->Arg(3)->Arg(9)->Arg(15)
    ->Name("AblationFolding/without_fold/max_atoms");

}  // namespace
}  // namespace fdc::bench

BENCHMARK_MAIN();
