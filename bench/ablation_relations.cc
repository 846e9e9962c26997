// Ablation A3: schema width (footnote 3 of §7.2).
//
// "In preliminary tests on synthetic data, we tried increasing the total
// number of relations to 1,000 while keeping the number of security views
// per relation constant; the total number of relations did not have any
// appreciable impact on the hash-based disclosure labelers' throughput."
//
// The sweep labels identical single-relation queries against catalogs of 8,
// 64, 256 and 1000 relations (3 views each). The hashed labeler should stay
// flat; the baseline's linear view scan degrades with catalog size.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.h"

namespace fdc::bench {
namespace {

struct Env {
  std::unique_ptr<SyntheticEnv> synthetic;
  std::vector<cq::ConjunctiveQuery> pool;
};

Env* EnvFor(int num_relations) {
  static int current = -1;
  static Env env;
  if (current == num_relations) return &env;
  env.synthetic = std::make_unique<SyntheticEnv>(num_relations);
  workload::GeneratorOptions options;
  workload::QueryGenerator generator(&env.synthetic->schema, options,
                                     0xab1a'0003 + num_relations);
  env.pool.clear();
  for (int i = 0; i < 1024; ++i) env.pool.push_back(generator.Next());
  current = num_relations;
  return &env;
}

void BM_BaselineByRelations(benchmark::State& state) {
  Env* env = EnvFor(static_cast<int>(state.range(0)));
  label::LabelingPipeline pipeline(env->synthetic->catalog.get());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.LabelBaseline(env->pool[i]));
    i = (i + 1) % env->pool.size();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_HashedByRelations(benchmark::State& state) {
  Env* env = EnvFor(static_cast<int>(state.range(0)));
  label::LabelingPipeline pipeline(env->synthetic->catalog.get());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.LabelHashed(env->pool[i]));
    i = (i + 1) % env->pool.size();
  }
  state.SetItemsProcessed(state.iterations());
}

void RelationAxis(benchmark::internal::Benchmark* bench) {
  for (int n : {8, 64, 256, 1000}) bench->Arg(n);
}

BENCHMARK(BM_BaselineByRelations)->Apply(RelationAxis)
    ->Name("AblationRelations/baseline/relations");
BENCHMARK(BM_HashedByRelations)->Apply(RelationAxis)
    ->Name("AblationRelations/hashed/relations");

}  // namespace
}  // namespace fdc::bench

BENCHMARK_MAIN();
