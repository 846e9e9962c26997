// Ablation A4: reference-monitor modes (§6.2).
//
// Measures the per-decision cost of:
//   * the stateless check (k = 1 equivalent model),
//   * the stateful Chinese-Wall submit with the consistency bit vector,
//   * partition-count sweep 1..64 (the paper caps at 5; the design holds up
//     to the 64-bit state word).
// The bit-vector design predicts near-identical stateless/stateful cost and
// sub-linear growth in the partition count.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.h"
#include "policy/policy_store.h"
#include "workload/label_stream.h"
#include "workload/policy_generator.h"

namespace fdc::bench {
namespace {

constexpr uint32_t kPrincipals = 10'000;

const std::vector<workload::LabeledQuery>& Stream() {
  static const auto stream = [] {
    label::LabelingPipeline pipeline(FacebookEnv::Get().catalog.get());
    return workload::GenerateLabelStream(pipeline, 1 << 15, kPrincipals,
                                         0xab1a'0004);
  }();
  return stream;
}

policy::PolicyStore* StoreWithPartitions(int partitions) {
  static int current = -1;
  static std::unique_ptr<policy::PolicyStore> store;
  if (store != nullptr && current == partitions) return store.get();
  const FacebookEnv& env = FacebookEnv::Get();
  workload::PolicyOptions options;
  options.max_partitions = partitions;
  options.max_elements_per_partition = 15;
  workload::PolicyGenerator generator(env.catalog.get(), options,
                                      0x5107'e000 + partitions);
  store = std::make_unique<policy::PolicyStore>(env.schema.NumRelations());
  store->Reserve(kPrincipals, partitions);
  for (uint32_t p = 0; p < kPrincipals; ++p) {
    if (!store->AddPrincipal(generator.Next()).ok()) std::abort();
  }
  current = partitions;
  return store.get();
}

void BM_StatelessCheck(benchmark::State& state) {
  policy::PolicyStore* store =
      StoreWithPartitions(static_cast<int>(state.range(0)));
  const auto& stream = Stream();
  size_t i = 0;
  for (auto _ : state) {
    const auto& lq = stream[i];
    benchmark::DoNotOptimize(store->CheckStateless(lq.principal, lq.label));
    i = (i + 1) % stream.size();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_StatefulSubmit(benchmark::State& state) {
  policy::PolicyStore* store =
      StoreWithPartitions(static_cast<int>(state.range(0)));
  store->ResetStates();
  const auto& stream = Stream();
  size_t i = 0;
  for (auto _ : state) {
    const auto& lq = stream[i];
    benchmark::DoNotOptimize(store->Submit(lq.principal, lq.label));
    i = (i + 1) % stream.size();
  }
  state.SetItemsProcessed(state.iterations());
}

void PartitionAxis(benchmark::internal::Benchmark* bench) {
  for (int k : {1, 2, 5, 8, 16, 32, 64}) bench->Arg(k);
}

BENCHMARK(BM_StatelessCheck)->Apply(PartitionAxis)
    ->Name("AblationMonitor/stateless/partitions");
BENCHMARK(BM_StatefulSubmit)->Apply(PartitionAxis)
    ->Name("AblationMonitor/stateful/partitions");

}  // namespace
}  // namespace fdc::bench

BENCHMARK_MAIN();
