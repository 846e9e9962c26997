// Figure 6: policy checker performance.
//
// Reproduces the paper's six series: {1-way, 5-way partitions} × {1K, 50K,
// 1M principals}, sweeping the maximum number of single-atom views per
// partition (x-axis 5..50). Each measured operation is one §6.2 stateful
// Submit of a pre-labeled 1–3 atom query against its principal's policy;
// `sec_per_1M_labels` mirrors the paper's "time to analyze a million
// queries" axis.
//
// Policies are randomly generated per principal (seeded) and stored in the
// flat PolicyStore; the label stream is generated once and shared.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.h"
#include "policy/policy_store.h"
#include "workload/label_stream.h"
#include "workload/policy_generator.h"

namespace fdc::bench {
namespace {

constexpr uint32_t kMaxPrincipals = 1'000'000;
constexpr int kStreamSize = 1 << 17;  // labels in the shared stream

const std::vector<workload::LabeledQuery>& Stream() {
  static const std::vector<workload::LabeledQuery> stream = [] {
    label::LabelingPipeline pipeline(FacebookEnv::Get().catalog.get());
    return workload::GenerateLabelStream(pipeline, kStreamSize,
                                         kMaxPrincipals, 0xf16'6eedULL);
  }();
  return stream;
}

struct StoreKey {
  uint32_t principals;
  int partitions;
  int elements;
  bool operator==(const StoreKey& o) const {
    return principals == o.principals && partitions == o.partitions &&
           elements == o.elements;
  }
};

// One store lives at a time: the 1M-principal configurations are ~160 MB
// each, so caching all of them would waste memory for no measurement gain.
policy::PolicyStore* StoreFor(const StoreKey& key) {
  static StoreKey current{0, 0, 0};
  static std::unique_ptr<policy::PolicyStore> store;
  if (store != nullptr && current == key) return store.get();

  const FacebookEnv& env = FacebookEnv::Get();
  workload::PolicyOptions options;
  options.max_partitions = key.partitions;
  options.max_elements_per_partition = key.elements;
  workload::PolicyGenerator generator(
      env.catalog.get(), options,
      0x9'0110'5eedULL ^ key.principals ^ (key.partitions * 131) ^
          (key.elements * 17));
  store = std::make_unique<policy::PolicyStore>(env.schema.NumRelations());
  store->Reserve(key.principals, key.partitions);
  for (uint32_t p = 0; p < key.principals; ++p) {
    if (!store->AddPrincipal(generator.Next()).ok()) std::abort();
  }
  current = key;
  return store.get();
}

void BM_PolicyChecker(benchmark::State& state) {
  const StoreKey key{static_cast<uint32_t>(state.range(0)),
                     static_cast<int>(state.range(1)),
                     static_cast<int>(state.range(2))};
  policy::PolicyStore* store = StoreFor(key);
  store->ResetStates();
  const auto& stream = Stream();

  size_t i = 0;
  int64_t accepted = 0;
  for (auto _ : state) {
    const workload::LabeledQuery& lq = stream[i];
    accepted += store->Submit(lq.principal % key.principals, lq.label) ? 1 : 0;
    i = (i + 1) % stream.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sec_per_1M_labels"] = benchmark::Counter(
      static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["accept_rate"] =
      static_cast<double>(accepted) / static_cast<double>(state.iterations());
}

void Fig6Axes(benchmark::internal::Benchmark* bench) {
  for (int partitions : {1, 5}) {
    for (uint32_t principals : {1'000u, 50'000u, 1'000'000u}) {
      for (int elements : {5, 15, 30, 50}) {
        bench->Args({static_cast<int64_t>(principals), partitions, elements});
      }
    }
  }
}

BENCHMARK(BM_PolicyChecker)
    ->Apply(Fig6Axes)
    ->Name("Fig6/principals_partitions_maxelems");

}  // namespace
}  // namespace fdc::bench

BENCHMARK_MAIN();
