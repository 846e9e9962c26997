// Cold-mask kernel sweep: the compiled catalog matcher vs the seed
// per-view loop, across catalog sizes 8 → 256 views.
//
// "Cold" means no memoization anywhere — every evaluation computes the full
// per-relation ℓ+ mask for a pattern it has never seen, which is exactly
// the work a novel query pays on the labeling path. The seed series runs
// one AtomRewritable per (pattern, view) pair (the pre-PR-3 kernel); the
// compiled series evaluates the discrimination net in one pass. The packed
// sweep keeps 32 views per relation (the packed-label capacity), so the
// per-view loop's cost per atom grows with catalog density while the
// compiled evaluation stays O(arity + requirements).
//
// The wide sweep (MatcherWide/*) fixes the catalog at 256 views and raises
// the *density* to 64 and 128 views per relation — one- and two-word
// multi-word masks, the Lalaine-scale shape where every view used to fall
// off the packed 32-view edge. Both series compute full wide masks
// (MatchMaskWords vs the uncapped per-view loop), so the ratio isolates
// the wide compiled kernel.
//
// The batched sweep (MatcherBatch/*) keeps the wide catalogs (64 / 128
// views per relation) and varies the batch size 1 → 512: per_atom runs
// MatchMaskWords once per pattern (the pre-batch shape), scalar runs
// MatchMaskBatch (the one batch kernel, scalar code throughout). The
// per-relation pools are contiguous AtomPattern arrays — exactly what
// LabelBatch's buckets hand the kernel — so the ratio isolates batch
// structure (the shared constant-probe memo, prefetch).
//
// bench/run_benchmarks.sh folds the ratios into BENCH_hotpath.json as
// matcher_compiled_vs_seed/views/N, matcher_wide_vs_seed/vpr/N, and
// matcher_batch_vs_per_atom/vpr/N/batch/B; the acceptance floors are ≥ 3×
// at 64 views (packed sweep), ≥ 3× at 64 views/relation (wide sweep), and
// ≥ 1.5× batch-over-per-atom at batch ≥ 64 (batched sweep).
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cq/pattern.h"
#include "cq/schema.h"
#include "label/compiled_matcher.h"
#include "label/view_catalog.h"
#include "rewriting/atom_rewriting.h"

namespace fdc::bench {
namespace {

using cq::Atom;
using cq::AtomPattern;
using cq::Term;

constexpr int kArity = 6;
constexpr int kViewsPerRelation = 32;
constexpr int kPatternPool = 1024;

// One catalog of `num_views` views, `views_per_relation` per relation over
// ceil(num_views / views_per_relation) Album-like relations, plus a
// pregenerated pattern pool. Views are projection/selection shapes
// (distinguished subsets, per-view selection constants) with a few
// repeated-variable views mixed in so the compiled net's equality machinery
// is on the measured path.
struct MatcherEnv {
  cq::Schema schema;
  std::unique_ptr<label::ViewCatalog> catalog;
  label::CompiledCatalogMatcher matcher;
  std::vector<AtomPattern> patterns;

  MatcherEnv(int num_views, int views_per_relation) {
    const int num_relations =
        (num_views + views_per_relation - 1) / views_per_relation;
    for (int r = 0; r < num_relations; ++r) {
      auto id = schema.AddRelation(
          "T" + std::to_string(r),
          {"uid", "viewer_rel", "c1", "c2", "c3", "c4"});
      if (!id.ok()) std::abort();
    }
    catalog = std::make_unique<label::ViewCatalog>(&schema);
    for (int v = 0; v < num_views; ++v) {
      const int relation = v / views_per_relation;
      const int k = v % views_per_relation;
      std::vector<Term> terms;
      terms.push_back(Term::Var(0));  // uid
      if (k % 2 == 1) {
        terms.push_back(Term::Const("g" + std::to_string(k / 2)));
      } else {
        terms.push_back(Term::Var(1));
      }
      for (int p = 0; p < 4; ++p) terms.push_back(Term::Var(2 + p));
      if (k % 8 == 7) terms[3] = Term::Var(2);  // repeated variable (c1=c2)
      std::vector<bool> distinguished(6, false);
      distinguished[0] = true;       // uid always exposed
      distinguished[1] = k % 4 < 2;  // viewer_rel sometimes exposed
      for (int p = 0; p < 4; ++p) {
        distinguished[2 + p] = ((k / 2) >> p) & 1;
      }
      AtomPattern pattern = AtomPattern::FromAtom(
          Atom(relation, std::move(terms)), distinguished);
      auto added = catalog->AddView("v" + std::to_string(v),
                                    pattern.ToQuery("V"));
      if (!added.ok()) std::abort();
    }
    matcher = label::CompiledCatalogMatcher::Compile(*catalog);

    Rng rng(0x3a7c'4e00ULL + num_views * 31 + views_per_relation);
    patterns.reserve(kPatternPool);
    for (int i = 0; i < kPatternPool; ++i) {
      const int relation = static_cast<int>(rng.Below(num_relations));
      std::vector<Term> terms;
      terms.push_back(Term::Var(0));
      if (rng.Chance(0.6)) {
        terms.push_back(Term::Const("g" + std::to_string(rng.Below(16))));
      } else {
        terms.push_back(Term::Var(1));
      }
      for (int p = 0; p < 4; ++p) {
        if (rng.Chance(0.15)) {
          terms.push_back(Term::Const("x" + std::to_string(rng.Below(4))));
        } else {
          // Occasional repeats so the C5 path is exercised.
          terms.push_back(Term::Var(rng.Chance(0.2)
                                        ? 2
                                        : 2 + static_cast<int>(p)));
        }
      }
      std::vector<bool> distinguished(6, false);
      for (int c = 0; c < 6; ++c) distinguished[c] = rng.Chance(0.5);
      patterns.push_back(AtomPattern::FromAtom(
          Atom(relation, std::move(terms)), distinguished));
    }
  }

  static const MatcherEnv& Get(int num_views,
                               int views_per_relation = kViewsPerRelation) {
    static std::map<std::pair<int, int>, std::unique_ptr<MatcherEnv>> envs;
    const std::pair<int, int> key(num_views, views_per_relation);
    auto it = envs.find(key);
    if (it == envs.end()) {
      it = envs.emplace(key, std::make_unique<MatcherEnv>(num_views,
                                                          views_per_relation))
               .first;
    }
    return *it->second;
  }
};

void ReportRate(benchmark::State& state, int masks_per_iteration) {
  state.SetItemsProcessed(state.iterations() * masks_per_iteration);
  state.counters["masks_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * masks_per_iteration,
      benchmark::Counter::kIsRate);
}

// The pre-PR-3 kernel: one AtomRewritable per (pattern, view) pair, with
// the packed 32-view guard — identical decisions to the compiled net
// (property-tested in tests/compiled_matcher_test.cc).
void BM_SeedPerView(benchmark::State& state) {
  const MatcherEnv& env = MatcherEnv::Get(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    for (const AtomPattern& pattern : env.patterns) {
      uint32_t mask = 0;
      for (int view_id : env.catalog->ViewsOfRelation(pattern.relation)) {
        const label::SecurityView& view = env.catalog->view(view_id);
        if (view.bit < 32 &&
            rewriting::AtomRewritable(pattern, view.pattern)) {
          mask |= uint32_t{1} << view.bit;
        }
      }
      benchmark::DoNotOptimize(mask);
    }
  }
  ReportRate(state, kPatternPool);
}

void BM_Compiled(benchmark::State& state) {
  const MatcherEnv& env = MatcherEnv::Get(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    for (const AtomPattern& pattern : env.patterns) {
      uint64_t mask;  // 32 views per relation: one mask word
      env.matcher.MatchMaskWords(pattern, &mask);
      benchmark::DoNotOptimize(mask);
    }
  }
  ReportRate(state, kPatternPool);
}

void CatalogAxis(benchmark::internal::Benchmark* bench) {
  for (int views : {8, 16, 32, 64, 128, 256}) bench->Arg(views);
}

// Wide sweep: 256-view catalog at 64 / 128 views per relation — full
// multi-word masks on both sides, no packed cap anywhere, so the former
// 32-view edge is squarely on the measured path.
constexpr int kWideCatalogViews = 256;
constexpr int kMaxMaskWords = 4;  // enough for 256 views on one relation

// The uncapped seed kernel: one AtomRewritable per (pattern, view) pair,
// every bit recorded — what labeling beyond the packed edge costs without
// the compiled net (decision-identical to MatchMaskWords, property-tested
// in tests/wide_matcher_property_test.cc).
void BM_SeedPerViewWide(benchmark::State& state) {
  const MatcherEnv& env =
      MatcherEnv::Get(kWideCatalogViews, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    for (const AtomPattern& pattern : env.patterns) {
      uint64_t words[kMaxMaskWords] = {0, 0, 0, 0};
      for (int view_id : env.catalog->ViewsOfRelation(pattern.relation)) {
        const label::SecurityView& view = env.catalog->view(view_id);
        if (rewriting::AtomRewritable(pattern, view.pattern)) {
          words[view.bit / 64] |= uint64_t{1} << (view.bit % 64);
        }
      }
      benchmark::DoNotOptimize(words);
    }
  }
  ReportRate(state, kPatternPool);
}

void BM_CompiledWide(benchmark::State& state) {
  const MatcherEnv& env =
      MatcherEnv::Get(kWideCatalogViews, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    for (const AtomPattern& pattern : env.patterns) {
      uint64_t words[kMaxMaskWords];
      env.matcher.MatchMaskWords(pattern, words);
      benchmark::DoNotOptimize(words);
    }
  }
  ReportRate(state, kPatternPool);
}

void WideAxis(benchmark::internal::Benchmark* bench) {
  for (int views_per_relation : {64, 128}) bench->Arg(views_per_relation);
}

// ---------------------------------------------------------------------------
// Batched sweep: per-relation contiguous pools over the wide catalogs,
// evaluated in chunks of the batch size. 512 patterns per relation so
// every batch size in {1, 8, 64, 512} tiles the pool exactly.
// ---------------------------------------------------------------------------
constexpr int kBatchPool = 512;

struct BatchEnv {
  const MatcherEnv* base;
  // Contiguous per-relation pools, each exactly kBatchPool patterns
  // (cycling the base env's mixed-relation pool to fill).
  std::vector<std::vector<AtomPattern>> by_relation;

  explicit BatchEnv(int views_per_relation) {
    base = &MatcherEnv::Get(kWideCatalogViews, views_per_relation);
    const int num_relations = kWideCatalogViews / views_per_relation;
    by_relation.resize(static_cast<size_t>(num_relations));
    for (int r = 0; r < num_relations; ++r) {
      std::vector<AtomPattern>& pool = by_relation[static_cast<size_t>(r)];
      pool.reserve(kBatchPool);
      while (static_cast<int>(pool.size()) < kBatchPool) {
        for (const AtomPattern& p : base->patterns) {
          if (p.relation == r) {
            pool.push_back(p);
            if (static_cast<int>(pool.size()) == kBatchPool) break;
          }
        }
      }
    }
  }

  static const BatchEnv& Get(int views_per_relation) {
    static std::map<int, std::unique_ptr<BatchEnv>> envs;
    auto it = envs.find(views_per_relation);
    if (it == envs.end()) {
      it = envs.emplace(views_per_relation,
                        std::make_unique<BatchEnv>(views_per_relation))
               .first;
    }
    return *it->second;
  }
};

// Per-atom baseline over the same pools and the same output layout: one
// MatchMaskWords call per pattern, rows written at the batch stride.
void BM_BatchPerAtom(benchmark::State& state) {
  const BatchEnv& env = BatchEnv::Get(static_cast<int>(state.range(0)));
  const int batch = static_cast<int>(state.range(1));
  std::vector<uint64_t> rows(
      static_cast<size_t>(batch) * kMaxMaskWords);
  for (auto _ : state) {
    for (const std::vector<AtomPattern>& pool : env.by_relation) {
      const int w = env.base->matcher.MaskWords(pool.front().relation);
      for (int begin = 0; begin < kBatchPool; begin += batch) {
        for (int i = 0; i < batch; ++i) {
          env.base->matcher.MatchMaskWords(
              pool[static_cast<size_t>(begin + i)],
              rows.data() + static_cast<size_t>(i) * w);
        }
        benchmark::DoNotOptimize(rows.data());
      }
    }
  }
  ReportRate(state,
             static_cast<int>(env.by_relation.size()) * kBatchPool);
}

// The batch kernel over the same pools: one MatchMaskBatch per batch.
void BM_BatchScalar(benchmark::State& state) {
  const BatchEnv& env = BatchEnv::Get(static_cast<int>(state.range(0)));
  const int batch = static_cast<int>(state.range(1));
  label::BatchScratch scratch;
  std::vector<uint64_t> rows(
      static_cast<size_t>(batch) * kMaxMaskWords);
  for (auto _ : state) {
    for (const std::vector<AtomPattern>& pool : env.by_relation) {
      for (int begin = 0; begin < kBatchPool; begin += batch) {
        env.base->matcher.MatchMaskBatch(
            std::span<const AtomPattern>(
                pool.data() + begin, static_cast<size_t>(batch)),
            rows.data(), &scratch);
        benchmark::DoNotOptimize(rows.data());
      }
    }
  }
  ReportRate(state,
             static_cast<int>(env.by_relation.size()) * kBatchPool);
}

void BatchAxis(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"vpr", "batch"});
  for (int vpr : {64, 128}) {
    for (int batch : {1, 8, 64, 512}) bench->Args({vpr, batch});
  }
}

BENCHMARK(BM_SeedPerView)->Apply(CatalogAxis)
    ->Name("Matcher/seed_per_view/views");
BENCHMARK(BM_Compiled)->Apply(CatalogAxis)
    ->Name("Matcher/compiled/views");
BENCHMARK(BM_SeedPerViewWide)->Apply(WideAxis)
    ->Name("MatcherWide/seed_per_view/vpr");
BENCHMARK(BM_CompiledWide)->Apply(WideAxis)
    ->Name("MatcherWide/compiled/vpr");
BENCHMARK(BM_BatchPerAtom)->Apply(BatchAxis)->Name("MatcherBatch/per_atom");
BENCHMARK(BM_BatchScalar)->Apply(BatchAxis)->Name("MatcherBatch/scalar");

}  // namespace
}  // namespace fdc::bench

BENCHMARK_MAIN();
