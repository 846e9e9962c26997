// Differential suite for the batch-structured mask kernel: MatchMaskBatch
// must be bit-identical to the per-atom MatchMaskWords oracle — across the
// packed/word view-count boundaries (31/32/33/63/64/65) and the one-word,
// two-word and W-word kernels, for odd batch sizes, through both consumers
// (LabelingPipeline::LabelBatch and engine::ConcurrentLabeler::LabelInto),
// and with zero heap allocations on the warm kernel path. The same
// operator-new counter bounds the engine's warm decisions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cq/pattern.h"
#include "cq/schema.h"
#include "engine/disclosure_engine.h"
#include "engine/labeler.h"
#include "engine/snapshot.h"
#include "label/compiled_matcher.h"
#include "label/pipeline.h"
#include "label/view_catalog.h"
#include "test_util.h"
#include "workload/policy_generator.h"

// ---------------------------------------------------------------------------
// Allocation counting (house harness): every operator new in this binary
// bumps the counter when armed. Proves the warm batch path allocates
// nothing.
// ---------------------------------------------------------------------------
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fdc::label {
namespace {

using cq::Atom;
using cq::AtomPattern;
using cq::ConjunctiveQuery;
using cq::Term;

constexpr int kMaxArity = 5;
const char* const kConstPool[6] = {"a", "b", "c", "d", "e", "f"};

cq::Schema RandomSchema(Rng* rng, int num_relations,
                        std::vector<int>* arities) {
  cq::Schema schema;
  for (int r = 0; r < num_relations; ++r) {
    const int arity = static_cast<int>(rng->Range(2, kMaxArity));
    std::vector<std::string> cols;
    for (int c = 0; c < arity; ++c) cols.push_back("c" + std::to_string(c));
    (void)schema.AddRelation("R" + std::to_string(r), cols);
    arities->push_back(arity);
  }
  return schema;
}

AtomPattern RandomPattern(Rng* rng, int relation, int arity) {
  std::vector<Term> terms;
  const int num_vars = 1 + static_cast<int>(rng->Below(arity));
  for (int p = 0; p < arity; ++p) {
    if (rng->Chance(0.3)) {
      terms.push_back(Term::Const(kConstPool[rng->Below(6)]));
    } else {
      terms.push_back(Term::Var(static_cast<int>(rng->Below(num_vars))));
    }
  }
  std::vector<bool> distinguished(num_vars, false);
  for (int v = 0; v < num_vars; ++v) distinguished[v] = rng->Chance(0.5);
  return AtomPattern::FromAtom(Atom(relation, std::move(terms)),
                               distinguished);
}

void BoundaryCatalog(Rng* rng, ViewCatalog* catalog,
                     const std::vector<int>& arities, int views_per_relation) {
  for (size_t relation = 0; relation < arities.size(); ++relation) {
    for (int k = 0; k < views_per_relation; ++k) {
      const AtomPattern pattern =
          RandomPattern(rng, static_cast<int>(relation), arities[relation]);
      (void)catalog->AddView(
          "v" + std::to_string(relation) + "_" + std::to_string(k),
          pattern.ToQuery("V"));
    }
  }
}

ConjunctiveQuery RandomQuery(Rng* rng, const std::vector<int>& arities) {
  const int natoms = 1 + static_cast<int>(rng->Below(3));
  std::vector<Atom> atoms;
  std::vector<bool> used(4, false);
  for (int a = 0; a < natoms; ++a) {
    const int relation = static_cast<int>(rng->Below(arities.size()));
    std::vector<Term> terms;
    for (int p = 0; p < arities[relation]; ++p) {
      if (rng->Chance(0.25)) {
        terms.push_back(Term::Const(kConstPool[rng->Below(6)]));
      } else {
        const int v = static_cast<int>(rng->Below(4));
        used[v] = true;
        terms.push_back(Term::Var(v));
      }
    }
    atoms.emplace_back(relation, std::move(terms));
  }
  std::vector<Term> head;
  for (int v = 0; v < 4; ++v) {
    if (used[v] && rng->Chance(0.4)) head.push_back(Term::Var(v));
  }
  return ConjunctiveQuery("Q", std::move(head), std::move(atoms));
}

// Per-atom oracle rows for one relation's batch, laid out exactly like the
// batch kernel's output (stride = MaskWords(relation)).
std::vector<uint64_t> OracleRows(const CompiledCatalogMatcher& matcher,
                                 const std::vector<AtomPattern>& batch) {
  const int W = matcher.MaskWords(batch.front().relation);
  std::vector<uint64_t> rows(batch.size() * static_cast<size_t>(W), ~0ULL);
  for (size_t i = 0; i < batch.size(); ++i) {
    matcher.MatchMaskWords(batch[i], rows.data() + i * static_cast<size_t>(W));
  }
  return rows;
}

// The packed-capacity and word-width view-count boundaries, a deep
// two-word catalog, and a three-word one for the W-word kernel; odd and
// even batch sizes from a single pattern up.
const int kBoundaryViewCounts[] = {1, 5, 31, 32, 33, 63, 64, 65, 128, 129};
const int kBatchSizes[] = {1, 3, 5, 7, 8, 64};

TEST(BatchKernelPropertyTest, MatchesPerAtomOracleAcrossBoundaries) {
  Rng rng(0xba7c'0001);
  for (const int views : kBoundaryViewCounts) {
    std::vector<int> arities;
    const int num_relations = 1 + static_cast<int>(rng.Below(2));
    cq::Schema schema = RandomSchema(&rng, num_relations, &arities);
    ViewCatalog catalog(&schema);
    BoundaryCatalog(&rng, &catalog, arities, views);
    const CompiledCatalogMatcher matcher =
        CompiledCatalogMatcher::Compile(catalog);
    BatchScratch scratch;  // one scratch across every relation/size
    for (const int batch_size : kBatchSizes) {
      for (int relation = 0; relation < num_relations; ++relation) {
        std::vector<AtomPattern> batch;
        for (int i = 0; i < batch_size; ++i) {
          batch.push_back(RandomPattern(&rng, relation, arities[relation]));
        }
        const std::vector<uint64_t> expected = OracleRows(matcher, batch);
        std::vector<uint64_t> got(expected.size(), 0);
        std::vector<const AtomPattern*> ptrs;
        for (const AtomPattern& p : batch) ptrs.push_back(&p);
        std::fill(got.begin(), got.end(), ~0ULL);
        matcher.MatchMaskBatch(std::span<const AtomPattern>(batch),
                               got.data(), &scratch);
        EXPECT_EQ(got, expected)
            << "views=" << views << " batch=" << batch_size
            << " relation=" << relation;
        // Pointer-batch overload: same kernel, scattered storage.
        std::fill(got.begin(), got.end(), ~0ULL);
        matcher.MatchMaskBatch(std::span<const AtomPattern* const>(ptrs),
                               got.data(), &scratch);
        EXPECT_EQ(got, expected)
            << "pointer overload views=" << views << " batch=" << batch_size;
      }
    }
  }
}

TEST(BatchKernelPropertyTest, ZeroesArityMismatchRowsInsideABatch) {
  Rng rng(0xba7c'0002);
  std::vector<int> arities;
  cq::Schema schema = RandomSchema(&rng, 1, &arities);
  ViewCatalog catalog(&schema);
  BoundaryCatalog(&rng, &catalog, arities, 65);
  const CompiledCatalogMatcher matcher =
      CompiledCatalogMatcher::Compile(catalog);
  BatchScratch scratch;
  // Mismatched-arity patterns (impossible from Dissect, but the kernel
  // contract covers them) interleaved with valid ones.
  std::vector<AtomPattern> batch;
  for (int i = 0; i < 9; ++i) {
    const int arity = (i % 3 == 1) ? arities[0] + 1 : arities[0];
    batch.push_back(RandomPattern(&rng, 0, arity));
  }
  const std::vector<uint64_t> expected = OracleRows(matcher, batch);
  std::vector<uint64_t> got(expected.size(), ~0ULL);
  matcher.MatchMaskBatch(std::span<const AtomPattern>(batch), got.data(),
                         &scratch);
  EXPECT_EQ(got, expected);
  const int W = matcher.MaskWords(0);
  for (int i = 1; i < 9; i += 3) {  // the mismatched rows are all-zero
    for (int w = 0; w < W; ++w) {
      EXPECT_EQ(got[static_cast<size_t>(i) * W + w], 0u) << "row " << i;
    }
  }
}

TEST(BatchKernelPropertyTest, FallbackRelationsRunThePerViewLoopPerPattern) {
  // Arity beyond kMaxCompiledArity: the net is not compiled and the batch
  // entry must degrade to the per-view fallback, pattern by pattern.
  Rng rng(0xba7c'0003);
  cq::Schema schema;
  const int arity = CompiledCatalogMatcher::kMaxCompiledArity + 1;
  std::vector<std::string> cols;
  for (int c = 0; c < arity; ++c) cols.push_back("c" + std::to_string(c));
  (void)schema.AddRelation("Wide", cols);
  ViewCatalog catalog(&schema);
  for (int k = 0; k < 6; ++k) {
    (void)catalog.AddView("v" + std::to_string(k),
                          RandomPattern(&rng, 0, arity).ToQuery("V"));
  }
  const CompiledCatalogMatcher matcher =
      CompiledCatalogMatcher::Compile(catalog);
  ASSERT_EQ(matcher.AvoidedPerViewTests(0), 0);  // fallback relation
  BatchScratch scratch;
  std::vector<AtomPattern> batch;
  for (int i = 0; i < 7; ++i) batch.push_back(RandomPattern(&rng, 0, arity));
  const std::vector<uint64_t> expected = OracleRows(matcher, batch);
  std::vector<uint64_t> got(expected.size(), ~0ULL);
  matcher.MatchMaskBatch(std::span<const AtomPattern>(batch), got.data(),
                         &scratch);
  EXPECT_EQ(got, expected);
}

TEST(BatchKernelPropertyTest, PipelineBatchMatchesPerQueryLabel) {
  Rng rng(0xba7c'0004);
  for (const int views : {5, 33, 65}) {
    std::vector<int> arities;
    cq::Schema schema = RandomSchema(&rng, 2, &arities);
    ViewCatalog catalog(&schema);
    BoundaryCatalog(&rng, &catalog, arities, views);

    LabelingPipeline batched(&catalog);
    LabelingPipeline per_query(&catalog);

    // Duplicates included: the batch memo/dedup bookkeeping is on the path.
    std::vector<ConjunctiveQuery> pool;
    for (int i = 0; i < 24; ++i) pool.push_back(RandomQuery(&rng, arities));
    for (int i = 0; i < 8; ++i) pool.push_back(pool[static_cast<size_t>(i)]);

    // One kernel call over every novel structure vs a batch of one per
    // query: different bucket compositions, identical labels.
    const std::vector<DisclosureLabel> got = batched.LabelBatch(pool);
    ASSERT_EQ(got.size(), pool.size());
    for (size_t i = 0; i < pool.size(); ++i) {
      EXPECT_EQ(got[i], per_query.Label(pool[i]))
          << "views=" << views << " query " << i;
    }
    EXPECT_GT(batched.stats().batch_mask_evals, 0u);
    EXPECT_EQ(batched.stats().batch_mask_evals,
              batched.stats().compiled_mask_evals);
    EXPECT_EQ(per_query.stats().batch_mask_evals,
              per_query.stats().compiled_mask_evals);
    // Second identical batch: all memo hits, no new kernel work.
    const uint64_t evals = batched.stats().batch_mask_evals;
    const std::vector<DisclosureLabel> again = batched.LabelBatch(pool);
    for (size_t i = 0; i < pool.size(); ++i) EXPECT_EQ(again[i], got[i]);
    EXPECT_EQ(batched.stats().batch_mask_evals, evals);
  }
}

TEST(BatchKernelPropertyTest, PipelineBatchAgreesUnderInternerSaturation) {
  Rng rng(0xba7c'0005);
  std::vector<int> arities;
  cq::Schema schema = RandomSchema(&rng, 2, &arities);
  ViewCatalog catalog(&schema);
  BoundaryCatalog(&rng, &catalog, arities, 40);
  LabelingOptions options;
  options.max_interned_queries = 3;  // most of the batch goes stateless
  LabelingPipeline batched(&catalog, {}, options);
  LabelingPipeline reference(&catalog);
  std::vector<ConjunctiveQuery> pool;
  for (int i = 0; i < 20; ++i) pool.push_back(RandomQuery(&rng, arities));
  const std::vector<DisclosureLabel> got = batched.LabelBatch(pool);
  for (size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(got[i], reference.Label(pool[i])) << "query " << i;
  }
}

TEST(BatchKernelPropertyTest, ConcurrentLabelerBatchMatchesPipeline) {
  Rng rng(0xba7c'0006);
  for (const int views : {5, 65}) {
    std::vector<int> arities;
    cq::Schema schema = RandomSchema(&rng, 2, &arities);
    ViewCatalog catalog(&schema);
    BoundaryCatalog(&rng, &catalog, arities, views);

    std::vector<ConjunctiveQuery> warmup;
    for (int i = 0; i < 8; ++i) warmup.push_back(RandomQuery(&rng, arities));
    auto frozen = engine::FrozenCatalog::Build(&catalog, warmup);
    engine::ConcurrentLabeler labeler(frozen);
    engine::ConcurrentLabeler per_query(frozen);
    LabelingPipeline reference(&catalog);

    // Mix: warmup structures (frozen hits), novel ones, and batch-internal
    // duplicates — all three resolution tiers in one batch.
    std::vector<ConjunctiveQuery> pool = warmup;
    for (int i = 0; i < 24; ++i) pool.push_back(RandomQuery(&rng, arities));
    for (int i = 0; i < 6; ++i) {
      pool.push_back(pool[warmup.size() + static_cast<size_t>(i)]);
    }

    std::vector<const ConjunctiveQuery*> ptrs;
    for (const ConjunctiveQuery& query : pool) ptrs.push_back(&query);
    std::vector<DisclosureLabel> got(pool.size());
    labeler.LabelInto(ptrs, got.data());
    for (size_t i = 0; i < pool.size(); ++i) {
      EXPECT_EQ(got[i], per_query.Label(pool[i]))
          << "views=" << views << " query " << i;
      EXPECT_EQ(got[i], reference.Label(pool[i])) << "query " << i;
    }
    EXPECT_GT(labeler.stats().frozen_hits, 0u);
    EXPECT_GT(labeler.stats().batch_mask_evals, 0u);
    EXPECT_EQ(labeler.stats().batch_mask_evals,
              labeler.stats().compiled_mask_evals);
    EXPECT_EQ(per_query.stats().batch_mask_evals,
              per_query.stats().compiled_mask_evals);
    // Re-labeling the same batch resolves from the overlay memo.
    const uint64_t evals = labeler.stats().batch_mask_evals;
    std::vector<DisclosureLabel> again(pool.size());
    labeler.LabelInto(ptrs, again.data());
    for (size_t i = 0; i < pool.size(); ++i) EXPECT_EQ(again[i], got[i]);
    EXPECT_EQ(labeler.stats().batch_mask_evals, evals);
  }
}

TEST(BatchKernelPropertyTest, WarmBatchKernelIsAllocationFree) {
  Rng rng(0xba7c'0007);
  std::vector<int> arities;
  cq::Schema schema = RandomSchema(&rng, 2, &arities);
  ViewCatalog catalog(&schema);
  BoundaryCatalog(&rng, &catalog, arities, 128);
  const CompiledCatalogMatcher matcher =
      CompiledCatalogMatcher::Compile(catalog);
  ASSERT_EQ(matcher.max_mask_words(), 2);

  // Two relation buckets, evaluated alternately — the shape LabelBatch's
  // bucket loop produces with its hoisted buffer and persistent scratch.
  std::vector<std::vector<AtomPattern>> buckets(2);
  for (int relation = 0; relation < 2; ++relation) {
    for (int i = 0; i < 24; ++i) {
      buckets[static_cast<size_t>(relation)].push_back(
          RandomPattern(&rng, relation, arities[static_cast<size_t>(relation)]));
    }
  }
  BatchScratch scratch;
  std::vector<uint64_t> masks(
      24 * static_cast<size_t>(matcher.max_mask_words()), 0);
  std::vector<std::vector<uint64_t>> expected;
  for (const std::vector<AtomPattern>& bucket : buckets) {
    matcher.MatchMaskBatch(std::span<const AtomPattern>(bucket), masks.data(),
                           &scratch);
    expected.push_back(masks);
  }

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int rep = 0; rep < 20; ++rep) {
    for (size_t b = 0; b < buckets.size(); ++b) {
      matcher.MatchMaskBatch(std::span<const AtomPattern>(buckets[b]),
                             masks.data(), &scratch);
      ASSERT_EQ(masks, expected[b]);
    }
  }
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "warm MatchMaskBatch must not allocate";
}

// The engine's decisions reuse per-thread buffers. With every label a
// frozen-table hit and no shadow policy, a warm Submit allocates nothing,
// and a warm SubmitCoalesced wake over the same 4 principals allocates as
// much with 64 requests as with 256: only its per-principal grouping
// allocates, never anything per request.
TEST(BatchKernelPropertyTest, WarmDecisionsAllocateNothingPerRequest) {
  test::FbFixture fb;
  const std::vector<ConjunctiveQuery> pool =
      test::RandomWorkload(&fb.schema, 2, 256, 0xa110'c8ULL);
  engine::DisclosureEngine engine(
      /*db=*/nullptr, &fb.catalog,
      workload::PolicyGenerator(&fb.catalog, {}, 7).Next(), {}, pool);
  const std::string principals[4] = {"app-0", "app-1", "app-2", "app-3"};
  std::vector<engine::DisclosureEngine::SubmitRequest> requests;
  for (size_t i = 0; i < pool.size(); ++i) {
    requests.push_back({principals[i % 4], &pool[i]});
  }
  std::vector<bool> decisions;
  std::vector<uint64_t> epochs;
  engine.SubmitCoalesced(requests, &decisions, &epochs);  // warm-up wake

  auto allocations = [](auto&& run) {
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    run();
    g_count_allocs.store(false);
    return g_alloc_count.load();
  };
  const uint64_t wake_256 = allocations(
      [&] { engine.SubmitCoalesced(requests, &decisions, &epochs); });
  const uint64_t wake_64 = allocations([&] {
    engine.SubmitCoalesced(
        std::span<const engine::DisclosureEngine::SubmitRequest>(
            requests.data(), 64),
        &decisions, &epochs);
  });
  EXPECT_EQ(wake_64, wake_256);
  EXPECT_LE(wake_256, 4u) << "one grouping entry per principal at most";

  // One pass grows the label buffer to the pool's largest label; the next
  // pass is warm.
  auto submit_pool = [&] {
    for (size_t i = 0; i < pool.size(); ++i) {
      (void)engine.Submit(principals[i % 4], pool[i]);
    }
  };
  submit_pool();
  EXPECT_EQ(allocations(submit_pool), 0u) << "a warm Submit must not allocate";

  const engine::DisclosureEngine::EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.labeler.overlay_hits, 0u);
  EXPECT_EQ(stats.labeler.overlay_misses, 0u);
  EXPECT_EQ(stats.labeler.frozen_hits, 4 * 256u + 64u);
}

}  // namespace
}  // namespace fdc::label
