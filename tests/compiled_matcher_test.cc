// Property suite for the compiled catalog matcher and the hom-scratch
// arena (PR 3's two hot-path kernels):
//
//   * the CompiledCatalogMatcher must be mask-for-mask identical to the
//     raw per-view AtomRewritable loop over randomized schemas, catalogs,
//     and patterns (same oracle style as hom_index_property_test.cc), and
//     the engine's labeler (through the matcher) must produce the same
//     whole-query labels as LabelingPipeline::Label (per-view, no matcher);
//   * the ≥32-views-per-relation OutOfRange guard must yield defined,
//     agreeing (and strictly-higher-label) packed masks instead of the
//     seed's undefined shift;
//   * a warm HomScratch must make existence-only homomorphism searches and
//     containment checks genuinely allocation-free (counted via a global
//     operator new override).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cq/pattern.h"
#include "cq/schema.h"
#include "engine/labeler.h"
#include "engine/snapshot.h"
#include "label/compiled_matcher.h"
#include "label/pipeline.h"
#include "label/view_catalog.h"
#include "rewriting/atom_rewriting.h"
#include "rewriting/containment.h"
#include "rewriting/homomorphism.h"

// ---------------------------------------------------------------------------
// Allocation counting: every operator new in this binary bumps the counter
// when armed. Used to prove the warm-scratch paths allocate nothing.
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
const char* const kConstPool[3] = {"a", "b", "c"};

// A random schema with `num_relations` relations of arity 1..kMaxArity.
cq::Schema RandomSchema(Rng* rng, int num_relations,
                        std::vector<int>* arities) {
  cq::Schema schema;
  for (int r = 0; r < num_relations; ++r) {
    const int arity = static_cast<int>(rng->Range(1, kMaxArity));
    std::vector<std::string> cols;
    for (int c = 0; c < arity; ++c) cols.push_back("c" + std::to_string(c));
    (void)schema.AddRelation("R" + std::to_string(r), cols);
    arities->push_back(arity);
  }
  return schema;
}

// A random single-atom pattern over relation `r`: constants, repeated
// variables, and a random distinguished set. Normalized via FromAtom.
AtomPattern RandomPattern(Rng* rng, int relation, int arity) {
  std::vector<Term> terms;
  const int num_vars = 1 + static_cast<int>(rng->Below(arity));
  for (int p = 0; p < arity; ++p) {
    if (rng->Chance(0.3)) {
      terms.push_back(Term::Const(kConstPool[rng->Below(3)]));
    } else {
      terms.push_back(Term::Var(static_cast<int>(rng->Below(num_vars))));
    }
  }
  std::vector<bool> distinguished(num_vars, false);
  for (int v = 0; v < num_vars; ++v) distinguished[v] = rng->Chance(0.5);
  return AtomPattern::FromAtom(Atom(relation, std::move(terms)),
                               distinguished);
}

// Registers `num_views` random views (deduplicating patterns the catalog
// would accept twice under different names — duplicates are legal but make
// the masks trivially equal, so keep some variety).
void RandomCatalog(Rng* rng, ViewCatalog* catalog,
                   const std::vector<int>& arities, int num_views) {
  for (int k = 0; k < num_views; ++k) {
    const int relation = static_cast<int>(rng->Below(arities.size()));
    const AtomPattern pattern =
        RandomPattern(rng, relation, arities[relation]);
    (void)catalog->AddView("v" + std::to_string(k), pattern.ToQuery("V"));
  }
}

// The seed-of-seeds: a raw AtomRewritable loop with the packed 32-view
// guard, against which the compiled kernel is compared.
uint32_t OracleMask(const ViewCatalog& catalog, const AtomPattern& pattern) {
  uint32_t mask = 0;
  for (int view_id : catalog.ViewsOfRelation(pattern.relation)) {
    const SecurityView& view = catalog.view(view_id);
    if (view.bit < 32 &&
        rewriting::AtomRewritable(pattern, view.pattern)) {
      mask |= uint32_t{1} << view.bit;
    }
  }
  return mask;
}

// The matcher's packed contract: the low 32 bits of the full mask (word 0)
// that MatchMaskWords writes.
uint32_t PackedMask(const CompiledCatalogMatcher& matcher,
                    const AtomPattern& pattern) {
  std::vector<uint64_t> words(
      static_cast<size_t>(matcher.MaskWords(pattern.relation)));
  matcher.MatchMaskWords(pattern, words.data());
  return static_cast<uint32_t>(words[0]);
}

TEST(CompiledMatcherTest, MatchesSeedKernelsOnRandomCatalogs) {
  Rng rng(0xc0de'0001);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<int> arities;
    const int num_relations = 1 + static_cast<int>(rng.Below(4));
    cq::Schema schema = RandomSchema(&rng, num_relations, &arities);
    ViewCatalog catalog(&schema);
    RandomCatalog(&rng, &catalog, arities,
                  2 + static_cast<int>(rng.Below(20)));
    const CompiledCatalogMatcher matcher =
        CompiledCatalogMatcher::Compile(catalog);
    for (int i = 0; i < 40; ++i) {
      const int relation = static_cast<int>(rng.Below(arities.size()));
      const AtomPattern pattern =
          RandomPattern(&rng, relation, arities[relation]);
      const uint32_t oracle = OracleMask(catalog, pattern);
      EXPECT_EQ(PackedMask(matcher, pattern), oracle)
          << "compiled net disagrees with per-view loop, trial " << trial
          << " pattern " << pattern.Key();
    }
  }
}

TEST(CompiledMatcherTest, PipelineLabelsIdenticalWithAndWithoutMatcher) {
  Rng rng(0xc0de'0002);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int> arities;
    cq::Schema schema = RandomSchema(&rng, 3, &arities);
    ViewCatalog catalog(&schema);
    RandomCatalog(&rng, &catalog, arities, 12);
    engine::ConcurrentLabeler compiled(engine::FrozenCatalog::Build(&catalog));
    const LabelingPipeline per_view(&catalog);
    for (int i = 0; i < 40; ++i) {
      // Random multi-atom queries (1-3 atoms, shared variables) so folding
      // and dissection run too.
      const int natoms = 1 + static_cast<int>(rng.Below(3));
      std::vector<Atom> atoms;
      std::vector<bool> used(4, false);
      for (int a = 0; a < natoms; ++a) {
        const int relation = static_cast<int>(rng.Below(arities.size()));
        std::vector<Term> terms;
        for (int p = 0; p < arities[relation]; ++p) {
          if (rng.Chance(0.25)) {
            terms.push_back(Term::Const(kConstPool[rng.Below(3)]));
          } else {
            const int v = static_cast<int>(rng.Below(4));
            used[v] = true;
            terms.push_back(Term::Var(v));
          }
        }
        atoms.emplace_back(relation, std::move(terms));
      }
      std::vector<Term> head;
      for (int v = 0; v < 4; ++v) {
        if (used[v] && rng.Chance(0.4)) head.push_back(Term::Var(v));
      }
      const ConjunctiveQuery query("Q", std::move(head), std::move(atoms));
      EXPECT_EQ(compiled.Label(query), per_view.Label(query))
          << "trial " << trial << " query " << i;
    }
    EXPECT_GT(compiled.stats().compiled_mask_evals, 0u);
  }
}

TEST(CompiledMatcherTest, Beyond32ViewsPerRelationIsDefinedAndStricter) {
  cq::Schema schema;
  (void)schema.AddRelation("R", {"x", "y"});
  ViewCatalog catalog(&schema);
  // Bit 0: the full scan (every pattern's ℓ+ contains it). Bits 1..39:
  // constant-selecting views; bits ≥ 32 cannot live in a packed mask.
  ASSERT_TRUE(catalog.AddViewText("full", "V(x, y) :- R(x, y)").ok());
  for (int k = 1; k <= 39; ++k) {
    ASSERT_TRUE(catalog
                    .AddViewText("sel" + std::to_string(k),
                                 "V(x) :- R(x, 'k" + std::to_string(k) + "')")
                    .ok());
  }
  ASSERT_GT(catalog.MaxViewsPerRelation(), 32);
  const CompiledCatalogMatcher matcher =
      CompiledCatalogMatcher::Compile(catalog);

  auto masks_for = [&](const std::string& constant) {
    AtomPattern pattern = AtomPattern::FromAtom(
        Atom(0, {Term::Var(0), Term::Const(constant)}), {true});
    const uint32_t compiled = PackedMask(matcher, pattern);
    EXPECT_EQ(compiled, OracleMask(catalog, pattern))
        << "kernels disagree for '" << constant << "'";
    return compiled;
  };

  // A view representable in the packed mask: ℓ+ = {full, sel5}.
  EXPECT_EQ(masks_for("k5"), (uint32_t{1} << 0) | (uint32_t{1} << 5));
  // sel35 holds bit 35 — excluded from the packed mask, so ℓ+ shrinks to
  // {full}: a strictly higher (stricter) label, never a looser one, and no
  // undefined shift anywhere.
  EXPECT_EQ(masks_for("k35"), uint32_t{1} << 0);
  // The full mask carries bit 35 exactly; the relation's labels ride in
  // wide atoms, so no label drops it.
  ASSERT_TRUE(matcher.UsesWideMask(0));
  ASSERT_EQ(matcher.MaskWords(0), 1);
  uint64_t full = 0;
  matcher.MatchMaskWords(
      AtomPattern::FromAtom(Atom(0, {Term::Var(0), Term::Const("k35")}),
                            {true}),
      &full);
  EXPECT_EQ(full, (uint64_t{1} << 0) | (uint64_t{1} << 35));
}

TEST(CompiledMatcherTest, WarmScratchSearchesAreAllocationFree) {
  // Chain queries force a real (multi-candidate) backtracking search.
  std::vector<Atom> from_atoms;
  std::vector<Atom> to_atoms;
  for (int i = 0; i < 5; ++i) {
    from_atoms.emplace_back(
        0, std::vector<Term>{Term::Var(i), Term::Var(i + 1)});
    to_atoms.emplace_back(
        0, std::vector<Term>{Term::Var(10 + i), Term::Var(11 + i)});
  }
  const ConjunctiveQuery from("F", {}, from_atoms);
  const ConjunctiveQuery to("T", {}, to_atoms);

  rewriting::HomScratch scratch;
  rewriting::HomOptions options;
  options.scratch = &scratch;
  // Warm: first search sizes every buffer.
  ASSERT_TRUE(rewriting::ExistsHomomorphism(from, to, options));
  ASSERT_GT(scratch.uses, 0u);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(rewriting::ExistsHomomorphism(from, to, options));
  }
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "warm ExistsHomomorphism must not allocate";

  // Containment with head alignment through the same arena: warm once,
  // then steady-state IsContainedIn is allocation-free too.
  const ConjunctiveQuery q1(
      "Q", {Term::Var(0)},
      {Atom(0, {Term::Var(0), Term::Const("a")}),
       Atom(0, {Term::Var(0), Term::Var(1)})});
  const ConjunctiveQuery q2("Q", {Term::Var(0)},
                            {Atom(0, {Term::Var(0), Term::Var(1)})});
  ASSERT_TRUE(rewriting::IsContainedIn(q1, q2, &scratch));

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(rewriting::IsContainedIn(q1, q2, &scratch));
    ASSERT_FALSE(rewriting::IsContainedIn(q2, q1, &scratch));
  }
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "warm IsContainedIn must not allocate";
}

TEST(CompiledMatcherTest, MatcherEvaluationIsAllocationFree) {
  Rng rng(0xc0de'0003);
  std::vector<int> arities;
  cq::Schema schema = RandomSchema(&rng, 2, &arities);
  ViewCatalog catalog(&schema);
  RandomCatalog(&rng, &catalog, arities, 16);
  const CompiledCatalogMatcher matcher =
      CompiledCatalogMatcher::Compile(catalog);
  std::vector<AtomPattern> patterns;
  for (int i = 0; i < 16; ++i) {
    const int relation = static_cast<int>(rng.Below(arities.size()));
    patterns.push_back(RandomPattern(&rng, relation, arities[relation]));
  }
  ASSERT_EQ(matcher.max_mask_words(), 1);
  std::vector<uint64_t> expected;
  for (const AtomPattern& pattern : patterns) {
    uint64_t mask = 0;
    matcher.MatchMaskWords(pattern, &mask);
    expected.push_back(mask);
  }
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int rep = 0; rep < 20; ++rep) {
    for (size_t i = 0; i < patterns.size(); ++i) {
      uint64_t mask = ~0ULL;
      matcher.MatchMaskWords(patterns[i], &mask);
      ASSERT_EQ(mask, expected[i]);
    }
  }
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u) << "MatchMaskWords must not allocate";
}

}  // namespace
}  // namespace fdc::label
