// Cross-stack differential suite for the wide (multi-word) mask path: the
// compiled catalog matcher, the label representation, the policy checker
// and the reference monitor must agree bit-for-bit with the seed per-view
// AtomRewritable oracle for *any* number of views per relation — no views
// excluded, no over-labeling — erasing the former 32-views-per-relation
// packed edge. The suite explicitly pins the 31/32/33/63/64/65 view-count
// boundaries (the packed capacity and the word width), plus 128 views:
//
//   * CompiledCatalogMatcher::MatchMaskWords ≡ the raw AtomRewritable loop
//     ≡ LabelingPipeline::LabelWide over random schemas/catalogs/patterns at
//     1–129 views per relation, and its low word truncated to 32 bits is
//     the packed oracle's mask;
//   * LabelingPipeline::Label (per-view) and engine::ConcurrentLabeler
//     labels — through Label and the batched walk, and through every
//     labeler tier (frozen, overlay, novel, stateless) — carry the same
//     per-atom ℓ+ bit sets as the LabelWide oracle, and their lattice
//     order (Leq) coincides;
//   * SecurityPolicy / ReferenceMonitor / PolicyStore decide identically to
//     a set-based oracle monitor over the raw ℓ+ view-id sets;
//   * the steady-state wide kernel (MatchMaskWords into a warm buffer)
//     makes zero heap allocations (counted via a global operator new
//     override).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cq/pattern.h"
#include "cq/schema.h"
#include "engine/labeler.h"
#include "engine/snapshot.h"
#include "label/compiled_matcher.h"
#include "label/dissect.h"
#include "label/pipeline.h"
#include "label/view_catalog.h"
#include "policy/policy.h"
#include "policy/policy_analysis.h"
#include "policy/policy_store.h"
#include "policy/reference_monitor.h"
#include "rewriting/atom_rewriting.h"

// ---------------------------------------------------------------------------
// Allocation counting: every operator new in this binary bumps the counter
// when armed. Used to prove the warm wide kernels allocate nothing.
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

// Registers exactly `views_per_relation` random views on every relation, so
// a chosen view-count boundary is hit on *each* relation, not just in
// aggregate.
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

// The seed-of-seeds: the raw per-view AtomRewritable loop with *no* view
// cap — every view's bit, in multi-word form.
std::vector<uint64_t> OracleWords(const ViewCatalog& catalog,
                                  const AtomPattern& pattern, int words) {
  std::vector<uint64_t> out(static_cast<size_t>(words), 0);
  for (int view_id : catalog.ViewsOfRelation(pattern.relation)) {
    const SecurityView& view = catalog.view(view_id);
    if (rewriting::AtomRewritable(pattern, view.pattern)) {
      out[static_cast<size_t>(view.bit) / 64] |= uint64_t{1}
                                                 << (view.bit % 64);
    }
  }
  return out;
}

// The packed seed guard: the same loop with views at bit ≥ 32 excluded.
uint32_t PackedOracle(const ViewCatalog& catalog, const AtomPattern& pattern) {
  uint32_t mask = 0;
  for (int view_id : catalog.ViewsOfRelation(pattern.relation)) {
    const SecurityView& view = catalog.view(view_id);
    if (view.bit < kPackedViewCapacity &&
        rewriting::AtomRewritable(pattern, view.pattern)) {
      mask |= uint32_t{1} << view.bit;
    }
  }
  return mask;
}

// One dissected atom's ℓ+ as a (relation, trimmed bit words) pair —
// the representation-independent form both label types reduce to.
struct AtomBits {
  int relation = -1;
  std::vector<uint64_t> bits;

  bool operator==(const AtomBits& other) const {
    return relation == other.relation && bits == other.bits;
  }
  bool operator<(const AtomBits& other) const {
    if (relation != other.relation) return relation < other.relation;
    return bits < other.bits;
  }
};

std::vector<AtomBits> CanonicalAtoms(const DisclosureLabel& label) {
  std::vector<AtomBits> out;
  for (const PackedAtomLabel& atom : label.atoms()) {
    out.push_back({static_cast<int>(atom.relation()),
                   {static_cast<uint64_t>(atom.mask())}});
  }
  for (const WideAtomLabel& atom : label.wide_atoms()) {
    out.push_back({atom.relation, atom.mask});
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<AtomBits> CanonicalAtoms(const WideLabel& label) {
  std::vector<AtomBits> out;
  for (const WideAtomLabel& atom : label.atoms()) {
    out.push_back({atom.relation, atom.mask});
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// Random multi-atom query (1-3 atoms, shared variables) so folding and
// dissection are on the tested path.
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

// The packed-capacity and word-width boundaries, pinned explicitly: today's
// packed edge (31/32/33), the word edge (63/64/65), a deep two-word
// catalog (128), and the first three-word one (129) for the W-word kernel.
// The low counts keep the packed regression honest.
const int kBoundaryViewCounts[] = {1, 5, 31, 32, 33, 63, 64, 65, 128, 129};

TEST(WideMatcherPropertyTest, MatchesSeedOracleAcrossViewCountBoundaries) {
  Rng rng(0x71de'0001);
  for (const int views : kBoundaryViewCounts) {
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<int> arities;
      const int num_relations = 1 + static_cast<int>(rng.Below(2));
      cq::Schema schema = RandomSchema(&rng, num_relations, &arities);
      ViewCatalog catalog(&schema);
      BoundaryCatalog(&rng, &catalog, arities, views);
      ASSERT_EQ(catalog.MaxViewsPerRelation(), views);
      const CompiledCatalogMatcher matcher =
          CompiledCatalogMatcher::Compile(catalog);
      const int expected_words = (views + 63) / 64;
      std::vector<uint64_t> got(static_cast<size_t>(expected_words), ~0ULL);
      for (int i = 0; i < 40; ++i) {
        const int relation = static_cast<int>(rng.Below(arities.size()));
        const AtomPattern pattern =
            RandomPattern(&rng, relation, arities[relation]);
        ASSERT_EQ(matcher.MaskWords(relation), expected_words);
        EXPECT_EQ(matcher.UsesWideMask(relation),
                  views > kPackedViewCapacity);
        const std::vector<uint64_t> oracle =
            OracleWords(catalog, pattern, expected_words);
        // Full wide mask: every view bit, none excluded.
        matcher.MatchMaskWords(pattern, got.data());
        EXPECT_EQ(got, oracle) << "views=" << views << " trial=" << trial
                               << " pattern " << pattern.Key();
        // Packed contract: the low word's low 32 bits are the packed
        // seed guard's mask.
        EXPECT_EQ(static_cast<uint32_t>(got[0]),
                  PackedOracle(catalog, pattern))
            << "views=" << views << " pattern " << pattern.Key();
      }
    }
  }
}

// The label of `query` against the LabelWide oracle: same ℓ+ bit sets per
// atom, and packed atoms only for narrow relations, wide atoms only beyond
// the packed capacity.
void ExpectMatchesWideOracle(const ViewCatalog& catalog,
                             const LabelingPipeline& oracle,
                             const ConjunctiveQuery& query,
                             const DisclosureLabel& label,
                             const std::string& where) {
  const WideLabel wide = oracle.LabelWide(query);
  EXPECT_EQ(label.top(), wide.top()) << where;
  EXPECT_EQ(CanonicalAtoms(label), CanonicalAtoms(wide)) << where;
  for (const PackedAtomLabel& atom : label.atoms()) {
    EXPECT_LE(catalog.ViewsOfRelation(atom.relation()).size(),
              static_cast<size_t>(kPackedViewCapacity))
        << where;
  }
  for (const WideAtomLabel& atom : label.wide_atoms()) {
    EXPECT_GT(catalog.ViewsOfRelation(atom.relation).size(),
              static_cast<size_t>(kPackedViewCapacity))
        << where;
  }
}

TEST(WideMatcherPropertyTest, PipelineLabelsMatchWideOracle) {
  Rng rng(0x71de'0002);
  for (const int views : {5, 33, 65, 128}) {
    std::vector<int> arities;
    cq::Schema schema = RandomSchema(&rng, 2, &arities);
    ViewCatalog catalog(&schema);
    BoundaryCatalog(&rng, &catalog, arities, views);
    LabelingPipeline pipeline(&catalog);
    LabelingPipeline oracle(&catalog);
    std::vector<ConjunctiveQuery> pool;
    for (int i = 0; i < 60; ++i) pool.push_back(RandomQuery(&rng, arities));
    for (size_t i = 0; i < pool.size(); ++i) {
      ExpectMatchesWideOracle(
          catalog, oracle, pool[i], pipeline.Label(pool[i]),
          "pipeline views=" + std::to_string(views) +
              " query " + std::to_string(i));
    }
    // The engine's labeler over the same catalog, through every tier: a
    // quarter of the pool is frozen warmup, the overlay's structure cap
    // turns most novel structures stateless, second passes hit the
    // overlay, and one labeler runs Label while the other runs the batched
    // walk, LabelInto.
    const std::span<const ConjunctiveQuery> warmup(pool.data(), 15);
    const auto frozen = engine::FrozenCatalog::Build(&catalog, warmup);
    engine::ConcurrentLabelerOptions options;
    options.max_interned_queries = 20;
    engine::ConcurrentLabeler single(frozen, options);
    engine::ConcurrentLabeler batched(frozen, options);
    std::vector<const ConjunctiveQuery*> ptrs;
    for (const ConjunctiveQuery& query : pool) ptrs.push_back(&query);
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<DisclosureLabel> by_batch(pool.size());
      batched.LabelInto(ptrs, by_batch.data());
      for (size_t i = 0; i < pool.size(); ++i) {
        const std::string where = " views=" + std::to_string(views) +
                                  " pass " + std::to_string(pass) +
                                  " query " + std::to_string(i);
        ExpectMatchesWideOracle(catalog, oracle, pool[i],
                                single.Label(pool[i]), "Label" + where);
        ExpectMatchesWideOracle(catalog, oracle, pool[i], by_batch[i],
                                "LabelInto" + where);
      }
    }
    for (const engine::ConcurrentLabeler* labeler : {&single, &batched}) {
      const engine::ConcurrentLabeler::Stats stats = labeler->stats();
      EXPECT_GT(stats.frozen_hits, 0u) << "views=" << views;
      EXPECT_GT(stats.overlay_chunk_hits, 0u) << "views=" << views;
      EXPECT_GT(stats.overlay_misses, 0u) << "views=" << views;
      EXPECT_GT(stats.stateless_fallbacks, 0u) << "views=" << views;
      EXPECT_EQ(stats.batch_mask_evals, stats.compiled_mask_evals);
      if (views > kPackedViewCapacity) {
        EXPECT_GT(stats.wide_mask_evals, 0u) << "views=" << views;
      } else {
        EXPECT_EQ(stats.wide_mask_evals, 0u) << "views=" << views;
      }
    }
  }
}

TEST(WideMatcherPropertyTest, LabelOrderAgreesWithWideOracle) {
  Rng rng(0x71de'0003);
  for (const int views : {31, 33, 64, 65}) {
    std::vector<int> arities;
    cq::Schema schema = RandomSchema(&rng, 2, &arities);
    ViewCatalog catalog(&schema);
    BoundaryCatalog(&rng, &catalog, arities, views);
    LabelingPipeline pipeline(&catalog);
    LabelingPipeline oracle(&catalog);
    std::vector<ConjunctiveQuery> pool;
    for (int i = 0; i < 24; ++i) pool.push_back(RandomQuery(&rng, arities));
    for (size_t a = 0; a < pool.size(); ++a) {
      for (size_t b = 0; b < pool.size(); ++b) {
        EXPECT_EQ(pipeline.Label(pool[a]).Leq(pipeline.Label(pool[b])),
                  oracle.LabelWide(pool[a]).Leq(oracle.LabelWide(pool[b])))
            << "views=" << views << " pair (" << a << ", " << b << ")";
      }
    }
  }
}

// Set-based oracle of the §6.2 decision: atom ⪯ Wi iff ℓ+(atom) ∩ Wi ≠ ∅,
// computed straight from view-id sets with no bit packing anywhere.
uint64_t OracleAllowedPartitions(const ViewCatalog& catalog,
                                 const std::vector<policy::Partition>& parts,
                                 const ConjunctiveQuery& query,
                                 uint64_t candidates) {
  for (const AtomPattern& atom : Dissect(query)) {
    std::set<int> plus;
    for (int view_id : catalog.ViewsOfRelation(atom.relation)) {
      if (rewriting::AtomRewritable(atom, catalog.view(view_id).pattern)) {
        plus.insert(view_id);
      }
    }
    uint64_t next = 0;
    for (size_t p = 0; p < parts.size(); ++p) {
      if ((candidates & (1ULL << p)) == 0) continue;
      for (int view_id : parts[p].view_ids) {
        if (plus.contains(view_id)) {
          next |= 1ULL << p;
          break;
        }
      }
    }
    candidates = next;
    if (candidates == 0) break;
  }
  return candidates;
}

TEST(WideMatcherPropertyTest, MonitorDecisionsMatchSetOracleBeyondPackedEdge) {
  Rng rng(0x71de'0004);
  for (const int views : {33, 65, 128}) {
    std::vector<int> arities;
    cq::Schema schema = RandomSchema(&rng, 2, &arities);
    ViewCatalog catalog(&schema);
    BoundaryCatalog(&rng, &catalog, arities, views);
    // Random partitions drawing freely from the whole catalog — most picks
    // land on views with bit ≥ 32, exactly the formerly excluded range.
    std::vector<policy::Partition> partitions;
    const int num_partitions = 2 + static_cast<int>(rng.Below(4));
    for (int p = 0; p < num_partitions; ++p) {
      policy::Partition part;
      part.name = "p" + std::to_string(p);
      std::set<int> ids;
      const int elements = 3 + static_cast<int>(rng.Below(12));
      for (int e = 0; e < elements; ++e) {
        ids.insert(static_cast<int>(rng.Below(catalog.size())));
      }
      part.view_ids.assign(ids.begin(), ids.end());
      partitions.push_back(std::move(part));
    }
    auto policy = policy::SecurityPolicy::Compile(catalog, partitions);
    ASSERT_TRUE(policy.ok());

    LabelingPipeline pipeline(&catalog);
    policy::ReferenceMonitor monitor(&*policy);
    policy::PrincipalState state = monitor.InitialState();
    uint64_t oracle_state = policy->AllPartitionsMask();
    policy::PolicyStore store(schema.NumRelations());
    ASSERT_TRUE(store.AddPrincipal(*policy).ok());

    for (int i = 0; i < 120; ++i) {
      const ConjunctiveQuery query = RandomQuery(&rng, arities);
      const DisclosureLabel label = pipeline.Label(query);
      const uint64_t oracle_surviving =
          OracleAllowedPartitions(catalog, partitions, query, oracle_state);
      const bool expected = oracle_surviving != 0;
      EXPECT_EQ(monitor.Submit(&state, label), expected)
          << "views=" << views << " query " << i;
      EXPECT_EQ(store.Submit(0, label), expected);
      if (expected) oracle_state = oracle_surviving;
      ASSERT_EQ(state.consistent, oracle_state);
      ASSERT_EQ(store.ConsistentPartitions(0), oracle_state);
    }
  }
}

TEST(WideMatcherPropertyTest, RedundantPartitionAnalysisSeesHighBitViews) {
  // Regression: partition dominance must compare full mask words, not the
  // packed low 32 bits — a partition whose only view sits at bit ≥ 32 used
  // to read as all-zero and be reported redundant.
  Rng rng(0x71de'0006);
  std::vector<int> arities;
  cq::Schema schema = RandomSchema(&rng, 1, &arities);
  ViewCatalog catalog(&schema);
  BoundaryCatalog(&rng, &catalog, arities, 40);
  const auto& ids = catalog.ViewsOfRelation(0);
  auto policy = policy::SecurityPolicy::Compile(
      catalog, {{"high-bit-only", {ids[35]}}, {"low-bit-only", {ids[0]}}});
  ASSERT_TRUE(policy.ok());
  // Neither partition's view set contains the other's, so neither is
  // redundant; seeing bit 35 as empty would flag "high-bit-only".
  EXPECT_TRUE(policy::FindRedundantPartitions(*policy).empty());
}

TEST(WideMatcherPropertyTest, WarmWideKernelsAreAllocationFree) {
  Rng rng(0x71de'0005);
  std::vector<int> arities;
  cq::Schema schema = RandomSchema(&rng, 2, &arities);
  ViewCatalog catalog(&schema);
  BoundaryCatalog(&rng, &catalog, arities, 128);
  const CompiledCatalogMatcher matcher =
      CompiledCatalogMatcher::Compile(catalog);
  ASSERT_EQ(matcher.max_mask_words(), 2);

  std::vector<AtomPattern> patterns;
  for (int i = 0; i < 16; ++i) {
    const int relation = static_cast<int>(rng.Below(arities.size()));
    patterns.push_back(RandomPattern(&rng, relation, arities[relation]));
  }
  // Warm: a caller-owned mask buffer sized once to max_mask_words.
  std::vector<uint64_t> buffer(
      static_cast<size_t>(matcher.max_mask_words()), 0);
  std::vector<std::vector<uint64_t>> expected;
  for (const AtomPattern& pattern : patterns) {
    matcher.MatchMaskWords(pattern, buffer.data());
    expected.push_back(buffer);
  }

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int rep = 0; rep < 20; ++rep) {
    for (size_t i = 0; i < patterns.size(); ++i) {
      matcher.MatchMaskWords(patterns[i], buffer.data());
      ASSERT_EQ(buffer, expected[i]);
    }
  }
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "warm MatchMaskWords must not allocate";
}

}  // namespace
}  // namespace fdc::label
