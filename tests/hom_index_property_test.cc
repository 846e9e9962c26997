// Agreement property suite for the predicate-indexed homomorphism engine:
// on randomized query pairs, the indexed search (per-predicate candidate
// buckets, constant filters, digest rejects) must return exactly the same
// existence answers as the seed linear-scan backtracking engine, and every
// witness mapping it produces must be a valid homomorphism. Seeds are fixed
// for reproducibility.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.h"
#include "cq/interned.h"
#include "cq/schema.h"
#include "rewriting/containment.h"
#include "rewriting/homomorphism.h"

namespace fdc::rewriting {
namespace {

using cq::Atom;
using cq::ConjunctiveQuery;
using cq::Term;

// A schema with several relations of mixed arity so the predicate index has
// real buckets to discriminate.
cq::Schema MakeWideSchema() {
  cq::Schema schema;
  (void)schema.AddRelation("R0", {"a"});
  (void)schema.AddRelation("R1", {"a", "b"});
  (void)schema.AddRelation("R2", {"a", "b", "c"});
  (void)schema.AddRelation("R3", {"a", "b"});
  return schema;
}

constexpr int kNumRelations = 4;
const int kArity[kNumRelations] = {1, 2, 3, 2};
const char* const kConstPool[3] = {"a", "b", "c"};

ConjunctiveQuery RandomQuery(Rng* rng, int max_atoms, int num_vars) {
  const int natoms = static_cast<int>(rng->Range(1, max_atoms));
  std::vector<Atom> atoms;
  std::vector<bool> used(num_vars, false);
  for (int i = 0; i < natoms; ++i) {
    const int relation = static_cast<int>(rng->Below(kNumRelations));
    std::vector<Term> terms;
    for (int p = 0; p < kArity[relation]; ++p) {
      if (rng->Chance(0.25)) {
        terms.push_back(Term::Const(kConstPool[rng->Below(3)]));
      } else {
        const int v = static_cast<int>(rng->Below(num_vars));
        used[v] = true;
        terms.push_back(Term::Var(v));
      }
    }
    atoms.emplace_back(relation, std::move(terms));
  }
  std::vector<Term> head;
  for (int v = 0; v < num_vars; ++v) {
    if (used[v] && rng->Chance(0.4)) head.push_back(Term::Var(v));
  }
  return ConjunctiveQuery("Q", std::move(head), std::move(atoms));
}

// Checks that `mapping` really is a homomorphism from `from` into the
// allowed atoms of `to` (and fixes distinguished vars when required).
void ExpectValidHomomorphism(const ConjunctiveQuery& from,
                             const ConjunctiveQuery& to,
                             const VarMapping& mapping,
                             const HomOptions& options,
                             const std::vector<bool>& allowed) {
  for (const Atom& a : from.atoms()) {
    Atom img(a.relation, {});
    for (const Term& t : a.terms) {
      if (t.is_const()) {
        img.terms.push_back(t);
      } else {
        ASSERT_LT(static_cast<size_t>(t.var()), mapping.size());
        ASSERT_TRUE(mapping[t.var()].has_value());
        img.terms.push_back(*mapping[t.var()]);
      }
    }
    bool found = false;
    for (size_t bi = 0; bi < to.atoms().size() && !found; ++bi) {
      if (!allowed.empty() && !allowed[bi]) continue;
      found = to.atoms()[bi] == img;
    }
    EXPECT_TRUE(found) << "image atom not present in target";
  }
  if (options.fix_distinguished) {
    for (int v : from.DistinguishedVars()) {
      ASSERT_LT(static_cast<size_t>(v), mapping.size());
      ASSERT_TRUE(mapping[v].has_value());
      EXPECT_EQ(*mapping[v], Term::Var(v));
    }
  }
}

void CheckAgreement(const ConjunctiveQuery& from, const ConjunctiveQuery& to,
                    HomOptions options, const std::vector<bool>& allowed) {
  options.engine = HomEngine::kLinear;
  const auto linear = FindHomomorphism(from, to, options, allowed);
  options.engine = HomEngine::kIndexed;
  const auto indexed = FindHomomorphism(from, to, options, allowed);
  ASSERT_EQ(linear.has_value(), indexed.has_value())
      << "engines disagree on existence";
  if (indexed.has_value()) {
    ExpectValidHomomorphism(from, to, *indexed, options, allowed);
  }
  if (linear.has_value()) {
    ExpectValidHomomorphism(from, to, *linear, options, allowed);
  }
}

TEST(HomIndexPropertyTest, EnginesAgreeOnRandomPairs) {
  Rng rng(0x1dee'0001);
  for (int trial = 0; trial < 400; ++trial) {
    const ConjunctiveQuery a = RandomQuery(&rng, 4, 4);
    const ConjunctiveQuery b = RandomQuery(&rng, 5, 4);
    CheckAgreement(a, b, {}, {});
  }
}

TEST(HomIndexPropertyTest, EnginesAgreeOnFoldingShapes) {
  // The folding workload: self-homomorphisms fixing distinguished vars with
  // one target atom excluded.
  Rng rng(0x1dee'0002);
  for (int trial = 0; trial < 200; ++trial) {
    const ConjunctiveQuery q = RandomQuery(&rng, 5, 4);
    for (size_t drop = 0; drop < q.atoms().size(); ++drop) {
      std::vector<bool> allowed(q.atoms().size(), true);
      allowed[drop] = false;
      HomOptions options;
      options.fix_distinguished = true;
      CheckAgreement(q, q, options, allowed);
    }
  }
}

TEST(HomIndexPropertyTest, EnginesAgreeOnContainmentSeeds) {
  // The containment workload: head-aligned seeds (IsContainedIn's shape).
  Rng rng(0x1dee'0003);
  for (int trial = 0; trial < 300; ++trial) {
    const ConjunctiveQuery q1 = RandomQuery(&rng, 4, 4);
    const ConjunctiveQuery q2 = RandomQuery(&rng, 4, 4);
    if (q1.head().size() != q2.head().size()) continue;
    HomOptions options;
    for (size_t i = 0; i < q2.head().size(); ++i) {
      options.seed.emplace_back(q2.head()[i].var(), q1.head()[i]);
    }
    CheckAgreement(q2, q1, options, {});
  }
}

TEST(HomIndexPropertyTest, InternedEntryPointAgreesWithLinear) {
  Rng rng(0x1dee'0004);
  cq::QueryInterner interner;
  for (int trial = 0; trial < 300; ++trial) {
    const ConjunctiveQuery a = RandomQuery(&rng, 4, 4);
    const ConjunctiveQuery b = RandomQuery(&rng, 5, 4);
    const cq::InternedQuery* ia = interner.TryIntern(a, SIZE_MAX);
    const cq::InternedQuery* ib = interner.TryIntern(b, SIZE_MAX);
    ASSERT_NE(ia, nullptr);
    ASSERT_NE(ib, nullptr);
    HomOptions linear_options;
    linear_options.engine = HomEngine::kLinear;
    // Compare on the canonical forms: interning canonicalizes, and
    // homomorphism existence is invariant under isomorphism.
    const bool expected =
        FindHomomorphism(ia->query(), ib->query(), linear_options).has_value();
    EXPECT_EQ(FindHomomorphismInterned(*ia, *ib).has_value(), expected);
  }
}

TEST(HomIndexPropertyTest, BudgetExhaustionIsReported) {
  cq::Schema schema = MakeWideSchema();
  (void)schema;
  // A target with many interchangeable atoms forces real search.
  std::vector<Atom> from_atoms;
  std::vector<Atom> to_atoms;
  for (int i = 0; i < 6; ++i) {
    from_atoms.emplace_back(1, std::vector<Term>{Term::Var(i), Term::Var(i + 1)});
    to_atoms.emplace_back(
        1, std::vector<Term>{Term::Var(10 + i), Term::Var(11 + i)});
  }
  // Break the chain in the target so full mapping requires backtracking.
  ConjunctiveQuery from("F", {}, from_atoms);
  ConjunctiveQuery to("T", {}, to_atoms);

  HomOptions options;
  HomStats stats;
  options.stats = &stats;
  options.max_steps = 2;
  const auto bounded = FindHomomorphism(from, to, options);
  // With a 2-step budget on a 6-atom search, the engine must either finish
  // trivially or report exhaustion; it must never loop unboundedly.
  if (!bounded.has_value()) {
    EXPECT_TRUE(stats.budget_exhausted || stats.steps <= 2);
  }

  options.max_steps = 0;
  HomStats full_stats;
  options.stats = &full_stats;
  const auto unbounded = FindHomomorphism(from, to, options);
  EXPECT_TRUE(unbounded.has_value());  // chains embed into chains
  EXPECT_FALSE(full_stats.budget_exhausted);
  EXPECT_GT(full_stats.steps, 0u);
}

TEST(HomIndexPropertyTest, IndexedIsContainedInMatchesKnownFacts) {
  // Containment sanity on the paper's examples now that IsContainedIn runs
  // through the indexed engine by default.
  cq::Schema schema;
  (void)schema.AddRelation("Meetings", {"time", "person"});
  ConjunctiveQuery sel("Q", {Term::Var(0)},
                       {Atom(0, {Term::Var(0), Term::Const("Cathy")})});
  ConjunctiveQuery all("Q", {Term::Var(0)},
                       {Atom(0, {Term::Var(0), Term::Var(1)})});
  EXPECT_TRUE(IsContainedIn(sel, all));
  EXPECT_FALSE(IsContainedIn(all, sel));
}

}  // namespace
}  // namespace fdc::rewriting
