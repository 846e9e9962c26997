#include "cq/canonical.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "cq/pattern.h"
#include "test_util.h"

namespace fdc::cq {
namespace {

class CanonicalTest : public ::testing::Test {
 protected:
  Schema schema_ = test::MakePaperSchema();
};

TEST_F(CanonicalTest, VariableRenamingInvariance) {
  ConjunctiveQuery a = test::Q("Q(x) :- Meetings(x, y)", schema_);
  ConjunctiveQuery b = test::Q("Q(u) :- Meetings(u, v)", schema_);
  EXPECT_EQ(CanonicalKey(a), CanonicalKey(b));
}

TEST_F(CanonicalTest, AtomOrderInvariance) {
  ConjunctiveQuery a =
      test::Q("Q(x) :- Meetings(x, y), Contacts(y, w, z)", schema_);
  ConjunctiveQuery b =
      test::Q("Q(x) :- Contacts(y, w, z), Meetings(x, y)", schema_);
  EXPECT_EQ(CanonicalKey(a), CanonicalKey(b));
}

TEST_F(CanonicalTest, DistinguishesDifferentQueries) {
  ConjunctiveQuery a = test::Q("Q(x) :- Meetings(x, y)", schema_);
  ConjunctiveQuery b = test::Q("Q(y) :- Meetings(x, y)", schema_);
  EXPECT_NE(CanonicalKey(a), CanonicalKey(b));
}

TEST_F(CanonicalTest, DistinguishesConstants) {
  ConjunctiveQuery a = test::Q("Q(x) :- Meetings(x, 'A')", schema_);
  ConjunctiveQuery b = test::Q("Q(x) :- Meetings(x, 'B')", schema_);
  EXPECT_NE(CanonicalKey(a), CanonicalKey(b));
}

TEST_F(CanonicalTest, SelfJoinOrderInvariance) {
  ConjunctiveQuery a =
      test::Q("Q(t) :- Meetings(t, p), Meetings(t2, p)", schema_);
  ConjunctiveQuery b =
      test::Q("Q(t) :- Meetings(s2, q), Meetings(t, q)", schema_);
  // Same shape: one distinguished-time atom and one existential-time atom
  // sharing the person.
  EXPECT_EQ(CanonicalKey(a), CanonicalKey(b));
}

TEST_F(CanonicalTest, CompactVariablesDensifies) {
  ConjunctiveQuery q(
      "Q", {Term::Var(7)},
      {Atom(0, {Term::Var(7), Term::Var(3)})});
  ConjunctiveQuery compact = CompactVariables(q);
  EXPECT_EQ(compact.MaxVarId(), 1);
  EXPECT_EQ(compact.head()[0], Term::Var(0));
}

TEST_F(CanonicalTest, ShiftVariables) {
  ConjunctiveQuery q = test::Q("Q(x) :- Meetings(x, y)", schema_);
  ConjunctiveQuery shifted = ShiftVariables(q, 100);
  EXPECT_EQ(shifted.head()[0], Term::Var(100));
  EXPECT_EQ(shifted.atoms()[0].terms[1], Term::Var(101));
}

TEST_F(CanonicalTest, CanonicalizeIsIdempotent) {
  ConjunctiveQuery q =
      test::Q("Q(x) :- Contacts(y, w, z), Meetings(x, y)", schema_);
  ConjunctiveQuery once = Canonicalize(q);
  ConjunctiveQuery twice = Canonicalize(once);
  EXPECT_EQ(once, twice);
}

TEST_F(CanonicalTest, PrintsQuotesAndBackslashesEscaped) {
  const ConjunctiveQuery q(
      "Q", {}, {Atom(0, {Term::Const("it's"), Term::Const("a\\b")})});
  EXPECT_EQ(CanonicalKey(q), "0('it\\'s','a\\\\b',);");
  EXPECT_EQ(CanonicalKey(test::Q("Q(x) :- Meetings(x, 'Cathy')", schema_)),
            "0(v0d,'Cathy',);");
}

// Keys quote constants unambiguously. Over constants drawn from an alphabet
// of the keys' own punctuation (' \ , ( ) ;), equal CanonicalKeys imply
// equal canonical forms, and equal AtomPattern keys imply equal patterns.
// Printed unescaped, C("a','b", 'c') and C('a', "b','c") shared both keys.
TEST(KeyQuotingPropertyTest, EqualKeysImplyEqualForms) {
  // Quote and comma are drawn most often: together they build the
  // separator a constant would have to forge.
  static constexpr char kAlphabet[] = {'\'', '\'', ',', ',', '\\',
                                       '(',  ')',  ';', 'a'};
  Rng rng(0x9e70'0001);
  auto constant = [&] {
    std::string value;
    for (uint64_t n = rng.Below(4); n > 0; --n) {
      value.push_back(kAlphabet[rng.Below(sizeof(kAlphabet))]);
    }
    return Term::Const(std::move(value));
  };
  std::unordered_map<std::string, ConjunctiveQuery> canonical_by_key;
  std::unordered_map<std::string, AtomPattern> pattern_by_key;
  size_t query_repeats = 0, pattern_repeats = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<Atom> atoms;
    std::vector<bool> used(3, false);
    for (uint64_t a = 1 + rng.Below(2); a > 0; --a) {
      const int arity = rng.Chance(0.8) ? 2 : 1;  // relations 0 and 1
      std::vector<Term> terms;
      for (int p = 0; p < arity; ++p) {
        if (rng.Chance(0.75)) {
          terms.push_back(constant());
        } else {
          const int v = static_cast<int>(rng.Below(3));
          used[v] = true;
          terms.push_back(Term::Var(v));
        }
      }
      atoms.emplace_back(arity == 2 ? 0 : 1, std::move(terms));
    }
    std::vector<Term> head;
    for (int v = 0; v < 3; ++v) {
      if (used[v] && rng.Chance(0.5)) head.push_back(Term::Var(v));
    }
    const ConjunctiveQuery query("Q", std::move(head), std::move(atoms));
    const ConjunctiveQuery canonical = Canonicalize(query);
    const auto [known, fresh] =
        canonical_by_key.emplace(CanonicalKey(query), canonical);
    if (!fresh) {
      ++query_repeats;
      EXPECT_TRUE(known->second == canonical) << known->first;
    }
    std::vector<bool> distinguished(3, false);
    for (int v : query.DistinguishedVars()) distinguished[v] = true;
    for (const Atom& atom : query.atoms()) {
      const AtomPattern pattern = AtomPattern::FromAtom(atom, distinguished);
      const auto [seen, first] = pattern_by_key.emplace(pattern.Key(), pattern);
      if (!first) {
        ++pattern_repeats;
        EXPECT_TRUE(seen->second == pattern) << seen->first;
      }
    }
  }
  // Repeats are what the implications are checked on.
  EXPECT_GT(query_repeats, 100u);
  EXPECT_GT(pattern_repeats, 100u);
}

}  // namespace
}  // namespace fdc::cq
