#include "cq/interned.h"

#include "cq/canonical.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "test_util.h"

namespace fdc::cq {
namespace {

class InternerTest : public ::testing::Test {
 protected:
  Schema schema_ = test::MakePaperSchema();
  QueryInterner interner_;
};

TEST_F(InternerTest, RenamedQueriesShareOneHandle) {
  const ConjunctiveQuery a =
      test::Q("Q(x) :- Meetings(x, y), Contacts(y, e, p)", schema_);
  const ConjunctiveQuery b =
      test::Q("Q(u) :- Contacts(v, w, z), Meetings(u, v)", schema_);
  const InternedQuery* ia = interner_.TryIntern(a, SIZE_MAX);
  const InternedQuery* ib = interner_.TryIntern(b, SIZE_MAX);
  ASSERT_NE(ia, nullptr);
  ASSERT_NE(ib, nullptr);
  EXPECT_EQ(ia->id(), ib->id());
  EXPECT_EQ(ia, ib);
  EXPECT_EQ(interner_.num_queries(), 1);
  EXPECT_EQ(interner_.stats().query_hits, 1u);
  EXPECT_EQ(interner_.stats().query_misses, 1u);
}

TEST_F(InternerTest, DistinctStructuresGetDistinctIds) {
  const InternedQuery* scan =
      interner_.TryIntern(test::Q("Q(x) :- Meetings(x, y)", schema_), SIZE_MAX);
  const InternedQuery* sel = interner_.TryIntern(
      test::Q("Q(x) :- Meetings(x, 'Cathy')", schema_), SIZE_MAX);
  const InternedQuery* diag =
      interner_.TryIntern(test::Q("Q(x) :- Meetings(x, x)", schema_), SIZE_MAX);
  ASSERT_NE(scan, nullptr);
  ASSERT_NE(sel, nullptr);
  ASSERT_NE(diag, nullptr);
  EXPECT_NE(scan->id(), sel->id());
  EXPECT_NE(scan->id(), diag->id());
  EXPECT_NE(sel->id(), diag->id());
}

TEST_F(InternerTest, DigestRecordsStructure) {
  const ConjunctiveQuery q =
      test::Q("Q(x) :- Meetings(x, y), Contacts(y, e, 'vp')", schema_);
  const InternedQuery* interned = interner_.TryIntern(q, SIZE_MAX);
  ASSERT_NE(interned, nullptr);
  const QueryDigest& digest = interned->digest();
  EXPECT_EQ(digest.num_atoms, 2);
  EXPECT_EQ(digest.head_arity, 1);
  EXPECT_GE(digest.max_var, 0);
  const int meetings = schema_.Find("Meetings")->id;
  const int contacts = schema_.Find("Contacts")->id;
  EXPECT_NE(digest.relation_set & (1ULL << (meetings & 63)), 0u);
  EXPECT_NE(digest.relation_set & (1ULL << (contacts & 63)), 0u);
  ASSERT_EQ(interned->atom_signatures().size(), 2u);
}

TEST_F(InternerTest, DigestIsInvariantUnderRenamingAndReordering) {
  const ConjunctiveQuery a =
      test::Q("Q(x) :- Meetings(x, y), Contacts(y, e, p)", schema_);
  const ConjunctiveQuery b =
      test::Q("Q(a) :- Contacts(b, c, d), Meetings(a, b)", schema_);
  const QueryDigest da = ComputeQueryDigest(Canonicalize(a));
  const QueryDigest db = ComputeQueryDigest(Canonicalize(b));
  EXPECT_EQ(da.predicate_multiset_hash, db.predicate_multiset_hash);
  EXPECT_EQ(da.relation_set, db.relation_set);
}

TEST_F(InternerTest, PredicateMultisetHashCountsMultiplicity) {
  const QueryDigest one = ComputeQueryDigest(
      test::Q("Q(x) :- Meetings(x, y)", schema_));
  const QueryDigest two = ComputeQueryDigest(
      test::Q("Q(x) :- Meetings(x, y), Meetings(x, z)", schema_));
  EXPECT_NE(one.predicate_multiset_hash, two.predicate_multiset_hash);
}

TEST_F(InternerTest, AtomSignatureTracksConstants) {
  const ConjunctiveQuery q =
      test::Q("Q(x) :- Contacts(x, 'e', 'vp')", schema_);
  const AtomSignature sig = ComputeAtomSignature(q.atoms().front());
  EXPECT_EQ(sig.arity, 3);
  EXPECT_EQ(sig.const_positions, 0b110u);

  const AtomSignature loose = ComputeAtomSignature(
      test::Q("Q(x) :- Contacts(x, y, z)", schema_).atoms().front());
  // A constant-free atom can map onto anything of the same relation; the
  // constrained atom cannot map onto the constant-free one.
  EXPECT_TRUE(loose.CompatibleWith(sig));
  EXPECT_FALSE(sig.CompatibleWith(loose));
}

TEST_F(InternerTest, HomomorphismDigestRejectIsSound) {
  const QueryDigest join = ComputeQueryDigest(
      test::Q("Q(x) :- Meetings(x, y), Contacts(y, e, p)", schema_));
  const QueryDigest scan =
      ComputeQueryDigest(test::Q("Q(x) :- Meetings(x, y)", schema_));
  // Mapping the join into the scan needs a Contacts image: reject.
  EXPECT_FALSE(MayHaveHomomorphismInto(join, scan));
  // The scan can map into the join.
  EXPECT_TRUE(MayHaveHomomorphismInto(scan, join));
}

TEST_F(InternerTest, CanonicalFormHitsTheRawTable) {
  // Intern under a deliberately non-canonical variable naming, then probe
  // with the canonical form: the intern step must have raw-registered the
  // canonical object too, so the probe resolves at level 1 (raw_hits) with
  // no CanonicalKey recomputation. This is what lets a caller canonicalize
  // a query once and hash-probe with it afterwards.
  const ConjunctiveQuery raw =
      test::Q("Q(u) :- Contacts(v, w, z), Meetings(u, v)", schema_);
  const InternedQuery* interned = interner_.TryIntern(raw, SIZE_MAX);
  ASSERT_NE(interned, nullptr);
  const ConjunctiveQuery canonical = Canonicalize(raw);
  EXPECT_EQ(interner_.stats().raw_hits, 0u);
  const InternedQuery* via_canonical = interner_.TryIntern(canonical, 1);
  ASSERT_NE(via_canonical, nullptr);
  EXPECT_EQ(via_canonical, interned);
  EXPECT_EQ(interner_.stats().raw_hits, 1u);
  EXPECT_EQ(interner_.num_queries(), 1);
}

TEST_F(InternerTest, PatternInterningDeduplicates) {
  const AtomPattern a = test::P("V(x) :- Meetings(x, y)", schema_);
  const AtomPattern b = test::P("W(u) :- Meetings(u, v)", schema_);
  const AtomPattern c = test::P("V(x, y) :- Meetings(x, y)", schema_);
  const int ia = interner_.InternPattern(a);
  const int ib = interner_.InternPattern(b);
  const int ic = interner_.InternPattern(c);
  EXPECT_EQ(ia, ib);
  EXPECT_NE(ia, ic);
  EXPECT_EQ(interner_.num_patterns(), 2);
  EXPECT_EQ(interner_.pattern(ia), a);
}

}  // namespace
}  // namespace fdc::cq
