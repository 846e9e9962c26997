// Query containment and equivalence (Chandra–Merlin [9]).
//
// Q1 is contained in Q2 (written Q1 ⊆ Q2) iff Q1's answer is a subset of
// Q2's answer on every database — equivalently, iff there is a homomorphism
// from Q2 to Q1 mapping Q2's head onto Q1's head position-by-position.
#pragma once

#include "cq/query.h"

namespace fdc::rewriting {

struct HomScratch;

/// True iff q1 ⊆ q2 (q1's answers always a subset of q2's). Requires equal
/// head arity; returns false otherwise (incomparable). `scratch`, when
/// non-null, hosts the head-alignment seeds and the whole search — a warm
/// scratch makes the steady-state check allocation-free.
bool IsContainedIn(const cq::ConjunctiveQuery& q1,
                   const cq::ConjunctiveQuery& q2,
                   HomScratch* scratch = nullptr);

/// True iff q1 and q2 return the same answer on every database (§2.3).
bool AreEquivalent(const cq::ConjunctiveQuery& q1,
                   const cq::ConjunctiveQuery& q2);

}  // namespace fdc::rewriting
