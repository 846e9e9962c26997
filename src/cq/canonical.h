// Canonical renaming of query variables.
//
// Canonicalize() renames variables to dense ids ordered by first occurrence
// after sorting atoms by a stable structural key. Two queries that differ
// only by variable names and atom order map to the same canonical form.
// (Exact canonicalization up to isomorphism is GI-hard; this fixpoint
// refinement is exact for the view/query shapes used in this system and is
// only used for deduplication, never for equivalence decisions — those go
// through containment, see rewriting/containment.h.)
#pragma once

#include <string>

#include "cq/query.h"

namespace fdc::cq {

/// Returns a copy with variables renamed to 0..n-1 by first occurrence in a
/// stable atom order, and atoms sorted by their resulting structural key.
ConjunctiveQuery Canonicalize(const ConjunctiveQuery& query);

/// A stable text key of the canonical form (constants quoted by
/// AppendQuotedConstant); equal keys imply equal canonical forms, hence
/// isomorphic queries (used for hashing and dedup).
std::string CanonicalKey(const ConjunctiveQuery& query);

/// Renames variables so they occupy dense ids 0..n-1 (first-occurrence
/// order), without reordering atoms.
ConjunctiveQuery CompactVariables(const ConjunctiveQuery& query);

/// Returns a copy of `query` with all variable ids shifted by `offset`.
/// Useful to make two queries variable-disjoint before unification.
ConjunctiveQuery ShiftVariables(const ConjunctiveQuery& query, int offset);

}  // namespace fdc::cq
