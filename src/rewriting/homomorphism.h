// Homomorphisms between conjunctive queries (Chandra–Merlin machinery).
//
// A homomorphism h from query A to query B maps each variable of A to a term
// of B (constants map to themselves) such that the image of every body atom
// of A is a body atom of B. Containment and folding both reduce to
// homomorphism existence; the problem is NP-complete, so the search is
// backtracking over atom images — but the production engine (kIndexed)
// never scans the target linearly: candidate images come from a
// per-predicate atom index with constant-position filters (atom_index.h),
// and an empty candidate list rejects before any backtracking starts. The
// seed linear-scan engine (kLinear) is kept both as the ablation baseline
// and as the oracle for the agreement property tests.
//
// Every buffer the search touches (mapping, trail, order, candidates, the
// target index) can live in a caller-owned HomScratch, so steady-state
// callers that only need existence (folding, memoized containment) pay
// zero heap allocations per search — see ExistsHomomorphism.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "cq/query.h"
#include "rewriting/atom_index.h"

namespace fdc::rewriting {

/// A variable mapping: index = variable id in the source query, value = image
/// term in the target query. Unmapped ids hold std::nullopt.
using VarMapping = std::vector<std::optional<cq::Term>>;

/// Caller-owned scratch arena for the backtracking search: the mapping, the
/// assignment trail, the atom ordering, the per-atom candidate lists
/// (flattened into one array + spans), and the target index's backing
/// buffers all live here, so a warm scratch makes repeated searches
/// allocation-free (constants small enough for SSO aside). Not
/// thread-safe: one scratch per thread (Fold keeps a thread_local one); a
/// scratch must not be shared by nested searches.
struct HomScratch {
  VarMapping mapping;
  std::vector<int> trail;       // assignment order, for backtrack undo
  std::vector<int> atom_order;  // most-constrained-first schedule
  std::vector<int> candidate_data;  // flattened per-atom candidate lists
  std::vector<std::pair<int, int>> candidate_spans;  // [begin, end) per atom
  std::vector<std::pair<int, cq::Term>> seed_storage;  // IsContainedIn seeds
  TargetAtomIndex::Storage index;
  /// Searches completed with this scratch; > 0 means buffers are warm.
  uint64_t uses = 0;
};

/// Which search engine to use. Both return identical answers (existence and
/// validity; the particular witness mapping may differ) when no budget is
/// set; the agreement is enforced by tests/hom_index_property_test.cc.
enum class HomEngine {
  kIndexed,  // predicate-indexed candidates (production)
  kLinear,   // seed linear scan over target atoms (baseline/oracle)
};

/// Out-params describing how a search ended (optional).
struct HomStats {
  /// Candidate-image attempts made by the backtracking search.
  uint64_t steps = 0;
  /// True iff the search gave up because `max_steps` was exhausted; the
  /// nullopt result is then inconclusive, not a proof of non-existence.
  bool budget_exhausted = false;
};

struct HomOptions {
  /// Require h(v) = v for every distinguished variable of the source. Used
  /// for folding (retractions must fix the head).
  bool fix_distinguished = false;

  /// Pre-seeded assignments (e.g. head alignment for containment checks).
  /// Entries are (source var, required image).
  std::vector<std::pair<int, cq::Term>> seed;

  /// Engine selection; kIndexed unless ablating.
  HomEngine engine = HomEngine::kIndexed;

  /// Iteration budget for pathological inputs: maximum candidate-image
  /// attempts before the search gives up (0 = unlimited, the default).
  /// When exhausted, the result is nullopt and stats->budget_exhausted is
  /// set — callers opting into a budget accept possible false negatives.
  uint64_t max_steps = 0;

  /// When non-null, filled with search statistics.
  HomStats* stats = nullptr;

  /// When non-null, the search runs entirely inside this caller-owned
  /// arena; a warm scratch makes steady-state searches allocation-free
  /// (pair it with ExistsHomomorphism — returning a witness mapping still
  /// copies it out).
  HomScratch* scratch = nullptr;
};

/// Searches for a homomorphism from `from` to `to`. Returns the mapping if
/// one exists. `to_atom_allowed`, when non-empty, restricts which atoms of
/// `to` may serve as images (indexed by atom position; used by folding to
/// exclude the atom being dropped).
std::optional<VarMapping> FindHomomorphism(
    const cq::ConjunctiveQuery& from, const cq::ConjunctiveQuery& to,
    const HomOptions& options = {},
    const std::vector<bool>& to_atom_allowed = {});

/// Existence-only variant: identical decision to FindHomomorphism but never
/// copies a witness mapping out of the search. With a warm
/// HomOptions::scratch this makes zero heap allocations — the hot shape for
/// folding and memoized containment, where only the answer matters.
bool ExistsHomomorphism(const cq::ConjunctiveQuery& from,
                        const cq::ConjunctiveQuery& to,
                        const HomOptions& options = {},
                        const std::vector<bool>& to_atom_allowed = {});

}  // namespace fdc::rewriting
