// Conjunctive queries H :- B (§2.3) and the tagged-variable representation
// of §5 ("associate each query with a list of its body atoms and discard the
// head, tagging variables as distinguished or existential").
//
// We keep both: the head is retained so the storage engine knows output
// column order, while all reasoning code works off the distinguished-variable
// set, which is exactly the §5 representation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "cq/atom.h"
#include "cq/schema.h"
#include "cq/term.h"

namespace fdc::cq {

/// A conjunctive query with set semantics. Head terms must be variables that
/// appear in the body (safety); Validate() enforces this plus schema arity.
class ConjunctiveQuery {
 public:
  ConjunctiveQuery() = default;
  ConjunctiveQuery(std::string name, std::vector<Term> head,
                   std::vector<Atom> atoms)
      : name_(std::move(name)),
        head_(std::move(head)),
        atoms_(std::move(atoms)) {
    RecomputeVarInfo();
  }

  const std::string& name() const { return name_; }
  const std::vector<Term>& head() const { return head_; }
  const std::vector<Atom>& atoms() const { return atoms_; }

  void set_name(std::string n) { name_ = std::move(n); }

  /// Number of body atoms.
  int size() const { return static_cast<int>(atoms_.size()); }

  bool IsBoolean() const { return head_.empty(); }
  bool IsSingleAtom() const { return atoms_.size() == 1; }

  /// Largest variable id used, or -1 if the query has no variables.
  int MaxVarId() const { return max_var_; }

  /// True iff variable `v` appears in the head.
  bool IsDistinguished(int v) const {
    return v >= 0 && v < static_cast<int>(distinguished_.size()) &&
           distinguished_[v];
  }

  /// Sorted ids of distinguished variables.
  std::vector<int> DistinguishedVars() const;

  /// Sorted ids of all variables appearing anywhere in the query.
  std::vector<int> AllVars() const;

  /// Number of body atoms (counting duplicates) each variable occurs in.
  /// Index by variable id; 0 for unused ids.
  std::vector<int> AtomCountPerVar() const;

  /// Checks safety (head vars appear in body) and arity against the schema.
  Status Validate(const Schema& schema) const;

  /// Returns a copy with the given variables promoted to distinguished: they
  /// are appended (sorted, deduplicated) to the head. Used by Dissect (§5.2).
  ConjunctiveQuery WithPromotedVars(const std::vector<int>& vars) const;

  /// Returns a copy with only the selected atoms kept (indices into atoms()).
  /// The head is unchanged; callers are responsible for safety.
  ConjunctiveQuery WithAtomSubset(const std::vector<int>& keep) const;

  /// Applies a variable substitution (var id -> Term) to head and body.
  /// Ids absent from the map are kept as-is.
  ConjunctiveQuery Substitute(const std::vector<Term>& mapping) const;

  bool operator==(const ConjunctiveQuery& other) const {
    return head_ == other.head_ && atoms_ == other.atoms_;
  }

 private:
  void RecomputeVarInfo();

  std::string name_;
  std::vector<Term> head_;
  std::vector<Atom> atoms_;

  // Derived caches.
  int max_var_ = -1;
  std::vector<bool> distinguished_;  // indexed by variable id
};

/// Structural hash of a query exactly as written: variable ids and atom
/// order count, the name does not, so equal queries (operator==) hash
/// equal. The probe key of every exact-form table (QueryInterner's raw
/// level, the engine's LabelTable).
uint64_t RawHash(const ConjunctiveQuery& query);

}  // namespace fdc::cq
