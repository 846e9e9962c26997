// AtomPattern: the normalized form of a single-atom conjunctive view.
//
// A single-atom view V(head) :- R(t1..tk) is fully characterized, up to
// ⪯-equivalence under the equivalent-view-rewriting order, by three pieces of
// per-position information (§5.1):
//   * which positions carry which constants,
//   * the partition of variable positions into equality classes
//     (repeated variables), and
//   * which classes are distinguished (head) vs existential.
// Head column order and multiplicity are deliberately quotiented away: views
// V1(x,y) :- M(x,y) and V1'(y,x) :- M(x,y) have the same pattern, mirroring
// §3.1's observation that they reveal equivalent information.
//
// GenMGU / GLBSingleton (§5.1) and the single-atom rewriting test operate on
// AtomPatterns.
#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "cq/query.h"

namespace fdc::cq {

/// One position of an AtomPattern.
struct PatTerm {
  bool is_const = false;
  std::string value;         // constant value; valid when is_const
  int cls = -1;              // equality-class id; valid when !is_const
  bool distinguished = false;  // class tag; valid when !is_const

  bool operator==(const PatTerm& other) const {
    if (is_const != other.is_const) return false;
    if (is_const) return value == other.value;
    return cls == other.cls && distinguished == other.distinguished;
  }
};

/// Normalized single-atom view. Class ids are renumbered by first occurrence,
/// so structural equality coincides with ⪯-equivalence of the underlying
/// views (for the single-atom fragment).
struct AtomPattern {
  int relation = -1;
  std::vector<PatTerm> terms;

  int arity() const { return static_cast<int>(terms.size()); }

  /// Builds a pattern from a single-atom query (its one body atom plus the
  /// distinguished-variable set). Fails for multi-atom or empty queries.
  static Result<AtomPattern> FromQuery(const ConjunctiveQuery& query);

  /// Builds directly from an atom plus a predicate telling which variables
  /// are distinguished.
  static AtomPattern FromAtom(const Atom& atom,
                              const std::vector<bool>& is_distinguished);

  /// Converts back to a ConjunctiveQuery. The head lists one variable per
  /// distinguished class, in class order.
  ConjunctiveQuery ToQuery(const std::string& name) const;

  /// Renumbers class ids by first occurrence (idempotent). All other
  /// operations assume patterns are normalized.
  void Normalize();

  /// Number of distinct variable classes.
  int NumClasses() const;

  /// True iff some class is distinguished.
  bool HasDistinguished() const;

  /// A stable text encoding, e.g. "R3(#0d,#0d,'x',#1e)", with constants
  /// quoted by AppendQuotedConstant so equal keys imply equal patterns;
  /// used for hashing, dedupe, ordering and debug output.
  std::string Key() const;

  bool operator==(const AtomPattern& other) const {
    return relation == other.relation && terms == other.terms;
  }
  bool operator<(const AtomPattern& other) const {
    if (relation != other.relation) return relation < other.relation;
    return Key() < other.Key();
  }
};

}  // namespace fdc::cq

namespace std {
template <>
struct hash<fdc::cq::AtomPattern> {
  size_t operator()(const fdc::cq::AtomPattern& p) const {
    return hash<string>()(p.Key()) ^ (hash<int>()(p.relation) << 1);
  }
};
}  // namespace std
