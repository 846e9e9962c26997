// Per-predicate atom index over a homomorphism target query.
//
// The seed HomSearch::Backtrack tried every target atom as the image of
// every source atom — O(|from|·|to|) candidate pairs before any pruning.
// A TargetAtomIndex buckets target atoms by relation id and precomputes
// their constant signatures (AtomSignature), so candidate generation is
// one bucket lookup plus a cheap signature filter per bucket entry: wrong
// relation, wrong arity, and constant-position/value mismatches never reach
// the backtracking search at all.
//
// Built in one pass over the target (a counting sort into a flat
// entries/offsets layout — no per-bucket vectors). Construction normally
// writes into a caller-owned Storage so a steady-state caller (HomScratch)
// reuses the same capacity across searches and allocates nothing; without
// one, the index owns its storage.
#pragma once

#include <cstdint>
#include <vector>

#include "cq/query.h"

namespace fdc::rewriting {

/// Per-atom structural signature, positional and renaming-invariant.
struct AtomSignature {
  int relation = -1;
  int arity = 0;
  uint64_t const_positions = 0;  // bit p set iff position p holds a constant

  /// True iff an atom with this signature could map onto an atom with
  /// `target` under a homomorphism (constants map to themselves): same
  /// relation/arity and every source constant matched by the same target
  /// constant. Necessary, not sufficient (variable bindings still checked).
  bool CompatibleWith(const AtomSignature& target) const {
    return relation == target.relation && arity == target.arity &&
           (const_positions & ~target.const_positions) == 0;
  }
};

AtomSignature ComputeAtomSignature(const cq::Atom& atom);

class TargetAtomIndex {
 public:
  struct Entry {
    int position;  // atom index in the target query
    AtomSignature signature;
  };

  /// Reusable backing buffers; contents are rebuilt by each construction,
  /// capacity persists. One Storage must back at most one live index.
  struct Storage {
    std::vector<Entry> entries;   // grouped by relation id
    std::vector<int> bucket_begin;  // per relation: offset of its group
    std::vector<int> cursor;      // scratch for the counting sort
  };

  /// Indexes `target`'s atoms. When `allowed` is non-empty, positions with
  /// allowed[i] == false are excluded (folding's dropped-atom restriction).
  /// `target` must outlive the index. `storage`, when non-null, must
  /// outlive the index and is overwritten.
  TargetAtomIndex(const cq::ConjunctiveQuery& target,
                  const std::vector<bool>& allowed,
                  Storage* storage = nullptr);

  /// Appends to `out` the target atom positions source atom `atom` (with
  /// signature `sig`) could map onto: same relation and arity, and every
  /// constant of `atom` matched by the identical constant in the target.
  /// Exact w.r.t. atom-level compatibility; only variable-binding conflicts
  /// remain for the backtracking search.
  void CandidatesFor(const cq::Atom& atom, const AtomSignature& sig,
                     std::vector<int>* out) const;

 private:
  Storage owned_;  // used only when no caller storage was provided
  Storage* s_;
  const cq::ConjunctiveQuery* target_;
};

}  // namespace fdc::rewriting
