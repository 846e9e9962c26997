#include "rewriting/atom_index.h"

#include <algorithm>
#include <bit>

namespace fdc::rewriting {

AtomSignature ComputeAtomSignature(const cq::Atom& atom) {
  AtomSignature sig;
  sig.relation = atom.relation;
  sig.arity = atom.arity();
  for (int p = 0; p < atom.arity() && p < 64; ++p) {
    if (atom.terms[p].is_const()) sig.const_positions |= (1ULL << p);
  }
  return sig;
}

TargetAtomIndex::TargetAtomIndex(const cq::ConjunctiveQuery& target,
                                 const std::vector<bool>& allowed,
                                 Storage* storage)
    : s_(storage != nullptr ? storage : &owned_), target_(&target) {
  int max_relation = -1;
  for (const cq::Atom& atom : target.atoms()) {
    max_relation = std::max(max_relation, atom.relation);
  }
  // Counting sort by relation id into one flat entries array:
  // bucket_begin[r] .. bucket_begin[r + 1] is relation r's group.
  s_->bucket_begin.assign(static_cast<size_t>(max_relation + 2), 0);
  size_t kept = 0;
  for (size_t i = 0; i < target.atoms().size(); ++i) {
    if (!allowed.empty() && !allowed[i]) continue;
    const int relation = target.atoms()[i].relation;
    if (relation < 0) continue;
    ++s_->bucket_begin[static_cast<size_t>(relation) + 1];
    ++kept;
  }
  for (size_t r = 1; r < s_->bucket_begin.size(); ++r) {
    s_->bucket_begin[r] += s_->bucket_begin[r - 1];
  }
  s_->cursor.assign(s_->bucket_begin.begin(), s_->bucket_begin.end());
  s_->entries.resize(kept);
  for (size_t i = 0; i < target.atoms().size(); ++i) {
    if (!allowed.empty() && !allowed[i]) continue;
    const cq::Atom& atom = target.atoms()[i];
    if (atom.relation < 0) continue;
    Entry& entry = s_->entries[static_cast<size_t>(
        s_->cursor[static_cast<size_t>(atom.relation)]++)];
    entry.position = static_cast<int>(i);
    entry.signature = ComputeAtomSignature(atom);
  }
}

void TargetAtomIndex::CandidatesFor(const cq::Atom& atom,
                                    const AtomSignature& sig,
                                    std::vector<int>* out) const {
  if (atom.relation < 0 ||
      static_cast<size_t>(atom.relation) + 1 >= s_->bucket_begin.size()) {
    return;
  }
  const int begin = s_->bucket_begin[static_cast<size_t>(atom.relation)];
  const int end = s_->bucket_begin[static_cast<size_t>(atom.relation) + 1];
  for (int e = begin; e < end; ++e) {
    const Entry& entry = s_->entries[static_cast<size_t>(e)];
    // Signature filter: arity, then "all source constant positions are also
    // constant in the target" (constants map to themselves).
    if (!sig.CompatibleWith(entry.signature)) continue;
    // Exact constant-value check, only at the source's constant positions.
    const cq::Atom& candidate = target_->atoms()[entry.position];
    bool ok = true;
    uint64_t const_positions = sig.const_positions;
    // Positions ≥ 64 are not covered by the mask; fall back to a full scan
    // of constant positions for pathological arities.
    if (atom.arity() > 64) {
      for (int p = 0; p < atom.arity() && ok; ++p) {
        if (atom.terms[p].is_const()) {
          ok = candidate.terms[p].is_const() &&
               candidate.terms[p].value() == atom.terms[p].value();
        }
      }
    } else {
      while (const_positions != 0 && ok) {
        const int p = std::countr_zero(const_positions);
        const_positions &= const_positions - 1;
        ok = candidate.terms[p].is_const() &&
             candidate.terms[p].value() == atom.terms[p].value();
      }
    }
    if (ok) out->push_back(entry.position);
  }
}

}  // namespace fdc::rewriting
