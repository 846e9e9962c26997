#include "rewriting/homomorphism.h"

#include <algorithm>

namespace fdc::rewriting {

namespace {

using cq::Atom;
using cq::ConjunctiveQuery;
using cq::Term;

// Stable, allocation-free ordering for the atom schedule. std::stable_sort
// grabs a temporary buffer from the heap on every call, which is the one
// allocation the warm-scratch path would otherwise keep paying; queries
// have a handful of atoms, where insertion sort also wins outright.
template <typename Less>
void StableInsertionSort(std::vector<int>& v, Less less) {
  for (size_t i = 1; i < v.size(); ++i) {
    const int x = v[i];
    size_t j = i;
    while (j > 0 && less(x, v[j - 1])) {
      v[j] = v[j - 1];
      --j;
    }
    v[j] = x;
  }
}

// The backtracking search, operating entirely inside a HomScratch: a
// caller-provided warm arena makes a whole search allocation-free (small-
// buffer-optimized constant strings aside); a cold local one behaves like
// the seed (buffers grow once, then the search runs).
class HomSearch {
 public:
  HomSearch(const ConjunctiveQuery& from, const ConjunctiveQuery& to,
            const HomOptions& options, const std::vector<bool>& to_allowed,
            HomScratch& s)
      : from_(from),
        to_(to),
        options_(options),
        to_allowed_(to_allowed),
        s_(s) {
    s_.mapping.assign(static_cast<size_t>(from.MaxVarId() + 1), std::nullopt);
    s_.trail.clear();
  }

  // Existence decision; on success the witness is left in scratch.mapping.
  bool RunExists() {
    const bool found = Search();
    FlushStats();
    ++s_.uses;
    return found;
  }

 private:
  bool Search() {
    // Seed: fixed distinguished variables and explicit seeds.
    if (options_.fix_distinguished) {
      for (int v : from_.DistinguishedVars()) {
        if (!Assign(v, Term::Var(v))) return false;
      }
    }
    for (const auto& [v, t] : options_.seed) {
      if (!Assign(v, t)) return false;
    }

    const size_t n = from_.atoms().size();
    s_.atom_order.resize(n);
    for (size_t i = 0; i < n; ++i) s_.atom_order[i] = static_cast<int>(i);

    if (options_.engine == HomEngine::kIndexed) {
      // Build the per-predicate index (inside the scratch's backing
      // buffers) and materialize each source atom's static candidate list,
      // flattened into candidate_data with one [begin, end) span per atom.
      // An empty list is a proof of non-existence — reject before any
      // backtracking.
      TargetAtomIndex index(to_, to_allowed_, &s_.index);
      s_.candidate_data.clear();
      s_.candidate_spans.assign(n, {0, 0});
      for (size_t i = 0; i < n; ++i) {
        const Atom& atom = from_.atoms()[i];
        const AtomSignature sig = ComputeAtomSignature(atom);
        const int begin = static_cast<int>(s_.candidate_data.size());
        index.CandidatesFor(atom, sig, &s_.candidate_data);
        const int end = static_cast<int>(s_.candidate_data.size());
        if (begin == end) return false;
        s_.candidate_spans[i] = {begin, end};
      }
      // Most-constrained-first: fewest candidate images first, breaking
      // ties toward atoms with more constants/pre-mapped variables.
      StableInsertionSort(s_.atom_order, [&](int a, int b) {
        const int ca = SpanSize(a);
        const int cb = SpanSize(b);
        if (ca != cb) return ca < cb;
        return Constrainedness(a) > Constrainedness(b);
      });
    } else {
      // Seed ordering: more constants/mapped vars first.
      StableInsertionSort(s_.atom_order, [&](int a, int b) {
        return Constrainedness(a) > Constrainedness(b);
      });
    }

    return Backtrack(0);
  }

  void FlushStats() {
    if (options_.stats != nullptr) {
      options_.stats->steps = steps_;
      options_.stats->budget_exhausted = budget_exhausted_;
    }
  }

  int SpanSize(int atom_idx) const {
    const auto& [begin, end] = s_.candidate_spans[atom_idx];
    return end - begin;
  }

  int Constrainedness(int atom_idx) const {
    int score = 0;
    for (const Term& t : from_.atoms()[atom_idx].terms) {
      if (t.is_const()) {
        score += 2;
      } else if (s_.mapping[t.var()].has_value()) {
        score += 1;
      }
    }
    return score;
  }

  bool Assign(int var, const Term& image) {
    if (var >= static_cast<int>(s_.mapping.size())) {
      s_.mapping.resize(var + 1, std::nullopt);
    }
    if (s_.mapping[var].has_value()) return *s_.mapping[var] == image;
    s_.mapping[var] = image;
    s_.trail.push_back(var);
    return true;
  }

  // Attempts to map source atom `a` onto target atom `b`; records new
  // assignments on the trail. Returns false (after rolling back nothing —
  // caller rolls back via trail mark) on mismatch.
  bool MatchAtom(const Atom& a, const Atom& b) {
    if (a.relation != b.relation || a.arity() != b.arity()) return false;
    for (int i = 0; i < a.arity(); ++i) {
      const Term& s = a.terms[i];
      const Term& t = b.terms[i];
      if (s.is_const()) {
        if (!t.is_const() || s.value() != t.value()) return false;
      } else {
        if (!Assign(s.var(), t)) return false;
      }
    }
    return true;
  }

  bool TryImage(const Atom& a, size_t bi, size_t depth) {
    ++steps_;
    const size_t mark = s_.trail.size();
    if (MatchAtom(a, to_.atoms()[bi]) && Backtrack(depth + 1)) return true;
    while (s_.trail.size() > mark) {
      s_.mapping[s_.trail.back()] = std::nullopt;
      s_.trail.pop_back();
    }
    return false;
  }

  bool BudgetExceeded() {
    if (options_.max_steps != 0 && steps_ >= options_.max_steps) {
      budget_exhausted_ = true;
      return true;
    }
    return false;
  }

  bool Backtrack(size_t depth) {
    if (depth == s_.atom_order.size()) return true;
    const int atom_idx = s_.atom_order[depth];
    const Atom& a = from_.atoms()[atom_idx];
    if (options_.engine == HomEngine::kIndexed) {
      const auto [begin, end] = s_.candidate_spans[atom_idx];
      for (int c = begin; c < end; ++c) {
        if (BudgetExceeded()) return false;
        if (TryImage(a, static_cast<size_t>(s_.candidate_data[c]), depth)) {
          return true;
        }
      }
    } else {
      for (size_t bi = 0; bi < to_.atoms().size(); ++bi) {
        if (!to_allowed_.empty() && !to_allowed_[bi]) continue;
        if (BudgetExceeded()) return false;
        if (TryImage(a, bi, depth)) return true;
      }
    }
    return false;
  }

  const ConjunctiveQuery& from_;
  const ConjunctiveQuery& to_;
  const HomOptions& options_;
  const std::vector<bool>& to_allowed_;
  HomScratch& s_;
  uint64_t steps_ = 0;
  bool budget_exhausted_ = false;
};

bool RunSearch(const cq::ConjunctiveQuery& from, const cq::ConjunctiveQuery& to,
               const HomOptions& options,
               const std::vector<bool>& to_atom_allowed, HomScratch& local) {
  HomScratch& s = options.scratch != nullptr ? *options.scratch : local;
  return HomSearch(from, to, options, to_atom_allowed, s).RunExists();
}

}  // namespace

std::optional<VarMapping> FindHomomorphism(
    const cq::ConjunctiveQuery& from, const cq::ConjunctiveQuery& to,
    const HomOptions& options, const std::vector<bool>& to_atom_allowed) {
  HomScratch local;
  if (!RunSearch(from, to, options, to_atom_allowed, local)) {
    return std::nullopt;
  }
  // Copy the witness out of whichever scratch ran the search.
  return options.scratch != nullptr ? options.scratch->mapping
                                    : local.mapping;
}

bool ExistsHomomorphism(const cq::ConjunctiveQuery& from,
                        const cq::ConjunctiveQuery& to,
                        const HomOptions& options,
                        const std::vector<bool>& to_atom_allowed) {
  HomScratch local;
  return RunSearch(from, to, options, to_atom_allowed, local);
}

}  // namespace fdc::rewriting
