#include "cq/pattern.h"

#include <algorithm>
#include <unordered_map>

namespace fdc::cq {

Result<AtomPattern> AtomPattern::FromQuery(const ConjunctiveQuery& query) {
  if (!query.IsSingleAtom()) {
    return Status::InvalidArgument(
        "AtomPattern requires a single-atom query; got " +
        std::to_string(query.size()) + " atoms");
  }
  std::vector<bool> dist(static_cast<size_t>(query.MaxVarId() + 1), false);
  for (int v : query.DistinguishedVars()) dist[v] = true;
  return FromAtom(query.atoms()[0], dist);
}

AtomPattern AtomPattern::FromAtom(const Atom& atom,
                                  const std::vector<bool>& is_distinguished) {
  AtomPattern p;
  p.relation = atom.relation;
  p.terms.reserve(atom.terms.size());
  // var → class via linear probe over a small inline table: atoms have at
  // most `arity` distinct variables, and this runs once per dissected atom
  // on the labeling hot path (allocation here would dominate §7.2-scale
  // workloads).
  constexpr int kInline = 64;
  int vars_inline[kInline];
  std::vector<int> vars_heap;
  int* vars = vars_inline;
  if (atom.arity() > kInline) {
    vars_heap.resize(atom.terms.size());
    vars = vars_heap.data();
  }
  int num_classes = 0;
  for (const Term& t : atom.terms) {
    PatTerm pt;
    if (t.is_const()) {
      pt.is_const = true;
      pt.value = t.value();
    } else {
      int cls = -1;
      for (int c = 0; c < num_classes; ++c) {
        if (vars[c] == t.var()) {
          cls = c;
          break;
        }
      }
      if (cls < 0) {
        cls = num_classes;
        vars[num_classes++] = t.var();
      }
      pt.cls = cls;
      pt.distinguished = t.var() < static_cast<int>(is_distinguished.size()) &&
                         is_distinguished[t.var()];
    }
    p.terms.push_back(std::move(pt));
  }
  // Classes are already numbered by first occurrence; no Normalize() needed.
  return p;
}

ConjunctiveQuery AtomPattern::ToQuery(const std::string& name) const {
  // Class id doubles as variable id in the reconstructed query.
  std::vector<Term> head;
  std::vector<Term> atom_terms;
  atom_terms.reserve(terms.size());
  std::vector<bool> head_emitted;
  for (const PatTerm& pt : this->terms) {
    if (pt.is_const) {
      atom_terms.push_back(Term::Const(pt.value));
      continue;
    }
    atom_terms.push_back(Term::Var(pt.cls));
    if (pt.distinguished) {
      if (pt.cls >= static_cast<int>(head_emitted.size())) {
        head_emitted.resize(pt.cls + 1, false);
      }
      if (!head_emitted[pt.cls]) {
        head_emitted[pt.cls] = true;
        head.push_back(Term::Var(pt.cls));
      }
    }
  }
  Atom atom(relation, std::move(atom_terms));
  return ConjunctiveQuery(name, std::move(head), {std::move(atom)});
}

void AtomPattern::Normalize() {
  std::unordered_map<int, int> renumber;
  for (PatTerm& pt : terms) {
    if (pt.is_const) continue;
    auto [it, inserted] =
        renumber.try_emplace(pt.cls, static_cast<int>(renumber.size()));
    pt.cls = it->second;
  }
}

int AtomPattern::NumClasses() const {
  int max_cls = -1;
  for (const PatTerm& pt : terms) {
    if (!pt.is_const) max_cls = std::max(max_cls, pt.cls);
  }
  return max_cls + 1;
}

bool AtomPattern::HasDistinguished() const {
  for (const PatTerm& pt : terms) {
    if (!pt.is_const && pt.distinguished) return true;
  }
  return false;
}

std::string AtomPattern::Key() const {
  std::string out = "R" + std::to_string(relation) + "(";
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) out += ",";
    const PatTerm& pt = terms[i];
    if (pt.is_const) {
      AppendQuotedConstant(&out, pt.value);
    } else {
      out += "#" + std::to_string(pt.cls) + (pt.distinguished ? "d" : "e");
    }
  }
  out += ")";
  return out;
}

}  // namespace fdc::cq
