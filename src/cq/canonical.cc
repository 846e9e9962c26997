#include "cq/canonical.h"

#include <algorithm>
#include <unordered_map>

namespace fdc::cq {

namespace {

// Structural key of an atom under a partial variable renaming: variables not
// yet renamed print as "?", so the key refines as the renaming grows.
std::string AtomKey(const Atom& atom,
                    const std::unordered_map<int, int>& renaming,
                    const std::vector<bool>& is_distinguished) {
  std::string key = std::to_string(atom.relation) + "(";
  for (const Term& t : atom.terms) {
    if (t.is_const()) {
      AppendQuotedConstant(&key, t.value());
    } else {
      auto it = renaming.find(t.var());
      const bool dist = t.var() < static_cast<int>(is_distinguished.size()) &&
                        is_distinguished[t.var()];
      if (it != renaming.end()) {
        key += "v" + std::to_string(it->second);
      } else {
        key += "?";
      }
      key += dist ? "d" : "e";
    }
    key += ",";
  }
  key += ")";
  return key;
}

}  // namespace

ConjunctiveQuery Canonicalize(const ConjunctiveQuery& query) {
  std::vector<bool> dist(static_cast<size_t>(query.MaxVarId() + 1), false);
  for (int v : query.DistinguishedVars()) dist[v] = true;

  // Greedy refinement: repeatedly pick the not-yet-placed atom with the
  // smallest key under the current renaming, then extend the renaming with
  // its unseen variables in position order.
  std::vector<bool> placed(query.atoms().size(), false);
  std::unordered_map<int, int> renaming;
  std::vector<int> order;
  order.reserve(query.atoms().size());
  for (size_t round = 0; round < query.atoms().size(); ++round) {
    int best = -1;
    std::string best_key;
    for (size_t i = 0; i < query.atoms().size(); ++i) {
      if (placed[i]) continue;
      std::string key = AtomKey(query.atoms()[i], renaming, dist);
      if (best == -1 || key < best_key) {
        best = static_cast<int>(i);
        best_key = std::move(key);
      }
    }
    placed[best] = true;
    order.push_back(best);
    for (const Term& t : query.atoms()[best].terms) {
      if (t.is_var()) {
        renaming.try_emplace(t.var(), static_cast<int>(renaming.size()));
      }
    }
  }
  // Any head-only variables would be unsafe; Validate rejects them, but be
  // defensive and number them last.
  for (const Term& t : query.head()) {
    if (t.is_var()) {
      renaming.try_emplace(t.var(), static_cast<int>(renaming.size()));
    }
  }

  auto rename_term = [&](const Term& t) -> Term {
    if (t.is_const()) return t;
    return Term::Var(renaming.at(t.var()));
  };
  std::vector<Atom> atoms;
  atoms.reserve(order.size());
  for (int idx : order) {
    const Atom& a = query.atoms()[idx];
    std::vector<Term> ts;
    ts.reserve(a.terms.size());
    for (const Term& t : a.terms) ts.push_back(rename_term(t));
    atoms.emplace_back(a.relation, std::move(ts));
  }
  // Canonical head: sorted distinguished variables (head order carries no
  // information for disclosure comparisons).
  std::vector<int> head_vars;
  for (const Term& t : query.head()) {
    if (t.is_var()) head_vars.push_back(renaming.at(t.var()));
  }
  std::sort(head_vars.begin(), head_vars.end());
  head_vars.erase(std::unique(head_vars.begin(), head_vars.end()),
                  head_vars.end());
  std::vector<Term> head;
  head.reserve(head_vars.size());
  for (int v : head_vars) head.push_back(Term::Var(v));
  return ConjunctiveQuery(query.name(), std::move(head), std::move(atoms));
}

std::string CanonicalKey(const ConjunctiveQuery& query) {
  ConjunctiveQuery canon = Canonicalize(query);
  std::vector<bool> dist(static_cast<size_t>(canon.MaxVarId() + 1), false);
  for (int v : canon.DistinguishedVars()) dist[v] = true;
  std::unordered_map<int, int> identity;
  for (int v = 0; v <= canon.MaxVarId(); ++v) identity[v] = v;
  std::string key;
  for (const Atom& a : canon.atoms()) {
    key += AtomKey(a, identity, dist);
    key += ";";
  }
  return key;
}

ConjunctiveQuery CompactVariables(const ConjunctiveQuery& query) {
  std::unordered_map<int, int> renaming;
  auto visit = [&](const Term& t) {
    if (t.is_var()) {
      renaming.try_emplace(t.var(), static_cast<int>(renaming.size()));
    }
  };
  for (const Atom& a : query.atoms()) {
    for (const Term& t : a.terms) visit(t);
  }
  for (const Term& t : query.head()) visit(t);

  std::vector<Term> mapping(static_cast<size_t>(query.MaxVarId() + 1));
  for (int v = 0; v <= query.MaxVarId(); ++v) {
    auto it = renaming.find(v);
    mapping[v] = it == renaming.end() ? Term::Var(v) : Term::Var(it->second);
  }
  return query.Substitute(mapping);
}

ConjunctiveQuery ShiftVariables(const ConjunctiveQuery& query, int offset) {
  std::vector<Term> mapping(static_cast<size_t>(query.MaxVarId() + 1));
  for (int v = 0; v <= query.MaxVarId(); ++v) {
    mapping[v] = Term::Var(v + offset);
  }
  return query.Substitute(mapping);
}

}  // namespace fdc::cq
