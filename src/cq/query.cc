#include "cq/query.h"

#include <algorithm>

namespace fdc::cq {

void ConjunctiveQuery::RecomputeVarInfo() {
  max_var_ = -1;
  auto consider = [&](const Term& t) {
    if (t.is_var()) max_var_ = std::max(max_var_, t.var());
  };
  for (const Term& t : head_) consider(t);
  for (const Atom& a : atoms_) {
    for (const Term& t : a.terms) consider(t);
  }
  distinguished_.assign(static_cast<size_t>(max_var_ + 1), false);
  for (const Term& t : head_) {
    if (t.is_var()) distinguished_[t.var()] = true;
  }
}

std::vector<int> ConjunctiveQuery::DistinguishedVars() const {
  std::vector<int> out;
  for (int v = 0; v <= max_var_; ++v) {
    if (distinguished_[v]) out.push_back(v);
  }
  return out;
}

std::vector<int> ConjunctiveQuery::AllVars() const {
  std::vector<bool> seen(static_cast<size_t>(max_var_ + 1), false);
  for (const Term& t : head_) {
    if (t.is_var()) seen[t.var()] = true;
  }
  for (const Atom& a : atoms_) {
    for (const Term& t : a.terms) {
      if (t.is_var()) seen[t.var()] = true;
    }
  }
  std::vector<int> out;
  for (int v = 0; v <= max_var_; ++v) {
    if (seen[v]) out.push_back(v);
  }
  return out;
}

std::vector<int> ConjunctiveQuery::AtomCountPerVar() const {
  std::vector<int> counts(static_cast<size_t>(max_var_ + 1), 0);
  std::vector<bool> in_this_atom;
  for (const Atom& a : atoms_) {
    in_this_atom.assign(static_cast<size_t>(max_var_ + 1), false);
    for (const Term& t : a.terms) {
      if (t.is_var() && !in_this_atom[t.var()]) {
        in_this_atom[t.var()] = true;
        ++counts[t.var()];
      }
    }
  }
  return counts;
}

Status ConjunctiveQuery::Validate(const Schema& schema) const {
  std::vector<bool> in_body(static_cast<size_t>(max_var_ + 1), false);
  for (const Atom& a : atoms_) {
    const RelationDef* rel = schema.FindById(a.relation);
    if (rel == nullptr) {
      return Status::InvalidArgument("atom references unknown relation id " +
                                     std::to_string(a.relation));
    }
    if (a.arity() != rel->arity()) {
      return Status::InvalidArgument(
          "atom over '" + rel->name + "' has arity " +
          std::to_string(a.arity()) + ", expected " +
          std::to_string(rel->arity()));
    }
    for (const Term& t : a.terms) {
      if (t.is_var()) in_body[t.var()] = true;
    }
  }
  for (const Term& t : head_) {
    if (t.is_const()) {
      return Status::InvalidArgument(
          "head constants are not supported; select via the body instead");
    }
    if (!in_body[t.var()]) {
      return Status::InvalidArgument("head variable does not appear in body");
    }
  }
  return Status::OK();
}

ConjunctiveQuery ConjunctiveQuery::WithPromotedVars(
    const std::vector<int>& vars) const {
  std::vector<Term> new_head = head_;
  std::vector<int> sorted = vars;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (int v : sorted) {
    if (!IsDistinguished(v)) new_head.push_back(Term::Var(v));
  }
  return ConjunctiveQuery(name_, std::move(new_head), atoms_);
}

ConjunctiveQuery ConjunctiveQuery::WithAtomSubset(
    const std::vector<int>& keep) const {
  std::vector<Atom> kept;
  kept.reserve(keep.size());
  for (int idx : keep) kept.push_back(atoms_[idx]);
  return ConjunctiveQuery(name_, head_, std::move(kept));
}

uint64_t RawHash(const ConjunctiveQuery& query) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over a tagged term stream
  auto mix = [&h](uint64_t byte) { h = (h ^ byte) * 0x100000001b3ULL; };
  auto mix_term = [&mix](const Term& t) {
    if (t.is_var()) {
      mix(0x1);
      mix(static_cast<uint64_t>(static_cast<uint32_t>(t.var())));
    } else {
      mix(0x2);
      for (unsigned char c : t.value()) mix(c);
      mix(0xff);  // length delimiter
    }
  };
  for (const Term& t : query.head()) mix_term(t);
  mix(0x3);
  for (const Atom& atom : query.atoms()) {
    mix(static_cast<uint64_t>(static_cast<uint32_t>(atom.relation)));
    for (const Term& t : atom.terms) mix_term(t);
    mix(0x4);
  }
  return h;
}

ConjunctiveQuery ConjunctiveQuery::Substitute(
    const std::vector<Term>& mapping) const {
  auto apply = [&](const Term& t) -> Term {
    if (t.is_var() && t.var() < static_cast<int>(mapping.size())) {
      return mapping[t.var()];
    }
    return t;
  };
  std::vector<Term> new_head;
  new_head.reserve(head_.size());
  for (const Term& t : head_) new_head.push_back(apply(t));
  std::vector<Atom> new_atoms;
  new_atoms.reserve(atoms_.size());
  for (const Atom& a : atoms_) {
    std::vector<Term> ts;
    ts.reserve(a.terms.size());
    for (const Term& t : a.terms) ts.push_back(apply(t));
    new_atoms.emplace_back(a.relation, std::move(ts));
  }
  return ConjunctiveQuery(name_, std::move(new_head), std::move(new_atoms));
}

}  // namespace fdc::cq
