#include "cq/interned.h"

#include <algorithm>
#include <atomic>

namespace fdc::cq {

namespace {

// splitmix64 finalizer: turns a relation id into a well-spread word so the
// multiset hash (a commutative sum) doesn't collapse for small ids.
uint64_t SpreadId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

AtomSignature ComputeAtomSignature(const Atom& atom) {
  AtomSignature sig;
  sig.relation = atom.relation;
  sig.arity = atom.arity();
  for (int p = 0; p < atom.arity() && p < 64; ++p) {
    if (atom.terms[p].is_const()) sig.const_positions |= (1ULL << p);
  }
  return sig;
}

QueryDigest ComputeQueryDigest(const ConjunctiveQuery& query) {
  QueryDigest digest;
  digest.num_atoms = query.size();
  digest.max_var = query.MaxVarId();
  digest.head_arity = static_cast<int>(query.head().size());
  for (const Atom& atom : query.atoms()) {
    digest.relation_set |= (1ULL << (static_cast<uint32_t>(atom.relation) & 63));
    // Commutative combine keeps the hash independent of atom order while
    // still counting multiplicity.
    digest.predicate_multiset_hash +=
        SpreadId(static_cast<uint64_t>(static_cast<uint32_t>(atom.relation)));
  }
  return digest;
}

InternedQuery::InternedQuery(int id, ConjunctiveQuery canonical)
    : id_(id), query_(std::move(canonical)) {
  digest_ = ComputeQueryDigest(query_);
  atom_signatures_.reserve(query_.atoms().size());
  for (const Atom& atom : query_.atoms()) {
    atom_signatures_.push_back(ComputeAtomSignature(atom));
  }
}

namespace {

std::atomic<uint64_t> g_next_interner_uid{1};

// Rough resident-size estimate of a stored query: term slots plus constant
// payloads. Feeds the interner's byte budget; precision is unnecessary,
// only the order of magnitude matters.
size_t ApproxQueryBytes(const ConjunctiveQuery& query) {
  size_t bytes = sizeof(ConjunctiveQuery);
  auto term_bytes = [](const Term& t) {
    return sizeof(Term) + (t.is_const() ? t.value().capacity() : 0);
  };
  for (const Term& t : query.head()) bytes += term_bytes(t);
  for (const Atom& atom : query.atoms()) {
    bytes += sizeof(Atom);
    for (const Term& t : atom.terms) bytes += term_bytes(t);
  }
  return bytes;
}

}  // namespace

QueryInterner::QueryInterner()
    : uid_(g_next_interner_uid.fetch_add(1, std::memory_order_relaxed)) {}

const InternedQuery* QueryInterner::TryIntern(const ConjunctiveQuery& query,
                                              size_t max_queries) {
  // Level 1: exact raw form — no canonicalization on hit.
  const uint64_t raw_hash = RawHash(query);
  auto raw_it = raw_buckets_.find(raw_hash);
  if (raw_it != raw_buckets_.end()) {
    for (const auto& [raw, id] : raw_it->second) {
      if (raw == query) {
        ++stats_.query_hits;
        ++stats_.raw_hits;
        return &queries_[id];
      }
    }
  }

  // Level 2: canonical form.
  std::string key = CanonicalKey(query);
  int id;
  auto it = query_by_key_.find(key);
  if (it != query_by_key_.end()) {
    ++stats_.query_hits;
    id = it->second;
  } else {
    if (queries_.size() >= max_queries || approx_bytes_ >= kMaxApproxBytes) {
      return nullptr;  // saturated (entry count or byte budget)
    }
    ++stats_.query_misses;
    id = static_cast<int>(queries_.size());
    queries_.push_back(InternedQuery(id, Canonicalize(query)));
    approx_bytes_ += ApproxQueryBytes(queries_.back().query()) + key.size();
    query_by_key_.emplace(std::move(key), id);
    // Make the canonical form itself level-1 findable: a caller that
    // canonicalizes once up front (e.g. template registration) then probes
    // with the canonical object never pays CanonicalKey again.
    const ConjunctiveQuery& canonical = queries_.back().query();
    if (!(canonical == query) && raw_entries_ < kMaxRawEntries &&
        approx_bytes_ < kMaxApproxBytes) {
      approx_bytes_ += ApproxQueryBytes(canonical);
      raw_buckets_[RawHash(canonical)].emplace_back(canonical, id);
      ++raw_entries_;
    }
  }
  if (raw_entries_ < kMaxRawEntries && approx_bytes_ < kMaxApproxBytes) {
    approx_bytes_ += ApproxQueryBytes(query);
    raw_buckets_[raw_hash].emplace_back(query, id);
    ++raw_entries_;
  }
  return &queries_[id];
}

int QueryInterner::InternPattern(const AtomPattern& pattern) {
  std::string key = pattern.Key();
  auto it = pattern_by_key_.find(key);
  if (it != pattern_by_key_.end()) {
    ++stats_.pattern_hits;
    return it->second;
  }
  ++stats_.pattern_misses;
  const int id = static_cast<int>(patterns_.size());
  patterns_.push_back(pattern);
  approx_bytes_ += sizeof(AtomPattern) +
                   pattern.terms.size() * sizeof(PatTerm) + key.size();
  pattern_by_key_.emplace(std::move(key), id);
  return id;
}

}  // namespace fdc::cq
