// Hash-consed canonical queries — the intern layer of the hot path.
//
// Workloads at §7.2 scale are dominated by structurally repeated queries:
// the same app template instantiated over and over. Canonicalizing once and
// hash-consing the result means every downstream kernel (homomorphism
// search, containment memoization, labeling, monitor batching) can key its
// work on a dense immutable id instead of re-walking query structure.
//
// An InternedQuery additionally carries precomputed structural digests:
//   * a predicate (relation) multiset hash and a 64-bit relation Bloom set,
//     used for O(1) necessary-condition rejects before any backtracking;
//   * per-atom constant/variable signatures (constant-position masks and a
//     constant-value hash) feeding the predicate-indexed homomorphism
//     engine's candidate filters;
//   * max-var id and atom count, so search buffers can be sized without
//     touching the query.
//
// The interner also hash-conses AtomPatterns (the single-atom-view currency
// of the labeling path) into the same dense-id space, which is what the
// shared rewriting::ContainmentCache keys pairwise decisions on.
//
// Sharing contract: a QueryInterner is a plain mutable table — mutating
// calls (TryIntern/InternPattern) require external synchronization, and the
// const surface (query/pattern/stats) is only safe concurrently with
// other const calls. Its users (label::LabelingPipeline,
// rewriting::ContainmentCache's callers, tools and benches) are
// single-threaded or serialize on a lock of their own; use one interner per
// pipeline family (catalog/universe). The serving engine does not use it:
// engine::LabelTable keys labels by query form directly.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "cq/canonical.h"
#include "cq/pattern.h"
#include "cq/query.h"

namespace fdc::cq {

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

/// Whole-query structural digest, invariant under variable renaming and
/// atom reordering. relation_set drives the homomorphism fast reject;
/// predicate_multiset_hash is a cheap order-insensitive fingerprint for
/// dedup screens and observability; the int fields size search buffers.
struct QueryDigest {
  uint64_t predicate_multiset_hash = 0;  // order-insensitive relation multiset
  uint64_t relation_set = 0;             // Bloom set: bit (relation & 63)
  int num_atoms = 0;
  int max_var = -1;
  int head_arity = 0;
};

/// Sound O(1) reject: false means no homomorphism from `from` into `to` can
/// exist (some relation of `from` is absent from `to`). True means "maybe".
inline bool MayHaveHomomorphismInto(const QueryDigest& from,
                                    const QueryDigest& to) {
  return (from.relation_set & ~to.relation_set) == 0;
}

AtomSignature ComputeAtomSignature(const Atom& atom);

/// Digest + per-atom signatures of an (ideally canonical) query.
QueryDigest ComputeQueryDigest(const ConjunctiveQuery& query);

/// An immutable hash-consed query: canonical form + digests + dense id.
/// Obtained from QueryInterner; pointers remain valid for the interner's
/// lifetime.
class InternedQuery {
 public:
  int id() const { return id_; }
  const ConjunctiveQuery& query() const { return query_; }
  const QueryDigest& digest() const { return digest_; }
  const std::vector<AtomSignature>& atom_signatures() const {
    return atom_signatures_;
  }

 private:
  friend class QueryInterner;
  InternedQuery(int id, ConjunctiveQuery canonical);

  int id_;
  ConjunctiveQuery query_;  // canonical form
  QueryDigest digest_;
  std::vector<AtomSignature> atom_signatures_;
};

class QueryInterner {
 public:
  QueryInterner();

  /// Canonicalizes and hash-conses: queries equal up to variable renaming
  /// and atom order map to the same handle.
  ///
  /// Two-level: a raw-equality table is probed first (apps re-issue
  /// byte-identical query templates, so the common hit costs one structural
  /// hash — no canonicalization); only raw misses pay the canonical-key
  /// computation. The raw table is capped at kMaxRawEntries distinct forms;
  /// beyond that, new raw forms still intern correctly but are not added.
  ///
  /// Bounded for untrusted inputs: when the query is not already interned
  /// and either num_queries() >= max_queries or the interner's approximate
  /// resident bytes exceed kMaxApproxBytes, returns nullptr instead of
  /// growing the tables (the byte budget matters because one entry stores
  /// the raw query, its canonical form, and a key string — entry counts
  /// alone would let few-KB constants pin gigabytes). Known structures keep
  /// resolving after saturation; only novel ones are turned away, so an
  /// adversary issuing endless distinct structures cannot grow memory
  /// without bound (callers fall back to stateless labeling).
  const InternedQuery* TryIntern(const ConjunctiveQuery& query,
                                 size_t max_queries);

  /// Hash-conses a normalized single-atom view pattern into a dense id
  /// (independent id space from query ids).
  int InternPattern(const AtomPattern& pattern);

  const InternedQuery& query(int id) const { return queries_[id]; }
  const AtomPattern& pattern(int id) const { return patterns_[id]; }

  int num_queries() const { return static_cast<int>(queries_.size()); }
  int num_patterns() const { return static_cast<int>(patterns_.size()); }

  /// Interns performed vs. canonicalizations avoided, for observability.
  /// raw_hits counts queries resolved by the exact-match level (a subset of
  /// query_hits); query_hits + query_misses = TryIntern calls that did not
  /// return nullptr.
  struct Stats {
    uint64_t query_hits = 0;
    uint64_t query_misses = 0;
    uint64_t raw_hits = 0;
    uint64_t pattern_hits = 0;
    uint64_t pattern_misses = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Process-unique identity of this interner; pattern/query ids are only
  /// meaningful relative to it (ContainmentCache binds on it — a uid can
  /// never be reused, unlike an address).
  uint64_t uid() const { return uid_; }

  /// Approximate bytes resident in the intern tables.
  size_t approx_bytes() const { return approx_bytes_; }

  static constexpr size_t kMaxRawEntries = 1 << 20;
  static constexpr size_t kMaxApproxBytes = size_t{256} << 20;  // 256 MB

 private:
  // Deques keep handed-out references stable across growth.
  std::deque<InternedQuery> queries_;
  std::deque<AtomPattern> patterns_;
  std::unordered_map<std::string, int> query_by_key_;
  std::unordered_map<std::string, int> pattern_by_key_;
  // Raw-equality fast path: RawHash -> (raw query, interned id) bucket,
  // verified by exact comparison.
  std::unordered_map<uint64_t, std::vector<std::pair<ConjunctiveQuery, int>>>
      raw_buckets_;
  size_t raw_entries_ = 0;
  size_t approx_bytes_ = 0;
  uint64_t uid_;
  Stats stats_;
};

}  // namespace fdc::cq
