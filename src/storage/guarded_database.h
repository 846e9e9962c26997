// The end-to-end disclosure-controlled database of Figure 2: untrusted apps
// submit queries; the reference monitor labels each one, consults the
// principal's policy and cumulative state, and either evaluates the query
// or refuses with a PolicyViolation status.
//
// Decisions go through engine::DisclosureEngine, the shard-aware
// thread-safe core, so one GuardedDatabase may be shared by any number of
// threads, including the const Explain*/ConsistentPartitions surface. The
// seed single-threaded composition (LabelingPipeline + ReferenceMonitor +
// storage::Evaluate) is the oracle tests/engine_equivalence_test.cc
// compares it against.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "cq/query.h"
#include "engine/disclosure_engine.h"
#include "policy/explain.h"
#include "storage/database.h"

namespace fdc::storage {

class GuardedDatabase {
 public:
  /// All referenced objects must outlive the guarded database.
  GuardedDatabase(const Database* db, const label::ViewCatalog* catalog,
                  const policy::SecurityPolicy* policy,
                  engine::EngineOptions options = {})
      : engine_(db, catalog, *policy, std::move(options)) {}

  /// Submits a conjunctive query on behalf of `principal`. Answers iff the
  /// cumulative disclosure stays below some policy partition; otherwise
  /// returns PolicyViolation and leaves the principal's state unchanged.
  Result<std::vector<Tuple>> Query(const std::string& principal,
                                   const cq::ConjunctiveQuery& query) {
    return engine_.Query(principal, query);
  }

  /// SQL convenience wrapper.
  Result<std::vector<Tuple>> QuerySql(const std::string& principal,
                                      const std::string& sql) {
    return engine_.QuerySql(principal, sql);
  }

  /// The label the monitor would use for `query` (for explanations/UIs).
  label::DisclosureLabel Explain(const cq::ConjunctiveQuery& query) const {
    return engine_.Explain(query);
  }

  /// Full per-partition diagnosis of the decision the monitor *would* make
  /// for `principal` right now — without mutating any state. Useful for
  /// developer tooling ("which permission is my app missing?").
  policy::Explanation ExplainQuery(const std::string& principal,
                                   const cq::ConjunctiveQuery& query) const {
    return engine_.ExplainQuery(principal, query);
  }

  /// Remaining consistent partitions for a principal (all partitions if the
  /// principal has not queried yet).
  uint64_t ConsistentPartitions(const std::string& principal) const {
    return engine_.ConsistentPartitions(principal);
  }

 private:
  // Mutable behind the const diagnostics: the engine is internally
  // synchronized and its "mutations" there are label-cache warmups.
  mutable engine::DisclosureEngine engine_;
};

}  // namespace fdc::storage
