// LabelTable: the engine's one map from query form to disclosure label.
//
// A label depends only on a query's structure up to variable renaming and
// atom order, so the table stores each structure's label once and lets
// every exact form known to have that structure point at it: the canonical
// form (cq::Canonicalize) and the raw forms the structure arrived as. The
// key is the form itself — a cq::RawHash match confirmed by
// ConjunctiveQuery::operator== — so two structures can never share a key,
// whatever their constants contain.
//
// Concurrency: insert-only. Find is lock-free: the reader holds an
// epoch::Guard (or the table no longer changes, as in a built
// FrozenCatalog) and walks an open-addressed array of entry pointers.
// Insert/Alias are serialized by the owner's one mutex (a FrozenCatalog
// inserts before any reader exists). Each entry is written in full before
// a release store publishes its pointer; growth fills a doubled slot
// array, publishes it with a seq_cst store, and retires the old array
// through epoch::Domain (common/epoch.h gives the ordering argument).
// Entries and labels live in deques, so they are never moved or copied,
// and a pointer a reader loaded stays valid for the table's lifetime.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "cq/query.h"
#include "label/compressed_label.h"

namespace fdc::engine {

class LabelTable {
 public:
  /// Budget for bytes(): owners stop inserting once it is reached.
  static constexpr size_t kMaxBytes = size_t{256} << 20;  // 256 MB

  LabelTable();
  ~LabelTable();

  /// The label stored for exactly `form` (`hash` = cq::RawHash(form)), or
  /// nullptr. Lock-free; see the concurrency contract above.
  const label::DisclosureLabel* Find(uint64_t hash,
                                     const cq::ConjunctiveQuery& form) const;

  /// Writer: stores `label` as one new structure's label and maps `form`
  /// (absent from the table) to it. Returns the stored label, which Alias
  /// accepts.
  const label::DisclosureLabel* Insert(uint64_t hash,
                                       const cq::ConjunctiveQuery& form,
                                       label::DisclosureLabel label);

  /// Writer: maps `form` (absent from the table) to a label this table
  /// already stores.
  void Alias(uint64_t hash, const cq::ConjunctiveQuery& form,
             const label::DisclosureLabel* label);

  /// Labels stored (one per structure).
  size_t structures() const {
    return structures_.load(std::memory_order_relaxed);
  }
  /// Bytes held: stored forms, labels and the live slot array.
  size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  /// Slot arrays published by growth.
  uint64_t publishes() const {
    return publishes_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    uint64_t hash;
    cq::ConjunctiveQuery form;
    const label::DisclosureLabel* label;
  };
  struct Slots {
    explicit Slots(size_t capacity) : at(capacity) {}
    std::vector<std::atomic<const Entry*>> at;  // power-of-two size
  };

  void Place(const Entry* entry);

  std::atomic<Slots*> slots_;
  std::deque<Entry> entries_;                  // writer-only container
  std::deque<label::DisclosureLabel> labels_;  // writer-only container
  std::atomic<size_t> structures_{0};
  std::atomic<size_t> bytes_{0};
  std::atomic<uint64_t> publishes_{0};
};

}  // namespace fdc::engine
