#include "engine/label_table.h"

#include <string>
#include <utility>

#include "common/epoch.h"

namespace fdc::engine {

namespace {

constexpr size_t kInitialSlots = 16;

size_t StringBytes(const std::string& s) {
  // Heap bytes only: short strings live inside the object.
  return s.capacity() > std::string().capacity() ? s.capacity() + 1 : 0;
}

// Stored forms are unnamed copies, so their name holds no heap bytes.
size_t FormHeapBytes(const cq::ConjunctiveQuery& form) {
  size_t bytes = form.head().capacity() * sizeof(cq::Term) +
                 form.atoms().capacity() * sizeof(cq::Atom) +
                 (static_cast<size_t>(form.MaxVarId()) + 64) / 64 *
                     sizeof(uint64_t);  // the distinguished-variable bits
  auto term_bytes = [](const cq::Term& t) {
    return t.is_const() ? StringBytes(t.value()) : 0;
  };
  for (const cq::Term& t : form.head()) bytes += term_bytes(t);
  for (const cq::Atom& atom : form.atoms()) {
    bytes += atom.terms.capacity() * sizeof(cq::Term);
    for (const cq::Term& t : atom.terms) bytes += term_bytes(t);
  }
  return bytes;
}

size_t LabelHeapBytes(const label::DisclosureLabel& label) {
  size_t bytes = label.atoms().capacity() * sizeof(label::PackedAtomLabel) +
                 label.wide_atoms().capacity() * sizeof(label::WideAtomLabel);
  for (const label::WideAtomLabel& atom : label.wide_atoms()) {
    bytes += atom.mask.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

constexpr size_t kSlotBytes = sizeof(std::atomic<const void*>);

}  // namespace

LabelTable::LabelTable() : slots_(new Slots(kInitialSlots)) {
  bytes_.store(kInitialSlots * kSlotBytes, std::memory_order_relaxed);
}

// Destruction implies no reader is left; arrays retired by growth are
// already in the domain.
LabelTable::~LabelTable() { delete slots_.load(std::memory_order_relaxed); }

const label::DisclosureLabel* LabelTable::Find(
    uint64_t hash, const cq::ConjunctiveQuery& form) const {
  // seq_cst, like the publish in Place: the slot array is EBR-protected
  // (common/epoch.h). Entries are never freed, so acquire suffices below.
  const Slots* slots = slots_.load(std::memory_order_seq_cst);
  const size_t mask = slots->at.size() - 1;
  for (size_t pos = static_cast<size_t>(hash) & mask;;
       pos = (pos + 1) & mask) {
    const Entry* entry = slots->at[pos].load(std::memory_order_acquire);
    if (entry == nullptr) return nullptr;
    if (entry->hash == hash && entry->form == form) return entry->label;
  }
}

const label::DisclosureLabel* LabelTable::Insert(
    uint64_t hash, const cq::ConjunctiveQuery& form,
    label::DisclosureLabel label) {
  const label::DisclosureLabel* stored = &labels_.emplace_back(std::move(label));
  structures_.store(labels_.size(), std::memory_order_relaxed);
  bytes_.fetch_add(sizeof(label::DisclosureLabel) + LabelHeapBytes(*stored),
                   std::memory_order_relaxed);
  Alias(hash, form, stored);
  return stored;
}

void LabelTable::Alias(uint64_t hash, const cq::ConjunctiveQuery& form,
                       const label::DisclosureLabel* label) {
  // The name is not part of the key; dropping it keeps none of its bytes.
  const Entry& entry = entries_.emplace_back(
      Entry{hash, cq::ConjunctiveQuery({}, form.head(), form.atoms()), label});
  bytes_.fetch_add(sizeof(Entry) + FormHeapBytes(entry.form),
                   std::memory_order_relaxed);
  Place(&entry);
}

void LabelTable::Place(const Entry* entry) {
  // First empty slot of `hash`'s probe run; only the writer calls it.
  auto free_slot = [](const Slots& slots, uint64_t hash) {
    const size_t mask = slots.at.size() - 1;
    size_t pos = static_cast<size_t>(hash) & mask;
    while (slots.at[pos].load(std::memory_order_relaxed) != nullptr) {
      pos = (pos + 1) & mask;
    }
    return pos;
  };
  Slots* slots = slots_.load(std::memory_order_relaxed);
  // Keep the load factor at or below one half so probe runs stay short.
  if (2 * entries_.size() > slots->at.size()) {
    auto* grown = new Slots(2 * slots->at.size());
    bytes_.fetch_add(slots->at.size() * kSlotBytes, std::memory_order_relaxed);
    for (const std::atomic<const Entry*>& slot : slots->at) {
      const Entry* e = slot.load(std::memory_order_relaxed);
      if (e != nullptr) {
        grown->at[free_slot(*grown, e->hash)].store(e,
                                                    std::memory_order_relaxed);
      }
    }
    slots_.store(grown, std::memory_order_seq_cst);
    epoch::Domain::Instance().RetireDelete(slots);
    publishes_.fetch_add(1, std::memory_order_relaxed);
    slots = grown;
  }
  slots->at[free_slot(*slots, entry->hash)].store(entry,
                                                  std::memory_order_release);
}

}  // namespace fdc::engine
