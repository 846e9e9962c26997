#include "common/epoch.h"

#include <cstdio>
#include <cstdlib>

namespace fdc::epoch {

Domain::Domain() = default;

Domain& Domain::Instance() {
  // Intentionally leaked: participants may unpin during process teardown
  // after static destructors would have run.
  static Domain* domain = new Domain();
  return *domain;
}

namespace {

// Per-thread participation record. Lives in the thread, not the domain, so
// thread exit releases the slot automatically.
struct ThreadRecord {
  size_t slot = static_cast<size_t>(-1);
  uint32_t depth = 0;

  ~ThreadRecord();
};

thread_local ThreadRecord t_record;

}  // namespace

size_t Domain::AcquireSlot() {
  for (size_t i = 0; i < kMaxSlots; ++i) {
    bool expected = false;
    if (slots_[i].in_use.compare_exchange_strong(expected, true,
                                                 std::memory_order_acq_rel)) {
      // seq_cst so a scan that follows this thread's first announcement in
      // the total order covers its slot (see epoch.h).
      size_t hw = slot_high_water_.load(std::memory_order_seq_cst);
      while (i + 1 > hw && !slot_high_water_.compare_exchange_weak(
                               hw, i + 1, std::memory_order_seq_cst)) {
      }
      return i;
    }
  }
  std::fprintf(stderr, "fdc::epoch::Domain: participant slots exhausted\n");
  std::abort();
}

void Domain::ReleaseSlot(size_t idx) {
  slots_[idx].announce.store(0, std::memory_order_release);
  slots_[idx].in_use.store(false, std::memory_order_release);
}

ThreadRecord::~ThreadRecord() {
  if (slot != static_cast<size_t>(-1)) {
    Domain::Instance().ReleaseSlot(slot);
    slot = static_cast<size_t>(-1);
  }
}

void Domain::Pin() {
  ThreadRecord& tr = t_record;
  if (tr.depth++ > 0) return;  // nested guard: outermost pin already holds
  if (tr.slot == static_cast<size_t>(-1)) tr.slot = AcquireSlot();
  // Both seq_cst: they and the scan in TryAdvance lie in one total order
  // (see epoch.h), so either the collector sees this announcement, or this
  // thread sees every pointer published before the collector's scan.
  uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  slots_[tr.slot].announce.store((e << 1) | 1, std::memory_order_seq_cst);
}

void Domain::Unpin() {
  ThreadRecord& tr = t_record;
  if (--tr.depth > 0) return;
  slots_[tr.slot].announce.store(0, std::memory_order_release);
}

void Domain::Retire(void* ptr, void (*deleter)(void*)) {
  auto* node = new Retired;
  node->ptr = ptr;
  node->deleter = deleter;
  node->epoch = global_epoch_.load(std::memory_order_seq_cst);
  // Counted before the push: once the node is on the list another thread's
  // Collect() may free (and count) it.
  retired_count_.fetch_add(1, std::memory_order_relaxed);
  Retired* head = retired_head_.load(std::memory_order_relaxed);
  do {
    node->next = head;
  } while (!retired_head_.compare_exchange_weak(head, node,
                                                std::memory_order_release,
                                                std::memory_order_relaxed));
  Collect();
}

bool Domain::TryAdvance(uint64_t expected) {
  const size_t hw = slot_high_water_.load(std::memory_order_seq_cst);
  for (size_t i = 0; i < hw; ++i) {
    uint64_t a = slots_[i].announce.load(std::memory_order_seq_cst);
    if (a == 0) continue;  // quiescent
    if ((a >> 1) != expected) return false;  // lagging reader blocks advance
  }
  uint64_t e = expected;
  if (global_epoch_.compare_exchange_strong(e, expected + 1,
                                            std::memory_order_seq_cst)) {
    advance_count_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void Domain::FreeUpTo(uint64_t max_epoch) {
  // Detach the whole list, free eligible nodes, re-push the rest. Concurrent
  // Retire() pushes land on the (momentarily empty) shared head and are
  // re-examined by the next Collect().
  Retired* list = retired_head_.exchange(nullptr, std::memory_order_acquire);
  Retired* keep_head = nullptr;
  Retired* keep_tail = nullptr;
  uint64_t freed = 0;
  while (list != nullptr) {
    Retired* next = list->next;
    if (list->epoch <= max_epoch) {
      list->deleter(list->ptr);
      delete list;
      ++freed;
    } else {
      list->next = keep_head;
      keep_head = list;
      if (keep_tail == nullptr) keep_tail = list;
    }
    list = next;
  }
  if (freed != 0) freed_count_.fetch_add(freed, std::memory_order_relaxed);
  if (keep_head != nullptr) {
    Retired* head = retired_head_.load(std::memory_order_relaxed);
    do {
      keep_tail->next = head;
    } while (!retired_head_.compare_exchange_weak(head, keep_head,
                                                  std::memory_order_release,
                                                  std::memory_order_relaxed));
  }
}

void Domain::Collect() {
  // Single collector at a time; contenders just skip (their garbage is picked
  // up by the active collector or the next Retire()).
  bool expected = false;
  if (!collecting_.compare_exchange_strong(expected, true,
                                           std::memory_order_acquire)) {
    return;
  }
  uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  TryAdvance(e);
  uint64_t now = global_epoch_.load(std::memory_order_seq_cst);
  if (now >= 2) FreeUpTo(now - 2);
  collecting_.store(false, std::memory_order_release);
}

void Domain::DrainForTesting() {
  for (int i = 0; i < 8; ++i) {
    if (retired_head_.load(std::memory_order_acquire) == nullptr) return;
    Collect();
  }
}

DomainStats Domain::Stats() const {
  DomainStats s;
  s.epoch = global_epoch_.load(std::memory_order_relaxed);
  // Freed first: both counters only grow, so frees landing between the two
  // loads cannot push freed past retired. The loads are still unordered
  // relaxed reads of two counters, so pending saturates instead of
  // wrapping when a snapshot catches them out of step.
  s.freed = freed_count_.load(std::memory_order_relaxed);
  s.retired = retired_count_.load(std::memory_order_relaxed);
  s.pending = s.retired > s.freed ? s.retired - s.freed : 0;
  s.advances = advance_count_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace fdc::epoch
