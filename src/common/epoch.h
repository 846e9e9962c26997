// Epoch-based reclamation (EBR) for the wait-free read path.
//
// Readers pin the current global epoch with an epoch::Guard before touching
// any epoch-protected pointer; writers publish a replacement pointer and pass
// the old object to Retire(). A retired object is freed only once every
// participant has announced an epoch at least two ahead of the retire epoch,
// which guarantees no pinned reader can still hold a reference.
//
// Protocol (classic three-epoch EBR):
//   pin:     e = global_epoch.load(); slot.store(e<<1 | 1);
//   reader:  p = ptr.load();  ... use *p ...;  slot.store(0)  (unpin)
//   writer:  ptr.store(new); Retire(old) stamps old with global_epoch.load();
//            Collect() advances global_epoch E -> E+1 only when every
//            pinned slot announces E, and frees garbage whose retire epoch
//            is <= E-1 (i.e. global >= retire+2).
//
// Ordering argument. Every operation above except the unpin store is
// seq_cst: the pin's epoch load and announce store, the loads and
// publishing stores of every EBR-protected pointer (the engine's
// snapshot_ptr_/shadow_ptr_, LabelTable's slot array), Retire's epoch
// load, the collector's scan loads and its advancing CAS, and the slot
// high-water mark that bounds the scan. So they all lie in one total order
// S, and no standalone fence is needed (ThreadSanitizer models none).
// Take an object X unlinked by publish P and retired at epoch R. It is
// freed only after the advance from R+1 to R+2, whose scan follows P in S
// (P < Retire's epoch load, which read R < the CAS to R+1 < the scan).
// Take a reader with announce store A followed by a load L of X's pointer:
//   * A after P in S: then P < A < L, so L reads P's value or a later one,
//     and the reader never sees X.
//   * A before P in S: the reader pinned an epoch <= R, and A precedes the
//     scan, which therefore covers the slot and reads A's value (an epoch
//     other than R+1, so the advance fails) or a later store to the slot —
//     the unpin, or a re-pin sequenced after it — in which case every use
//     of X happens-before the scan, and so before the free.
// Stale announcements only delay epoch advancement (liveness), never
// safety.
//
// Guards nest: only the outermost Guard per thread announces; inner guards
// just bump a thread-local depth counter.
//
// The engine's snapshot publish and the label tables' slot-array growth
// both retire through the one process-wide Domain.

#ifndef FDC_COMMON_EPOCH_H_
#define FDC_COMMON_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <cstddef>

namespace fdc::epoch {

struct DomainStats {
  uint64_t epoch = 0;    // current global epoch
  uint64_t retired = 0;  // objects ever passed to Retire()
  uint64_t freed = 0;    // objects whose deleter has run
  // retired - freed, saturated at 0: the counters are read one after the
  // other, so a snapshot is approximate, but pending <= retired holds.
  uint64_t pending = 0;
  uint64_t advances = 0; // successful epoch advancements
};

// A single process-wide reclamation domain. All epoch-protected structures in
// the engine share it; cross-structure sharing is safe because the free rule
// only depends on reader announcements, not on which structure was read.
class Domain {
 public:
  static Domain& Instance();

  // Registers the current thread if needed and pins the current epoch.
  // Returns the participant slot index (passed back to Unpin). Nested pins
  // are handled by Guard, not here.
  void Pin();
  void Unpin();

  // Defers destruction of `ptr` until all current readers have unpinned.
  // `deleter` runs on some later Retire/Collect call (possibly from another
  // thread). Never runs inline while the caller could still hold a Guard on
  // the retiring epoch.
  void Retire(void* ptr, void (*deleter)(void*));

  template <typename T>
  void RetireDelete(T* ptr) {
    if (ptr == nullptr) return;
    Retire(const_cast<void*>(static_cast<const void*>(ptr)),
           [](void* p) { delete static_cast<T*>(const_cast<void*>(
               static_cast<const void*>(p))); });
  }

  // Attempts one epoch advancement and frees any safe garbage. Called
  // opportunistically by Retire(); exposed for tests and quiescent teardown.
  void Collect();

  // Runs Collect() until nothing is pending or no progress is possible.
  // Only meaningful when callers know readers are quiescent (tests).
  void DrainForTesting();

  DomainStats Stats() const;

  // Called from the per-thread participation record's destructor at thread
  // exit. Not part of the public protocol.
  void ReleaseSlot(size_t idx);

 private:
  Domain();
  ~Domain() = delete;  // process-lifetime singleton

  struct Slot {
    // 0 = quiescent; otherwise (epoch << 1) | 1.
    std::atomic<uint64_t> announce{0};
    std::atomic<bool> in_use{false};
    char pad[48];  // keep slots on separate cache lines
  };

  struct Retired {
    void* ptr;
    void (*deleter)(void*);
    uint64_t epoch;
    Retired* next;
  };

  static constexpr size_t kMaxSlots = 512;

  size_t AcquireSlot();
  bool TryAdvance(uint64_t expected);
  void FreeUpTo(uint64_t max_epoch);

  std::atomic<uint64_t> global_epoch_{1};
  Slot slots_[kMaxSlots];
  std::atomic<size_t> slot_high_water_{0};

  // Retire list: writers are rare (policy swaps, table growth), so a mutex
  // here costs nothing on the read path.
  std::atomic<Retired*> retired_head_{nullptr};
  std::atomic<uint64_t> retired_count_{0};
  std::atomic<uint64_t> freed_count_{0};
  std::atomic<uint64_t> advance_count_{0};
  std::atomic<bool> collecting_{false};
};

// RAII pin on the shared Domain. Cheap to nest; the outermost guard per
// thread performs one seq_cst store on entry and a release store on exit.
class Guard {
 public:
  Guard() { Domain::Instance().Pin(); }
  ~Guard() { Domain::Instance().Unpin(); }

  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;
};

}  // namespace fdc::epoch

#endif  // FDC_COMMON_EPOCH_H_
