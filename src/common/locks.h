// Reader-side lock instrumentation for the wait-free read path proof.
//
// The property is hardware-independent: warm-path Submit / SubmitBatch /
// SubmitCoalesced perform ZERO reader-side mutex or shared_mutex
// acquisitions. We prove it by counting: every shared (reader) acquisition
// on a read-path lock bumps a thread-local counter, and the concurrency
// tests assert the delta across a warm submit is exactly zero — and that a
// control-plane DisclosureEngine::Snapshot() call, which does take the
// snapshot lock's shared side, moves it (so the zero is not vacuous).
//
// Exclusive (writer) acquisitions are deliberately NOT counted: writers may
// lock freely. Principal-map shard locks are also uncounted — they are
// writer-side by role (per-principal state mutation), not part of the
// shared read path.

#ifndef FDC_COMMON_LOCKS_H_
#define FDC_COMMON_LOCKS_H_

#include <cstdint>
#include <shared_mutex>

namespace fdc::locks {

// Count of reader-side lock acquisitions made by the calling thread since
// thread start. Tests snapshot it around a warm-path call and assert delta.
uint64_t ReaderLockAcquisitions();

// Bumps the calling thread's reader-lock counter. Used by call sites that
// take a plain std::mutex in a reader role (e.g. the containment cache
// probe) where a wrapper type would be overkill.
void CountReaderLockAcquisition();

// Drop-in replacement for std::shared_mutex that counts shared acquisitions.
// Satisfies SharedMutex requirements, so std::shared_lock / std::unique_lock
// work unchanged. Exclusive locking is pass-through and uncounted.
class CountedSharedMutex {
 public:
  void lock() { mu_.lock(); }
  bool try_lock() { return mu_.try_lock(); }
  void unlock() { mu_.unlock(); }

  void lock_shared() {
    CountReaderLockAcquisition();
    mu_.lock_shared();
  }
  bool try_lock_shared() {
    CountReaderLockAcquisition();
    return mu_.try_lock_shared();
  }
  void unlock_shared() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

}  // namespace fdc::locks

#endif  // FDC_COMMON_LOCKS_H_
