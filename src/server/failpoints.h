// Deterministic syscall failpoints for the serving front end.
//
// Every socket-layer syscall the server's event loop issues goes through
// the thin wrappers below. When the harness is DISABLED (the default at
// runtime, and the only state in production) each wrapper is a direct
// passthrough behind one relaxed atomic load. The harness is always
// compiled in; that load is its whole cost on the serving path.
//
// When ENABLED, every intercepted call rolls against a seeded counter-
// indexed hash (SplitMix64 over (seed, global call index, op)), so a fault
// schedule is a pure function of the seed and the interleaving — a
// single-worker server replays the identical schedule run over run. Two
// independent fault classes per call:
//
//   * benign faults (Config::rate): EINTR, EAGAIN, and short reads/writes
//     (a short IO really transfers a truncated prefix — no bytes are ever
//     dropped or duplicated, exactly like a real partial transfer). Every
//     correct caller must absorb these transparently.
//   * lethal faults (Config::lethal_rate): ECONNRESET / EPIPE / ENOMEM on
//     recv/send and EMFILE / ENFILE on accept4 — the classes that kill a
//     connection or exhaust a resource. Correct callers degrade (close the
//     one connection, shed the one accept) without leaking or corrupting
//     anything else.
//
// close(2) never skips the real close — on Linux the fd is released even
// when close reports EINTR, and a shim that "failed" a close without
// closing would manufacture fd leaks the caller cannot fix. epoll_wait
// only ever gets EINTR (its sole transient failure in this server).
//
// Activation: programmatic (Enable/Disable, or ScopedFailpoints in tests)
// or the FDC_FAILPOINTS environment variable, parsed by EnableFromEnv —
// "seed=7,rate=0.2,lethal=0.01,ops=recv|send|accept|close|epoll,short=0.5"
// (any subset; unknown keys are rejected). DisclosureServer::Start calls
// EnableFromEnv, so a daemon run under fault injection needs no code.
#pragma once

#include <sys/epoll.h>
#include <sys/socket.h>

#include <cstddef>
#include <cstdint>
#include <sys/types.h>

namespace fdc::server::failpoints {

/// Bitmask of intercepted operations.
enum Op : uint32_t {
  kAccept = 1u << 0,
  kRecv = 1u << 1,
  kSend = 1u << 2,
  kClose = 1u << 3,
  kEpollWait = 1u << 4,
};
inline constexpr uint32_t kAllOps =
    kAccept | kRecv | kSend | kClose | kEpollWait;

struct Config {
  /// Seed for the deterministic per-call schedule.
  uint64_t seed = 1;
  /// Probability of a benign fault (EINTR / EAGAIN / short IO) per call.
  double rate = 0.1;
  /// Probability of a lethal fault (ECONNRESET / EPIPE / ENOMEM on IO,
  /// EMFILE / ENFILE on accept) per call. Rolled independently of `rate`;
  /// lethal wins when both hit.
  double lethal_rate = 0.0;
  /// Among benign recv/send faults, the fraction delivered as short
  /// transfers instead of errno injections.
  double short_io = 0.5;
  /// Which wrappers actively inject (others pass through).
  uint32_t ops = kAllOps;
};

/// Monotone process-wide counters (all writes relaxed; read with Current).
struct Stats {
  uint64_t calls = 0;         // intercepted calls while enabled
  uint64_t faults = 0;        // total injections (benign + lethal)
  uint64_t eintr = 0;
  uint64_t eagain = 0;
  uint64_t short_reads = 0;
  uint64_t short_writes = 0;
  uint64_t econnreset = 0;
  uint64_t epipe = 0;
  uint64_t enomem = 0;
  uint64_t emfile = 0;        // EMFILE + ENFILE + ECONNABORTED on accept
};

/// Installs `config` and starts injecting. Safe to call while server
/// threads are running (fields are published individually; a torn view is
/// at worst one call injected under a mix of old/new rates).
void Enable(const Config& config);
void Disable();
bool Enabled();

/// Parses FDC_FAILPOINTS (or `env_value` when non-null, for tests) and
/// enables the harness iff the variable is present and well-formed.
/// Returns false (leaving the harness untouched) on absent or malformed
/// input.
///
/// Value validation rules (every violation rejects the whole spec):
///   * seed   — decimal digits only: no sign ("seed=-1" must not wrap to
///              2^64-1), no trailing garbage, and no silent ERANGE clamp
///              to ULLONG_MAX for values beyond 2^64-1.
///   * rate / lethal / short — a finite double in [0.0, 1.0]. Non-finite
///              spellings ("nan", "inf") are rejected explicitly: NaN
///              compares false against both range bounds, so it would
///              otherwise slip through and disable every probability
///              comparison downstream.
///   * ops    — '|'-separated subset of accept|recv|send|close|epoll;
///              empty or unknown names are rejected.
bool EnableFromEnv(const char* env_value = nullptr);

Stats Current();
void ResetStats();

/// RAII enable/disable for tests and benchmarks.
class ScopedFailpoints {
 public:
  explicit ScopedFailpoints(const Config& config) { Enable(config); }
  ~ScopedFailpoints() { Disable(); }
  ScopedFailpoints(const ScopedFailpoints&) = delete;
  ScopedFailpoints& operator=(const ScopedFailpoints&) = delete;
};

// The wrappers. Signatures match the syscalls; errno is set exactly as the
// real call would set it.
int Accept4(int fd, sockaddr* addr, socklen_t* addrlen, int flags);
ssize_t Recv(int fd, void* buf, size_t len, int flags);
ssize_t Send(int fd, const void* buf, size_t len, int flags);
int Close(int fd);
int EpollWait(int epfd, epoll_event* events, int maxevents, int timeout_ms);

}  // namespace fdc::server::failpoints
