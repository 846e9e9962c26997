#include "server/failpoints.h"

#include <errno.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/rng.h"

namespace fdc::server::failpoints {
namespace {

// Config is published as individual atomics rather than a heap-allocated
// snapshot: the LSan-enabled CI jobs would report a never-freed snapshot
// as a leak, and per-field relaxed loads are all the wrappers need (a torn
// view across Enable() at worst mis-rates one call).
std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_seed{1};
std::atomic<double> g_rate{0.0};
std::atomic<double> g_lethal{0.0};
std::atomic<double> g_short{0.5};
std::atomic<uint32_t> g_ops{kAllOps};

// One global call index keeps the schedule deterministic for a
// single-threaded server and merely interleaving-dependent otherwise.
std::atomic<uint64_t> g_counter{0};

struct AtomicStats {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> faults{0};
  std::atomic<uint64_t> eintr{0};
  std::atomic<uint64_t> eagain{0};
  std::atomic<uint64_t> short_reads{0};
  std::atomic<uint64_t> short_writes{0};
  std::atomic<uint64_t> econnreset{0};
  std::atomic<uint64_t> epipe{0};
  std::atomic<uint64_t> enomem{0};
  std::atomic<uint64_t> emfile{0};
};
AtomicStats g_stats;

inline void Bump(std::atomic<uint64_t>& c) {
  c.fetch_add(1, std::memory_order_relaxed);
}

// What (if anything) to inject for one intercepted call.
enum class Roll { kNone, kBenign, kLethal };

struct Decision {
  Roll roll = Roll::kNone;
  // Three independent uniform draws the per-op code uses to pick the
  // concrete fault (errno choice, short-IO split, truncation length).
  double u0 = 0.0;
  double u1 = 0.0;
  uint64_t raw = 0;
};

inline double ToUnit(uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

Decision RollFor(Op op) {
  Decision d;
  if (!g_enabled.load(std::memory_order_relaxed)) return d;
  if (!(g_ops.load(std::memory_order_relaxed) & op)) return d;
  Bump(g_stats.calls);
  const uint64_t idx = g_counter.fetch_add(1, std::memory_order_relaxed);
  // Hash (seed, call index, op) through SplitMix64 for the three draws.
  uint64_t h = g_seed.load(std::memory_order_relaxed) ^
               (idx * 0x9e3779b97f4a7c15ULL) ^
               (static_cast<uint64_t>(op) << 56);
  const uint64_t r0 = SplitMix64Next(&h);
  const uint64_t r1 = SplitMix64Next(&h);
  const uint64_t r2 = SplitMix64Next(&h);
  const double p = ToUnit(r0);
  if (p < g_lethal.load(std::memory_order_relaxed)) {
    d.roll = Roll::kLethal;
  } else if (p < g_lethal.load(std::memory_order_relaxed) +
                     g_rate.load(std::memory_order_relaxed)) {
    d.roll = Roll::kBenign;
  } else {
    return d;
  }
  Bump(g_stats.faults);
  d.u0 = ToUnit(r1);
  d.u1 = ToUnit(r2);
  d.raw = r2;
  return d;
}

}  // namespace

void Enable(const Config& config) {
  g_seed.store(config.seed, std::memory_order_relaxed);
  g_rate.store(config.rate, std::memory_order_relaxed);
  g_lethal.store(config.lethal_rate, std::memory_order_relaxed);
  g_short.store(config.short_io, std::memory_order_relaxed);
  g_ops.store(config.ops, std::memory_order_relaxed);
  g_counter.store(0, std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_release);
}

void Disable() { g_enabled.store(false, std::memory_order_release); }

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

Stats Current() {
  Stats s;
  s.calls = g_stats.calls.load(std::memory_order_relaxed);
  s.faults = g_stats.faults.load(std::memory_order_relaxed);
  s.eintr = g_stats.eintr.load(std::memory_order_relaxed);
  s.eagain = g_stats.eagain.load(std::memory_order_relaxed);
  s.short_reads = g_stats.short_reads.load(std::memory_order_relaxed);
  s.short_writes = g_stats.short_writes.load(std::memory_order_relaxed);
  s.econnreset = g_stats.econnreset.load(std::memory_order_relaxed);
  s.epipe = g_stats.epipe.load(std::memory_order_relaxed);
  s.enomem = g_stats.enomem.load(std::memory_order_relaxed);
  s.emfile = g_stats.emfile.load(std::memory_order_relaxed);
  return s;
}

void ResetStats() {
  g_stats.calls.store(0, std::memory_order_relaxed);
  g_stats.faults.store(0, std::memory_order_relaxed);
  g_stats.eintr.store(0, std::memory_order_relaxed);
  g_stats.eagain.store(0, std::memory_order_relaxed);
  g_stats.short_reads.store(0, std::memory_order_relaxed);
  g_stats.short_writes.store(0, std::memory_order_relaxed);
  g_stats.econnreset.store(0, std::memory_order_relaxed);
  g_stats.epipe.store(0, std::memory_order_relaxed);
  g_stats.enomem.store(0, std::memory_order_relaxed);
  g_stats.emfile.store(0, std::memory_order_relaxed);
}

bool EnableFromEnv(const char* env_value) {
  const char* raw = env_value ? env_value : std::getenv("FDC_FAILPOINTS");
  if (raw == nullptr || raw[0] == '\0') return false;
  Config cfg;
  cfg.rate = 0.0;  // env form starts from "inject nothing" and adds keys
  cfg.lethal_rate = 0.0;
  std::string spec(raw);
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    std::string kv = spec.substr(pos, end - pos);
    pos = end + 1;
    if (kv.empty()) continue;
    const size_t eq = kv.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = kv.substr(0, eq);
    const std::string val = kv.substr(eq + 1);
    if (val.empty()) return false;
    // Checked numeric parsing. Rates reject non-finite values explicitly:
    // "rate=nan" makes both range comparisons false, so `< 0.0 || > 1.0`
    // alone would accept it (and every comparison downstream of a NaN
    // rate would silently never fire). Seeds reject a leading sign and
    // ERANGE: strtoull "successfully" wraps "-1" and clamps overflow to
    // ULLONG_MAX, both of which would configure a seed the operator never
    // wrote.
    char* parse_end = nullptr;
    auto parse_rate = [&](double* out) {
      errno = 0;
      *out = std::strtod(val.c_str(), &parse_end);
      return parse_end != val.c_str() && *parse_end == '\0' &&
             errno != ERANGE && std::isfinite(*out) && *out >= 0.0 &&
             *out <= 1.0;
    };
    if (key == "seed") {
      // Digits only: strtoull itself skips whitespace and accepts a sign.
      if (val[0] < '0' || val[0] > '9') return false;
      errno = 0;
      cfg.seed = std::strtoull(val.c_str(), &parse_end, 10);
      if (parse_end == val.c_str() || *parse_end != '\0' || errno == ERANGE)
        return false;
    } else if (key == "rate") {
      if (!parse_rate(&cfg.rate)) return false;
    } else if (key == "lethal") {
      if (!parse_rate(&cfg.lethal_rate)) return false;
    } else if (key == "short") {
      if (!parse_rate(&cfg.short_io)) return false;
    } else if (key == "ops") {
      uint32_t ops = 0;
      size_t op_pos = 0;
      while (op_pos < val.size()) {
        size_t op_end = val.find('|', op_pos);
        if (op_end == std::string::npos) op_end = val.size();
        const std::string name = val.substr(op_pos, op_end - op_pos);
        op_pos = op_end + 1;
        if (name == "accept") {
          ops |= kAccept;
        } else if (name == "recv") {
          ops |= kRecv;
        } else if (name == "send") {
          ops |= kSend;
        } else if (name == "close") {
          ops |= kClose;
        } else if (name == "epoll") {
          ops |= kEpollWait;
        } else {
          return false;
        }
      }
      if (ops == 0) return false;
      cfg.ops = ops;
    } else {
      return false;
    }
  }
  Enable(cfg);
  return true;
}

int Accept4(int fd, sockaddr* addr, socklen_t* addrlen, int flags) {
  const Decision d = RollFor(kAccept);
  if (d.roll == Roll::kLethal) {
    // Resource exhaustion: the listener stays readable (level-triggered),
    // so a caller that just retries hot-spins. ENFILE and ECONNABORTED
    // ride along as the other accept-time failures worth distinguishing.
    Bump(g_stats.emfile);
    errno = d.u0 < 0.70 ? EMFILE : (d.u0 < 0.85 ? ENFILE : ECONNABORTED);
    return -1;
  }
  if (d.roll == Roll::kBenign) {
    if (d.u0 < 0.5) {
      Bump(g_stats.eintr);
      errno = EINTR;
    } else {
      Bump(g_stats.eagain);
      errno = EAGAIN;
    }
    return -1;
  }
  return ::accept4(fd, addr, addrlen, flags);
}

ssize_t Recv(int fd, void* buf, size_t len, int flags) {
  const Decision d = RollFor(kRecv);
  if (d.roll == Roll::kLethal) {
    if (d.u0 < 0.8) {
      Bump(g_stats.econnreset);
      errno = ECONNRESET;
    } else {
      Bump(g_stats.enomem);
      errno = ENOMEM;
    }
    return -1;
  }
  if (d.roll == Roll::kBenign) {
    if (d.u0 < g_short.load(std::memory_order_relaxed) && len > 1) {
      // Short read: really receive a truncated prefix. The bytes that do
      // arrive are genuine; the rest stay queued in the socket, exactly
      // like a partial delivery from a slow peer.
      Bump(g_stats.short_reads);
      const size_t clamped = 1 + static_cast<size_t>(d.raw % (len - 1));
      return ::recv(fd, buf, clamped, flags);
    }
    if (d.u1 < 0.5) {
      Bump(g_stats.eintr);
      errno = EINTR;
    } else {
      Bump(g_stats.eagain);
      errno = EAGAIN;
    }
    return -1;
  }
  return ::recv(fd, buf, len, flags);
}

ssize_t Send(int fd, const void* buf, size_t len, int flags) {
  const Decision d = RollFor(kSend);
  if (d.roll == Roll::kLethal) {
    if (d.u0 < 0.8) {
      Bump(g_stats.econnreset);
      errno = ECONNRESET;
    } else {
      Bump(g_stats.epipe);
      errno = EPIPE;
    }
    return -1;
  }
  if (d.roll == Roll::kBenign) {
    if (d.u0 < g_short.load(std::memory_order_relaxed) && len > 1) {
      // Short write: really transmit a truncated prefix; the caller's
      // partial-write resumption path owns the remainder.
      Bump(g_stats.short_writes);
      const size_t clamped = 1 + static_cast<size_t>(d.raw % (len - 1));
      return ::send(fd, buf, clamped, flags);
    }
    if (d.u1 < 0.5) {
      Bump(g_stats.eintr);
      errno = EINTR;
    } else {
      Bump(g_stats.eagain);
      errno = EAGAIN;
    }
    return -1;
  }
  return ::send(fd, buf, len, flags);
}

int Close(int fd) {
  const Decision d = RollFor(kClose);
  // ALWAYS execute the real close: on Linux the fd is released even when
  // close reports EINTR, and skipping it here would turn every injected
  // close fault into a manufactured fd leak no caller could prevent.
  const int rc = ::close(fd);
  if (rc == 0 && d.roll != Roll::kNone) {
    Bump(g_stats.eintr);
    errno = EINTR;
    return -1;
  }
  return rc;
}

int EpollWait(int epfd, epoll_event* events, int maxevents, int timeout_ms) {
  const Decision d = RollFor(kEpollWait);
  if (d.roll != Roll::kNone) {
    Bump(g_stats.eintr);
    errno = EINTR;
    return -1;
  }
  return ::epoll_wait(epfd, events, maxevents, timeout_ms);
}

}  // namespace fdc::server::failpoints
