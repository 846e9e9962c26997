// The served run: set-up, the load thread's closed loops, policy rollouts,
// and the measurement helpers they use.
//
// The load thread is this process's main thread. It owns every client
// socket (non-blocking, one epoll set) and keeps a fixed window of requests
// in flight per connection: a window slot stands for one app thread blocked
// on a decision, and a slot's next request is written as soon as its
// decision is read (closed loop). Latency is the time from the write of a
// submit to the read of its decision, kept in a fixed-size log histogram.
#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>

#include "artifact/policy_blob.h"
#include "bench.h"
#include "common/epoch.h"
#include "server/protocol.h"

namespace fdc::perfbench {

// --------------------------------------------------------------------------
// Measurement helpers.

uint64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t SelfThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

size_t Histogram::Index(uint64_t v) {
  if (v < kSub) return static_cast<size_t>(v);
  const int msb = 63 - __builtin_clzll(v);
  const int shift = msb - 7;  // log2(kSub)
  return static_cast<size_t>((shift + 1) * kSub) +
         static_cast<size_t>((v >> shift) - kSub);
}

uint64_t Histogram::Lower(size_t i) {
  if (i < kSub) return i;
  const int shift = static_cast<int>(i / kSub) - 1;
  return (static_cast<uint64_t>(kSub) + i % kSub) << shift;
}

void Histogram::Add(uint64_t v) {
  ++counts_[std::min(Index(v), counts_.size() - 1)];
  ++count_;
}

void Histogram::Clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  const double rank = q * static_cast<double>(count_ - 1);
  uint64_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    if (static_cast<double>(seen + counts_[i]) > rank) {
      // Interpolate by rank inside the bucket.
      const double lo = static_cast<double>(Lower(i));
      const double hi = static_cast<double>(Lower(i + 1));
      const double frac = (rank - static_cast<double>(seen) + 0.5) /
                          static_cast<double>(counts_[i]);
      return lo + (hi - lo) * std::min(1.0, frac);
    }
    seen += counts_[i];
  }
  return static_cast<double>(Lower(counts_.size() - 1));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint32_t SpanLog::NameId(std::string_view name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

uint32_t SpanLog::Add(std::string_view name, uint64_t start_ns,
                      uint64_t end_ns, uint32_t parent, uint64_t request) {
  if (!enabled()) return 0;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return 0;
  }
  spans_.push_back({NameId(name), parent, request, start_ns, end_ns});
  return static_cast<uint32_t>(spans_.size());
}

uint32_t SpanLog::Open(std::string_view name, uint32_t parent,
                       uint64_t request) {
  const uint64_t now = NowNs();
  return Add(name, now, now, parent, request);
}

void SpanLog::Close(uint32_t id) {
  if (id != 0) spans_[id - 1].end_ns = NowNs();
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%u,\"request\":%llu,"
                 "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 i + 1, names_[s.name].c_str(), s.parent,
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  if (dropped_ > 0) {
    std::fprintf(f, "{\"dropped_spans\":%llu}\n",
                 static_cast<unsigned long long>(dropped_));
  }
  return std::fclose(f) == 0;
}

double ReadStatusKib(const char* field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(field);
  while (std::getline(f, line)) {
    if (line.compare(0, n, field) == 0) return std::atof(line.c_str() + n);
  }
  return 0;
}

std::vector<int> ListThreadIds() {
  std::vector<int> tids;
  if (DIR* d = opendir("/proc/self/task")) {
    while (dirent* e = readdir(d)) {
      if (e->d_name[0] != '.') tids.push_back(std::atoi(e->d_name));
    }
    closedir(d);
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

uint64_t ThreadCpuNs(int tid) {
  std::ifstream f("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  unsigned long long ns = 0;
  f >> ns;
  return ns;
}

double CalibrateMachine() {
  // A fixed pointer chase over 8 MiB (memory) interleaved with integer
  // mixing (compute); the median of five passes, in µs.
  constexpr size_t kSlots = 1 << 20;
  std::vector<uint32_t> next(kSlots);
  Rng rng(0xca11b);
  for (size_t i = 0; i < kSlots; ++i) next[i] = static_cast<uint32_t>(i);
  for (size_t i = kSlots - 1; i > 0; --i) {  // one random cycle (Sattolo)
    std::swap(next[i], next[rng.Below(i)]);
  }
  std::vector<double> us;
  volatile uint64_t sink = 0;
  for (int pass = 0; pass < 5; ++pass) {
    const uint64_t t0 = NowNs();
    uint32_t p = 0;
    uint64_t h = 0x12345;
    for (int i = 0; i < 400000; ++i) {
      p = next[p];
      for (int k = 0; k < 8; ++k) h = (h ^ (h >> 31) ^ p) * 0x9e3779b97f4a7c15ULL;
    }
    sink = sink + h + p;
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return Median(us);
}

void ConnRecord::Record(bool allow, uint64_t epoch) {
  if ((decisions & 63) == 0) allow_bits.push_back(0);
  if (allow) allow_bits.back() |= 1ULL << (decisions & 63);
  if (epochs.empty() || epochs.back().second != epoch) {
    epochs.emplace_back(decisions, epoch);
  }
  ++decisions;
}

namespace {

[[noreturn]] void Die(const char* what, const std::string& why) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, why.c_str());
  std::exit(3);
}

int ConnectTo(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) Die("socket", std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Die("connect", std::strerror(errno));
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// One client connection of the load thread.
struct Client {
  int fd = -1;
  std::string out;      // staged, not yet written
  size_t out_off = 0;
  std::string in;       // received, not yet decoded
  size_t in_off = 0;
  std::vector<uint64_t> sent_ns;  // FIFO ring of in-flight send stamps
  size_t head = 0, tail = 0;      // ring indices (mod size)
  size_t staged = 0;              // requests staged since the last stamp
  uint64_t inflight = 0;
  ConnRecord* rec = nullptr;
  std::unique_ptr<RequestStream> stream;
  size_t warmup_left = 0;  // adhoc: warm-up requests not yet answered
  // churn session state
  uint32_t slot = 0;
  int acks_left = 0;       // hello + template acks still expected
  uint64_t connect_ns = 0;
  uint32_t span = 0;

  void PushStamp(uint64_t ns) {
    if (tail - head == sent_ns.size()) {
      // Grow the ring (rare: only when the window outgrows the guess).
      std::vector<uint64_t> grown(sent_ns.size() * 2 + 16);
      for (size_t i = head; i < tail; ++i) {
        grown[i - head] = sent_ns[i % sent_ns.size()];
      }
      tail -= head;
      head = 0;
      sent_ns.swap(grown);
    }
    sent_ns[tail++ % sent_ns.size()] = ns;
  }
  uint64_t PopStamp() { return sent_ns[head++ % sent_ns.size()]; }
};

/// The load generator: one instance per served run.
class LoadThread {
 public:
  LoadThread(const Env& env, const Inputs& in, SpanLog* spans,
             engine::DisclosureEngine* engine, uint16_t port, RunResult* out)
      : env_(env), in_(in), engine_(engine), port_(port), out_(out),
        spans_(spans) {
    ep_ = epoll_create1(EPOLL_CLOEXEC);
    epoch_policy_[engine_->Snapshot()->epoch()] = 0;
  }
  ~LoadThread() {
    for (Client& c : clients_) {
      if (c.fd >= 0) close(c.fd);
    }
    close(ep_);
  }

  /// Connections (and, for warm_templates, pipelined registrations) of the
  /// steady workloads; part of set-up.
  void OpenConnections() {
    const Scale& s = in_.scale;
    out_->conns.resize(s.conns);
    clients_.resize(s.conns);
    std::vector<double> session_us;
    for (int k = 0; k < s.conns; ++k) {
      Client& c = clients_[k];
      c.rec = &out_->conns[k];
      c.rec->principal = AppName(in_.seed, k);
      c.stream = std::make_unique<RequestStream>(in_, k, &c.rec->fresh_at);
      c.sent_ns.resize(static_cast<size_t>(s.window) * 2);
      c.connect_ns = NowNs();
      c.fd = ConnectTo(port_);
      server::AppendHello(&c.out, c.rec->principal);
      c.acks_left = 1;
      if (in_.workload == Workload::kWarmTemplates) {
        // All registrations pipelined in one write.
        for (size_t t = 0; t < in_.conn_templates[k].size(); ++t) {
          server::AppendRegisterTemplate(
              &c.out, static_cast<uint32_t>(t),
              in_.warm_pool.Get(in_.conn_templates[k][t]));
          ++c.acks_left;
        }
      }
      Watch(c, k);
    }
    // Write everything, then wait for every ack.
    for (Client& c : clients_) Flush(c, 0);
    WaitAcks(&session_us);
    out_->session_start_p50_us = Median(session_us);
  }

  /// adhoc_text: the untimed warm-up (each connection's share of distinct
  /// structures, window-limited).
  void WarmUp() {
    for (size_t k = 0; k < clients_.size(); ++k) {
      clients_[k].warmup_left = in_.warmup_items[k].size();
    }
    phase_ = Phase::kWarmup;
    for (Client& c : clients_) Refill(c);
    uint64_t left = 0;
    do {
      Poll(100);
      left = 0;
      for (const Client& c : clients_) left += c.warmup_left;
    } while (left > 0);
  }

  /// The closed loop: `settle` seconds of untimed traffic (the same
  /// streams), then the timed phase of `seconds`, then a drain.
  void Run(double settle, double seconds) {
    phase_ = Phase::kTimed;
    if (in_.workload == Workload::kChurnRollout) {
      clients_.resize(static_cast<size_t>(in_.scale.conns));
      slot_seq_.assign(clients_.size(), 0);
    }
    const uint64_t t0 = NowNs();
    traffic_start_ = t0;
    t_start_ = t0 + static_cast<uint64_t>(settle * 1e9);
    t_end_ = t_start_ + static_cast<uint64_t>(seconds * 1e9);
    next_swap_ = in_.scale.swap_every;
    if (in_.workload == Workload::kChurnRollout) {
      for (int j = 0; j < in_.scale.conns; ++j) StartSession(j);
    } else {
      for (Client& c : clients_) Refill(c);
    }
    bool timing = false, shadow_on = false, shadow_done = false;
    const uint64_t slice_ns = (t_end_ - t_start_) / RunResult::kSlices;
    for (uint64_t now = t0; now < t_end_; now = NowNs()) {
      Poll(0);  // spin: the load thread never sleeps on a wake-up
      SampleEpoch();
      if (now < t_start_) continue;  // settling: answers are not recorded
      if (!timing) {
        timing = true;
        ReadCounters(&out_->before);
        slice_start_ = now;
      }
      if (now >= slice_start_ + slice_ns) CloseSlice(now);
      if (in_.workload != Workload::kChurnRollout) continue;
      const uint64_t third = (t_end_ - t_start_) / 3;
      if (!shadow_on && now >= t_start_ + third) {
        shadow_on = true;
        StageShadow();
      }
      if (shadow_on && !shadow_done && now >= t_start_ + 2 * third) {
        shadow_done = true;
        engine_->ClearShadowPolicy();
      }
      if (timed_decisions_ >= next_swap_) {
        next_swap_ += in_.scale.swap_every;
        Rollout(1 + rollouts_ % in_.scale.rollout_blobs);
      }
    }
    const uint64_t end = NowNs();
    if (!timing) Die("timed phase", "too short to poll inside it");
    if (end - slice_start_ >= slice_ns / 2) CloseSlice(end);
    phase_ = Phase::kDrain;
    out_->after.wall_ns = end - t_start_;
    ReadCounters(&out_->after);
    out_->rss_after_timed_kib = ReadStatusKib("VmRSS:");
    out_->peak_rss_mb = ReadStatusKib("VmHWM:") / 1024.0;
    out_->timed_decisions = timed_decisions_;
    out_->decisions_per_s = static_cast<double>(timed_decisions_) /
                            (static_cast<double>(end - t_start_) / 1e9);
    out_->accepted = timed_accepts_;
    // Drain: stop issuing; every in-flight request must still be answered.
    const uint64_t deadline = NowNs() + 20'000'000'000ULL;
    while (Inflight() > 0 && NowNs() < deadline) Poll(50);
    if (!session_starts_.empty()) {
      out_->session_start_p50_us = Median(session_starts_);
    }
    for (Client& c : clients_) {
      out_->timed_failed += c.inflight;  // never answered
      c.inflight = 0;
    }
    out_->epoch_policy.insert(epoch_policy_.begin(), epoch_policy_.end());
    ReadFinalStates();
  }

  /// Non-churn workloads: rollouts after the timed phase on the quiescent
  /// engine (the operator's view of a rollout; no decision follows them),
  /// paced so their median spans a second of the host's moods, not one
  /// burst.
  void QuietRollouts() {
    for (int r = 0; r < in_.scale.quiet_rollouts; ++r) {
      Rollout(1 + r % in_.scale.rollout_blobs);
      usleep(5000);
    }
    out_->epoch_policy.insert(epoch_policy_.begin(), epoch_policy_.end());
  }

  uint64_t Inflight() const {
    uint64_t n = 0;
    for (const Client& c : clients_) n += c.inflight;
    return n;
  }

  void ReadCounters(Counters* c) {
    c->server = server_stats_();
    c->engine = engine_->Stats();
    c->worker_cpu_ns = worker_tid_ > 0 ? ThreadCpuNs(worker_tid_) : 0;
    c->client_cpu_ns = SelfThreadCpuNs();
  }

  std::function<server::DisclosureServer::Stats()> server_stats_;
  int worker_tid_ = 0;
  uint64_t warmup_failed_ = 0;

 private:
  enum class Phase { kSetup, kWarmup, kTimed, kDrain };

  void Watch(Client& c, size_t index) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = index;
    if (epoll_ctl(ep_, EPOLL_CTL_ADD, c.fd, &ev) != 0) {
      Die("epoll_ctl", std::strerror(errno));
    }
  }

  void WaitAcks(std::vector<double>* session_us) {
    for (;;) {
      bool done = true;
      for (const Client& c : clients_) done = done && c.acks_left == 0;
      if (done) return;
      Poll(100);
      for (Client& c : clients_) {
        if (c.acks_left == 0 && c.connect_ns != 0) {
          session_us->push_back(static_cast<double>(NowNs() - c.connect_ns) /
                                1e3);
          c.connect_ns = 0;
        }
      }
    }
  }

  /// Stages the connection's next requests up to its window.
  void Refill(Client& c) {
    if (phase_ == Phase::kWarmup) {
      while (c.inflight < static_cast<uint64_t>(in_.scale.window) &&
             c.rec->sent < in_.warmup_items[&c - clients_.data()].size()) {
        StageNext(c);
      }
    } else if (phase_ == Phase::kTimed) {
      const uint64_t fresh_due = FreshDue(NowNs());
      while (c.inflight < static_cast<uint64_t>(in_.scale.window)) {
        // adhoc: the request goes fresh while the connection is behind its
        // share of kFreshPerSecond since the traffic started.
        if (c.rec->fresh_at.size() < fresh_due) {
          c.rec->fresh_at.push_back(c.rec->sent);
        }
        StageNext(c);
      }
    }
    Flush(c, NowNs());
  }

  /// Fresh queries each adhoc connection owes by `now` (0 elsewhere),
  /// capped at its share of the generated ones.
  uint64_t FreshDue(uint64_t now) const {
    if (in_.workload != Workload::kAdhocText) return 0;
    const double conns = static_cast<double>(clients_.size());
    const double due = static_cast<double>(now - traffic_start_) / 1e9 *
                       kFreshPerSecond / conns;
    const double share =
        static_cast<double>(in_.universe.size() - in_.fresh_begin) / conns;
    return static_cast<uint64_t>(std::min(due, share));
  }

  void StageNext(Client& c) {
    const uint32_t item = c.stream->Next();
    if (in_.workload == Workload::kWarmTemplates) {
      server::AppendSubmit(&c.out, item);
    } else {
      server::AppendSubmitText(&c.out, in_.universe.Get(item));
    }
    ++c.rec->sent;
    ++c.staged;
    ++c.inflight;
  }

  /// Writes staged bytes; every request staged since the last write is
  /// stamped with `now` (the write time).
  void Flush(Client& c, uint64_t now) {
    for (; c.staged > 0; --c.staged) c.PushStamp(now);
    while (c.out_off < c.out.size()) {
      const ssize_t n = send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        // Socket buffer full: wait until writable (rare at these windows).
        pollfd p{c.fd, POLLOUT, 0};
        poll(&p, 1, 100);
        continue;
      }
      Die("send", std::strerror(errno));
    }
    c.out.clear();
    c.out_off = 0;
  }

  void Poll(int timeout_ms) {
    epoll_event events[16];
    const int n = epoll_wait(ep_, events, 16, timeout_ms);
    if (n < 0 && errno != EINTR) Die("epoll_wait", std::strerror(errno));
    for (int i = 0; i < n; ++i) {
      const size_t index = events[i].data.u64;
      if (index < clients_.size() && clients_[index].fd >= 0) {
        ReadFrom(clients_[index], index);
      }
    }
  }

  void ReadFrom(Client& c, size_t index) {
    char buf[64 * 1024];
    bool eof = false;
    for (;;) {
      const ssize_t n = recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.in.append(buf, static_cast<size_t>(n));
        if (static_cast<size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n == 0) {
        eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      eof = true;  // reset: whatever is in flight is lost (counted below)
      break;
    }
    const uint64_t now = NowNs();
    while (c.in_off < c.in.size()) {
      server::FrameView frame;
      const server::DecodeResult r = server::DecodeFrame(
          reinterpret_cast<const uint8_t*>(c.in.data()) + c.in_off,
          c.in.size() - c.in_off, &frame);
      if (r.status == server::DecodeStatus::kNeedMore) break;
      if (r.status == server::DecodeStatus::kError) {
        Die("decode", "malformed frame from the server");
      }
      OnFrame(c, frame, now);
      c.in_off += r.consumed;
    }
    if (c.in_off == c.in.size()) {
      c.in.clear();
      c.in_off = 0;
    }
    if (in_.workload == Workload::kChurnRollout && c.fd >= 0 &&
        c.acks_left == 0 && c.inflight == 0) {
      EndSession(c, index);
      return;
    }
    if (eof && c.fd >= 0) {
      epoll_ctl(ep_, EPOLL_CTL_DEL, c.fd, nullptr);
      close(c.fd);
      c.fd = -1;
    }
    if (c.fd >= 0 && in_.workload != Workload::kChurnRollout) Refill(c);
  }

  void OnFrame(Client& c, const server::FrameView& f, uint64_t now) {
    if (c.acks_left > 0) {
      // Hello and template acks arrive in order before any decision.
      const bool ok = (f.type == server::FrameType::kHelloAck ||
                       f.type == server::FrameType::kTemplateAck);
      if (!ok) Die("set-up", "expected an ack, got another frame");
      if (--c.acks_left == 0 && phase_ == Phase::kTimed) {
        session_starts_.push_back(static_cast<double>(now - c.connect_ns) /
                                  1e3);
      }
      return;
    }
    const uint64_t sent = c.PopStamp();
    --c.inflight;
    server::DecisionPayload d;
    if (f.type != server::FrameType::kDecision ||
        !server::ParseDecision(f.payload, &d)) {
      // A kError (or anything else) in place of a decision: the operation
      // failed. It still occupies the request's position in the stream.
      c.rec->Record(false, 0);
      if (phase_ == Phase::kWarmup) ++warmup_failed_;
      else ++out_->timed_failed;
    } else {
      c.rec->Record(d.allow, d.epoch);
    }
    if (phase_ == Phase::kWarmup) {
      --c.warmup_left;
      return;
    }
    if (phase_ == Phase::kTimed && sent >= t_start_ && now <= t_end_) {
      ++timed_decisions_;
      ++slice_decisions_;
      if (d.allow) ++timed_accepts_;
      out_->latency.Add(now - sent);
      slice_latency_.Add(now - sent);
    }
    if (spans_ != nullptr && (++request_seq_ & 63) == 0) {
      spans_->Add("request", sent, now, c.span, request_seq_);
    }
  }

  /// Every principal's consistent partitions at the end of the traffic,
  /// for the decision check to compare with the seed path's state.
  void ReadFinalStates() {
    out_->final_epoch = engine_->Snapshot()->epoch();
    std::vector<std::string> names;
    for (const ConnRecord& c : out_->conns) names.push_back(c.principal);
    for (size_t a = 0; a < in_.app_templates.size(); ++a) {
      names.push_back(AppName(in_.seed, a));
    }
    for (std::string& name : names) {
      const uint64_t bits = engine_->ConsistentPartitions(name);
      out_->final_states.emplace_back(std::move(name), bits);
    }
  }

  // --- churn_rollout sessions -------------------------------------------

  void StartSession(int slot) {
    Client& c = clients_[slot];
    const uint64_t seq = slot_seq_[slot]++;
    const uint32_t app = SessionApp(in_, slot, seq);
    // An app's first session since the latest rollout opens with its
    // opener (generations count from 1; 0 = never started).
    if (app_generation_.empty()) app_generation_.resize(in_.app_templates.size());
    const bool opens = app_generation_[app] != rollouts_ + 1;
    app_generation_[app] = rollouts_ + 1;
    out_->session_ids.push_back({app, static_cast<uint32_t>(slot), seq, opens});
    out_->sessions.emplace_back();
    ConnRecord& rec = out_->sessions.back();  // a deque: stays put
    rec.principal = AppName(in_.seed, app);
    c.rec = &rec;
    c.slot = static_cast<uint32_t>(slot);
    if (c.sent_ns.empty()) {
      c.sent_ns.resize(static_cast<size_t>(in_.scale.session_submits) * 2);
    }
    c.connect_ns = NowNs();
    if (spans_ != nullptr) c.span = spans_->Open("session");
    c.fd = ConnectTo(port_);
    server::AppendHello(&c.out, rec.principal);
    const auto& templates = in_.app_templates[app];
    for (size_t t = 0; t < templates.size(); ++t) {
      server::AppendRegisterTemplate(&c.out, static_cast<uint32_t>(t),
                                     in_.TemplateText(templates[t]));
    }
    c.acks_left = 1 + static_cast<int>(templates.size());
    SessionSubmits(in_, out_->session_ids.back(), &submit_ids_);
    for (uint32_t id : submit_ids_) {
      server::AppendSubmit(&c.out, id);
      ++c.staged;
      ++c.inflight;
      ++rec.sent;
    }
    Watch(c, static_cast<size_t>(slot));
    Flush(c, NowNs());
  }

  void EndSession(Client& c, size_t index) {
    epoll_ctl(ep_, EPOLL_CTL_DEL, c.fd, nullptr);
    // Every answer is in, so close with a reset: thousands of sessions per
    // second from one loopback address would otherwise pile up TIME_WAIT
    // sockets that slow every later connect (this run's and the next's).
    const linger reset{1, 0};
    setsockopt(c.fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
    close(c.fd);
    c.fd = -1;
    if (spans_ != nullptr) spans_->Close(c.span);
    c.span = 0;
    if (phase_ == Phase::kTimed && NowNs() < t_end_) {
      StartSession(static_cast<int>(index));
    }
  }

  // --- rollouts ------------------------------------------------------------

  void Rollout(int policy_index) {
    const auto& bytes = in_.blobs[static_cast<size_t>(policy_index)];
    const uint64_t t0 = NowNs();
    uint64_t epoch = 0;
    if (spans_ == nullptr) {
      // The operator path: load the artifact, hand it to the engine.
      auto blob = artifact::LoadPolicyBlob(bytes);
      if (!blob.ok()) Die("load blob", blob.status().ToString());
      auto e = engine_->UpdatePolicy(*blob);
      if (!e.ok()) Die("rollout", e.status().ToString());
      epoch = *e;
    } else {
      // Traced: the same rollout decomposed into its public steps.
      const uint32_t swap = spans_->Add("swap", t0, t0);
      uint64_t a = NowNs();
      auto blob = artifact::LoadPolicyBlob(bytes);
      uint64_t b = NowNs();
      spans_->Add("swap.load", a, b, swap);
      out_->load_us.push_back(static_cast<double>(b - a) / 1e3);
      if (!blob.ok()) Die("load blob", blob.status().ToString());
      a = NowNs();
      Status valid = artifact::ValidateAgainstCatalog(*blob, *env_.catalog);
      b = NowNs();
      spans_->Add("swap.validate", a, b, swap);
      out_->validate_us.push_back(static_cast<double>(b - a) / 1e3);
      if (!valid.ok()) Die("validate blob", valid.ToString());
      a = NowNs();
      auto policy = artifact::PolicyFromBlob(*blob);
      b = NowNs();
      spans_->Add("swap.convert", a, b, swap);
      out_->convert_us.push_back(static_cast<double>(b - a) / 1e3);
      if (!policy.ok()) Die("blob policy", policy.status().ToString());
      a = NowNs();
      epoch = engine_->UpdatePolicy(std::move(policy).value());
      b = NowNs();
      spans_->Add("swap.publish", a, b, swap);
      out_->publish_us.push_back(static_cast<double>(b - a) / 1e3);
      spans_->Close(swap);
    }
    out_->swap_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    epoch_policy_[epoch] = policy_index;
    ++rollouts_;
  }

  void StageShadow() {
    auto blob = artifact::LoadPolicyBlob(
        in_.blobs[static_cast<size_t>(in_.shadow_index())]);
    if (!blob.ok()) Die("load shadow blob", blob.status().ToString());
    auto e = engine_->SetShadowPolicy(*blob);
    if (!e.ok()) Die("stage shadow", e.status().ToString());
  }

  void CloseSlice(uint64_t now) {
    out_->slice_rate.push_back(static_cast<double>(slice_decisions_) /
                               (static_cast<double>(now - slice_start_) / 1e9));
    out_->slice_p99_us.push_back(slice_latency_.Quantile(0.99) / 1e3);
    slice_latency_.Clear();
    slice_decisions_ = 0;
    slice_start_ = now;
  }

  void SampleEpoch() {
    const uint64_t pending = epoch::Domain::Instance().Stats().pending;
    out_->ebr_pending_max = std::max(out_->ebr_pending_max, pending);
  }

  const Env& env_;
  const Inputs& in_;
  engine::DisclosureEngine* engine_;
  uint16_t port_;
  RunResult* out_;
  SpanLog* spans_;
  int ep_ = -1;
  std::vector<Client> clients_;
  Phase phase_ = Phase::kSetup;
  uint64_t traffic_start_ = 0, t_start_ = 0, t_end_ = 0;
  uint64_t timed_decisions_ = 0, timed_accepts_ = 0;
  uint64_t slice_start_ = 0, slice_decisions_ = 0;
  Histogram slice_latency_;
  uint64_t next_swap_ = 0;
  uint64_t rollouts_ = 0;
  uint64_t request_seq_ = 0;
  std::vector<uint64_t> slot_seq_;
  std::vector<uint64_t> app_generation_;  // churn: per app, see StartSession
  std::vector<uint32_t> submit_ids_;
  std::vector<double> session_starts_;
  std::map<uint64_t, int> epoch_policy_;
};

/// Pins thread `tid` (0 = the caller) to `cpu`, when the machine has it.
void PinThread(int tid, int cpu) {
  if (cpu >= static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN))) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(tid, sizeof(set), &set);
}

}  // namespace

RunResult ServeAndCheck(const Env& env, const Inputs& in,
                        const RunOptions& opts) {
  RunResult run;
  for (int rep = 0; rep < std::max(1, opts.setup_reps); ++rep) {
    const bool last = rep + 1 == std::max(1, opts.setup_reps);
    RunResult discarded;  // earlier repetitions only time their set-up
    RunResult* target = last ? &run : &discarded;
    // ---- set-up: engine (catalog compile, frozen warm pool, policy from
    // blob), Start(), connections and registrations.
    const uint64_t t0 = NowNs();
    const uint32_t setup_span =
        opts.spans != nullptr && last ? opts.spans->Open("setup") : 0;
    Env served_env;
    std::unique_ptr<engine::DisclosureEngine> engine =
        BuildEngine(served_env, in);
    server::ServerOptions sopts;
    sopts.workers = 1;
    const std::vector<int> tids_before = ListThreadIds();
    auto server = std::make_unique<server::DisclosureServer>(engine.get(), sopts);
    if (Status st = server->Start(); !st.ok()) Die("start", st.ToString());
    int worker_tid = 0;
    for (int tid : ListThreadIds()) {
      if (!std::binary_search(tids_before.begin(), tids_before.end(), tid)) {
        worker_tid = tid;
      }
    }
    LoadThread load(served_env, in, last ? opts.spans : nullptr, engine.get(),
                    server->port(), target);
    load.worker_tid_ = worker_tid;
    load.server_stats_ = [&server] { return server->stats(); };
    if (in.workload != Workload::kChurnRollout) load.OpenConnections();
    run.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (opts.spans != nullptr) opts.spans->Close(setup_span);
    if (!last) {
      server->Stop();
      continue;
    }
    // The server worker and the (spinning) load thread each get a core of
    // their own, so the scheduler never stacks one on the other.
    PinThread(worker_tid, 1);
    PinThread(0, 2);
    // ---- traffic.
    if (in.workload == Workload::kAdhocText) {
      load.ReadCounters(&run.warm_before);
      run.rss_before_warmup_kib = ReadStatusKib("VmRSS:");
      const uint32_t span =
          opts.spans != nullptr ? opts.spans->Open("warmup") : 0;
      load.WarmUp();
      if (opts.spans != nullptr) opts.spans->Close(span);
    } else {
      run.rss_before_warmup_kib = ReadStatusKib("VmRSS:");
      load.ReadCounters(&run.warm_before);
    }
    for (const ConnRecord& c : run.conns) run.warmup_attempted += c.sent;
    run.warmup_failed = load.warmup_failed_;
    const uint32_t span = opts.spans != nullptr ? opts.spans->Open("timed") : 0;
    load.Run(in.scale.settle_seconds, opts.seconds);
    if (opts.spans != nullptr) opts.spans->Close(span);
    if (in.workload != Workload::kChurnRollout) load.QuietRollouts();
    server->Stop();
    uint64_t sent = 0;
    for (const ConnRecord& c : run.conns) sent += c.sent;
    for (const ConnRecord& c : run.sessions) sent += c.sent;
    run.timed_attempted = sent - run.warmup_attempted;
  }
  const uint64_t check_start = NowNs();
  CheckDecisions(env, in, &run);
  run.check_s = static_cast<double>(NowNs() - check_start) / 1e9;
  return run;
}

}  // namespace fdc::perfbench
