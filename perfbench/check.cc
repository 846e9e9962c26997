// The decision check: every served decision is replayed through the seed
// path — label::LabelingPipeline for the label, policy::ReferenceMonitor
// for the decision — per principal, in per-connection order, switching
// policy at each decision's reported epoch (consistency bits restart at the
// new policy's full mask, exactly as the engine's epoch-tagged state does).
// A mismatch, a kError in place of a decision, or a request left
// unanswered is a failed operation. So is every principal whose
// ConsistentPartitions after the traffic differs from the seed path's
// final state.
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "bench.h"
#include "cq/datalog_parser.h"
#include "label/pipeline.h"
#include "policy/reference_monitor.h"

namespace fdc::perfbench {
namespace {

/// `key` names a request's query densely (template slot or universe
/// index), so a label is computed once per query, from its text.
class SeedPath {
 public:
  SeedPath(const Env& env, const RunResult& run, const Inputs& in,
           size_t keys)
      : env_(env), run_(run), pipeline_(env.catalog.get()), labels_(keys) {
    for (const auto& p : in.policies) monitors_.emplace_back(&p);
  }

  const label::DisclosureLabel& Label(uint32_t key, std::string_view text) {
    std::unique_ptr<label::DisclosureLabel>& slot = labels_[key];
    if (slot == nullptr) {
      auto q = cq::ParseDatalog(text, env_.schema);
      if (!q.ok()) {
        std::fprintf(stderr, "perfbench: check: unparseable input\n");
        std::exit(3);
      }
      slot = std::make_unique<label::DisclosureLabel>(pipeline_.Label(*q));
    }
    return *slot;
  }

  /// Checks decision `i` of `rec`; false on a mismatch or unknown epoch.
  bool Check(const ConnRecord& rec, uint64_t i, uint64_t epoch, uint32_t key,
             std::string_view text) {
    auto pol = run_.epoch_policy.find(epoch);
    if (pol == run_.epoch_policy.end()) return false;
    State& st = states_[rec.principal];
    const policy::ReferenceMonitor& monitor = monitors_[pol->second];
    if (st.epoch != epoch) {
      st.epoch = epoch;
      st.state = monitor.InitialState();
    }
    return monitor.Submit(&st.state, Label(key, text)) == rec.Allow(i);
  }

  /// The seed path's consistent partitions for `principal` under `epoch`
  /// (the policy's full mask if it has not submitted since `epoch` began);
  /// false for an unknown epoch.
  bool Consistent(const std::string& principal, uint64_t epoch,
                  uint64_t* bits) const {
    auto pol = run_.epoch_policy.find(epoch);
    if (pol == run_.epoch_policy.end()) return false;
    auto st = states_.find(principal);
    *bits = st != states_.end() && st->second.epoch == epoch
                ? st->second.state.consistent
                : monitors_[pol->second].InitialState().consistent;
    return true;
  }

 private:
  struct State {
    uint64_t epoch = 0;
    policy::PrincipalState state;
  };
  const Env& env_;
  const RunResult& run_;
  label::LabelingPipeline pipeline_;
  std::vector<policy::ReferenceMonitor> monitors_;
  std::vector<std::unique_ptr<label::DisclosureLabel>> labels_;  // by key
  std::unordered_map<std::string, State> states_;
};

/// Walks a record's (first index, epoch) runs alongside its decisions.
class EpochCursor {
 public:
  explicit EpochCursor(const ConnRecord& rec) : rec_(rec) {}
  uint64_t At(uint64_t i) {
    while (next_ < rec_.epochs.size() && rec_.epochs[next_].first <= i) {
      epoch_ = rec_.epochs[next_++].second;
    }
    return epoch_;
  }

 private:
  const ConnRecord& rec_;
  size_t next_ = 0;
  uint64_t epoch_ = 0;
};

}  // namespace

void CheckDecisions(const Env& env, const Inputs& in, RunResult* run) {
  const uint32_t tpc = static_cast<uint32_t>(in.scale.templates_per_conn);
  const uint32_t per_app = static_cast<uint32_t>(in.scale.session_templates);
  const size_t keys =
      in.workload == Workload::kWarmTemplates ? in.conn_templates.size() * tpc
      : in.workload == Workload::kAdhocText   ? in.universe.size()
                                              : in.app_templates.size() * per_app;
  SeedPath seed(env, *run, in, keys);
  uint64_t warm_bad = 0, timed_bad = 0;
  // Epoch 0 marks a kError in place of a decision: already counted failed,
  // and the server applied nothing, so the replay skips it.
  for (size_t c = 0; c < run->conns.size(); ++c) {
    const ConnRecord& rec = run->conns[c];
    RequestStream stream(in, c, &rec.fresh_at);
    EpochCursor epochs(rec);
    const uint64_t warm_n = in.workload == Workload::kAdhocText
                                ? in.warmup_items[c].size()
                                : 0;
    for (uint64_t i = 0; i < rec.decisions; ++i) {
      const uint32_t item = stream.Next();
      const uint64_t epoch = epochs.At(i);
      if (epoch == 0) continue;
      const bool warm = in.workload == Workload::kWarmTemplates;
      const uint32_t key = warm ? static_cast<uint32_t>(c) * tpc + item : item;
      const std::string_view text =
          warm ? in.warm_pool.Get(in.conn_templates[c][item])
               : in.universe.Get(item);
      if (!seed.Check(rec, i, epoch, key, text)) {
        ++(i < warm_n ? warm_bad : timed_bad);
      }
    }
  }
  std::vector<uint32_t> submits;
  for (size_t s = 0; s < run->sessions.size(); ++s) {
    const ConnRecord& rec = run->sessions[s];
    const SessionRecord& id = run->session_ids[s];
    SessionSubmits(in, id, &submits);
    const auto& templates = in.app_templates[id.app];
    EpochCursor epochs(rec);
    for (uint64_t i = 0; i < rec.decisions; ++i) {
      const uint64_t epoch = epochs.At(i);
      if (epoch == 0) continue;
      const uint32_t t = submits[i];
      if (!seed.Check(rec, i, epoch, id.app * per_app + t,
                      in.TemplateText(templates[t]))) {
        ++timed_bad;
      }
    }
  }
  for (const auto& [principal, served] : run->final_states) {
    uint64_t expected = 0;
    if (!seed.Consistent(principal, run->final_epoch, &expected) ||
        expected != served) {
      ++run->state_mismatches;
    }
  }
  run->timed_attempted += run->final_states.size();
  run->mismatches = warm_bad + timed_bad;
  run->warmup_failed += warm_bad;
  run->timed_failed += timed_bad + run->state_mismatches;
}

}  // namespace fdc::perfbench
