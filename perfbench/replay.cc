// The traced run's layer replays and the per-layer metrics.
//
// The served request sequence is re-derived from the seed (the request
// streams are deterministic) and fed, at the served batch size, through
// each layer's public entry point — exactly what the server fed it:
//
//   server   DecodeFrame + ParseTemplateId per frame, AppendDecision per
//            decision
//   cq       ParseDatalog (text submits, registrations), Canonicalize
//            (registrations)
//   engine   SubmitCoalesced (with and without a shadow), Explain per query
//            classified by which labeler tier counter moved
//   policy   ReferenceMonitor::SubmitBatch on the served labels, grouped by
//            principal like the engine groups a coalesced batch
//
// on twin engines built like the served one (BuildEngine, the same adhoc
// warm-up) and brought to the served engine's labeled state. The replayed
// window is the end of the timed phase, the steady state the untraced wall
// time per decision mostly measures. Each replay stage is also recorded as
// a span.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "bench.h"
#include "cq/canonical.h"
#include "cq/datalog_parser.h"
#include "policy/reference_monitor.h"
#include "server/protocol.h"

namespace fdc::perfbench {
namespace {

[[noreturn]] void Die(const char* what) {
  std::fprintf(stderr, "perfbench: replay: %s\n", what);
  std::exit(3);
}

cq::ConjunctiveQuery Parse(const Env& env, std::string_view text) {
  auto q = cq::ParseDatalog(text, env.schema);
  if (!q.ok()) Die("unparseable input");
  return std::move(q).value();
}

double Share(double part, double whole) { return whole > 0 ? part / whole : 0; }

/// A window of the served request sequence — its last replay_cap
/// requests, the steady state — in the order the replays feed it, plus what
/// the served engine had labeled before the window.
struct Sequence {
  struct Req {
    uint32_t principal;  // index into principals
    uint32_t item;       // template key (warm/churn) or universe index
    uint32_t frame_id;   // template id on the wire (kSubmit)
  };
  std::vector<std::string> principals;
  std::vector<Req> reqs;
  // Canonical template objects by template key, as the server holds them.
  std::unordered_map<uint32_t, cq::ConjunctiveQuery> templates;
  std::vector<std::string_view> registrations;  // texts registered (timed)
  // Labeled by the served engine before the window: template keys
  // (churn) or universe indices (adhoc, beyond its warm-up).
  std::vector<uint32_t> prewarm;
  size_t batch = 1;
};

Sequence BuildSequence(const Env& env, const Inputs& in, const RunResult& run,
                       size_t batch) {
  Sequence seq;
  seq.batch = std::max<size_t>(1, batch);
  const size_t cap = in.scale.replay_cap;
  if (in.workload == Workload::kChurnRollout) {
    const uint32_t per_app = static_cast<uint32_t>(in.scale.session_templates);
    size_t first = run.sessions.size();
    for (uint64_t n = 0; first > 0 && n + run.sessions[first - 1].decisions <= cap;) {
      n += run.sessions[--first].decisions;
    }
    auto add_template = [&](uint32_t app, uint32_t t) {
      const uint32_t key = app * per_app + t;
      if (!seq.templates.count(key)) {
        seq.templates.emplace(key, cq::Canonicalize(Parse(
                                       env, in.TemplateText(
                                                in.app_templates[app][t]))));
        return true;
      }
      return false;
    };
    for (size_t s = 0; s < first; ++s) {
      const uint32_t app = run.session_ids[s].app;
      for (uint32_t t = 0; t < per_app; ++t) {
        if (add_template(app, t)) seq.prewarm.push_back(app * per_app + t);
      }
    }
    std::vector<uint32_t> submits;
    for (size_t s = first; s < run.sessions.size(); ++s) {
      const SessionRecord& id = run.session_ids[s];
      seq.principals.push_back(run.sessions[s].principal);
      SessionSubmits(in, id, &submits);
      for (uint32_t t = 0; t < per_app; ++t) {
        seq.registrations.push_back(
            in.TemplateText(in.app_templates[id.app][t]));
        add_template(id.app, t);
      }
      for (uint64_t i = 0; i < run.sessions[s].decisions; ++i) {
        seq.reqs.push_back(
            {static_cast<uint32_t>(seq.principals.size() - 1),
             id.app * per_app + submits[i], submits[i]});
      }
    }
    return seq;
  }
  // warm/adhoc: each connection's last timed requests, interleaved in runs
  // of batch/conns — a coalesced batch holds every connection's pipelined
  // requests of one wake.
  const size_t conns = run.conns.size();
  std::vector<std::vector<Sequence::Req>> per_conn(conns);
  std::vector<bool> seen(in.universe.size(), false);
  const uint32_t tpc = static_cast<uint32_t>(in.scale.templates_per_conn);
  for (size_t c = 0; c < conns; ++c) {
    seq.principals.push_back(run.conns[c].principal);
    RequestStream stream(in, c, &run.conns[c].fresh_at);
    const uint64_t warm_n = in.workload == Workload::kAdhocText
                                ? in.warmup_items[c].size()
                                : 0;
    const uint64_t n = run.conns[c].decisions;
    const uint64_t first = std::max(warm_n, n - std::min<uint64_t>(n, cap / conns));
    for (uint64_t i = 0; i < n; ++i) {
      const uint32_t item = stream.Next();
      if (i < warm_n) continue;  // the twin replays the warm-up itself
      if (i < first) {
        if (in.workload == Workload::kAdhocText && !seen[item]) {
          seen[item] = true;
          seq.prewarm.push_back(item);
        }
        continue;
      }
      if (in.workload == Workload::kWarmTemplates) {
        per_conn[c].push_back({static_cast<uint32_t>(c),
                               static_cast<uint32_t>(c) * tpc + item, item});
      } else {
        per_conn[c].push_back({static_cast<uint32_t>(c), item, 0});
      }
    }
  }
  if (in.workload == Workload::kWarmTemplates) {
    for (size_t c = 0; c < conns; ++c) {
      for (uint32_t t = 0; t < tpc; ++t) {
        const std::string_view text =
            in.warm_pool.Get(in.conn_templates[c][t]);
        seq.registrations.push_back(text);
        seq.templates.emplace(static_cast<uint32_t>(c) * tpc + t,
                              cq::Canonicalize(Parse(env, text)));
      }
    }
  }
  const size_t run_len = std::max<size_t>(1, seq.batch / conns);
  std::vector<size_t> pos(conns, 0);
  for (bool any = true; any;) {
    any = false;
    for (size_t c = 0; c < conns; ++c) {
      for (size_t k = 0; k < run_len && pos[c] < per_conn[c].size(); ++k) {
        seq.reqs.push_back(per_conn[c][pos[c]++]);
        any = true;
      }
    }
  }
  return seq;
}

/// Twin engine built like the served one and brought to its state at the
/// window: adhoc twins replay the warm-up (SubmitCoalesced over the warm-up
/// items at the served window), then every twin labels what the served
/// engine labeled before the window. With `publish_ns`, each of those
/// labelings that published an overlay chunk is timed into it.
std::unique_ptr<engine::DisclosureEngine> BuildTwin(
    const Env& env, const Inputs& in, const Sequence& seq, bool shadow,
    std::vector<double>* publish_ns = nullptr) {
  auto twin = BuildEngine(env, in);
  if (shadow) {
    twin->SetShadowPolicy(in.policies[static_cast<size_t>(in.shadow_index())],
                          "shadow");
  }
  if (in.workload == Workload::kAdhocText) {
    std::vector<cq::ConjunctiveQuery> queries;
    std::vector<std::string> names;
    std::vector<engine::DisclosureEngine::SubmitRequest> reqs;
    std::vector<bool> decisions;
    const size_t conns = in.warmup_items.size();
    for (size_t c = 0; c < conns; ++c) names.push_back(AppName(in.seed, c));
    const size_t step = static_cast<size_t>(in.scale.window);
    for (size_t base = 0;; base += step) {
      queries.clear();
      reqs.clear();
      std::vector<size_t> owner;
      for (size_t c = 0; c < conns; ++c) {
        for (size_t k = base; k < base + step && k < in.warmup_items[c].size();
             ++k) {
          queries.push_back(Parse(env, in.universe.Get(in.warmup_items[c][k])));
          owner.push_back(c);
        }
      }
      if (queries.empty()) break;
      for (size_t i = 0; i < queries.size(); ++i) {
        reqs.push_back({names[owner[i]], &queries[i]});
      }
      twin->SubmitCoalesced(reqs, &decisions);
    }
  }
  for (uint32_t item : seq.prewarm) {
    cq::ConjunctiveQuery text_query;
    const cq::ConjunctiveQuery* q = &text_query;
    if (in.workload == Workload::kAdhocText) {
      text_query = Parse(env, in.universe.Get(item));
    } else {
      q = &seq.templates.at(item);
    }
    if (publish_ns == nullptr) {
      twin->Explain(*q);
      continue;
    }
    const uint64_t before = twin->Stats().labeler.overlay_chunk_publishes;
    const uint64_t t0 = NowNs();
    twin->Explain(*q);
    const double ns = static_cast<double>(NowNs() - t0);
    if (twin->Stats().labeler.overlay_chunk_publishes != before) {
      publish_ns->push_back(ns);
    }
  }
  return twin;
}

struct StageTimes {
  double decode_ns = 0, parse_ns = 0, submit_ns = 0, encode_ns = 0;
  double shadow_submit_ns = 0;
  uint64_t frames = 0, parsed = 0, decisions = 0;
};

/// Decode -> (parse) -> SubmitCoalesced -> encode, batch by batch, each
/// stage timed on its own and recorded as a span. With `shadow_twin`, every
/// batch is also submitted to it, alternating which twin goes first, so the
/// shadow's cost is a difference taken batch by batch, not across two
/// replays minutes apart.
StageTimes ReplayStages(const Env& env, const Inputs& in, const Sequence& seq,
                        engine::DisclosureEngine* twin,
                        engine::DisclosureEngine* shadow_twin,
                        SpanLog* spans) {
  StageTimes st;
  std::string frames, out;
  std::vector<cq::ConjunctiveQuery> parsed;
  std::vector<engine::DisclosureEngine::SubmitRequest> reqs;
  std::vector<bool> decisions, shadow_decisions;
  std::vector<uint64_t> epochs;
  std::vector<server::FrameView> views;
  const bool text = in.workload == Workload::kAdhocText;
  for (size_t b = 0; b < seq.reqs.size(); b += seq.batch) {
    const size_t e = std::min(seq.reqs.size(), b + seq.batch);
    frames.clear();
    for (size_t i = b; i < e; ++i) {
      if (text) {
        server::AppendSubmitText(&frames, in.universe.Get(seq.reqs[i].item));
      } else {
        server::AppendSubmit(&frames, seq.reqs[i].frame_id);
      }
    }
    const uint32_t batch_span = spans->Open("replay.batch");
    // Decode: envelope + payload parse of every frame.
    uint64_t t0 = NowNs();
    views.clear();
    const uint8_t* p = reinterpret_cast<const uint8_t*>(frames.data());
    size_t left = frames.size();
    while (left > 0) {
      server::FrameView f;
      const server::DecodeResult r = server::DecodeFrame(p, left, &f);
      if (r.status != server::DecodeStatus::kFrame) Die("decode");
      if (!text) {
        uint32_t id = 0;
        if (!server::ParseTemplateId(f.payload, &id, nullptr)) Die("payload");
      }
      views.push_back(f);
      p += r.consumed;
      left -= r.consumed;
    }
    uint64_t t1 = NowNs();
    spans->Add("replay.decode", t0, t1, batch_span);
    st.decode_ns += static_cast<double>(t1 - t0);
    st.frames += e - b;
    // Parse (text submits only; templates were canonicalized at
    // registration).
    if (text) {
      t0 = NowNs();
      parsed.clear();
      for (const server::FrameView& f : views) {
        parsed.push_back(Parse(
            env, std::string_view(reinterpret_cast<const char*>(f.payload.data()),
                                  f.payload.size())));
      }
      t1 = NowNs();
      spans->Add("replay.parse", t0, t1, batch_span);
      st.parse_ns += static_cast<double>(t1 - t0);
      st.parsed += e - b;
    }
    reqs.clear();
    for (size_t i = b; i < e; ++i) {
      const cq::ConjunctiveQuery* q =
          text ? &parsed[i - b] : &seq.templates.at(seq.reqs[i].item);
      reqs.push_back({seq.principals[seq.reqs[i].principal], q});
    }
    const bool shadow_first = shadow_twin != nullptr && (b / seq.batch) % 2 == 1;
    auto submit_shadow = [&] {
      const uint64_t s0 = NowNs();
      shadow_twin->SubmitCoalesced(reqs, &shadow_decisions);
      const uint64_t s1 = NowNs();
      spans->Add("replay.submit_shadow", s0, s1, batch_span);
      st.shadow_submit_ns += static_cast<double>(s1 - s0);
    };
    if (shadow_first) submit_shadow();
    t0 = NowNs();
    twin->SubmitCoalesced(reqs, &decisions, &epochs);
    t1 = NowNs();
    spans->Add("replay.submit", t0, t1, batch_span);
    st.submit_ns += static_cast<double>(t1 - t0);
    st.decisions += e - b;
    if (shadow_twin != nullptr && !shadow_first) submit_shadow();
    t0 = NowNs();
    out.clear();
    for (size_t i = 0; i < decisions.size(); ++i) {
      server::AppendDecision(&out, decisions[i], epochs[i]);
    }
    t1 = NowNs();
    spans->Add("replay.encode", t0, t1, batch_span);
    spans->Close(batch_span);
    st.encode_ns += static_cast<double>(t1 - t0);
  }
  return st;
}

struct ExplainTimes {
  std::vector<double> frozen_ns, chunk_ns, novel_ns, publish_ns;
  std::vector<label::DisclosureLabel> labels;  // per replayed request
};

/// Explain per query on a twin, classified by which tier counter moved.
ExplainTimes ReplayExplain(const Env& env, const Inputs& in,
                           const Sequence& seq, engine::DisclosureEngine* twin,
                           SpanLog* spans) {
  ExplainTimes ex;
  const size_t n = std::min(seq.reqs.size(), in.scale.explain_cap);
  const uint32_t span = spans->Open("replay.explain");
  for (size_t i = 0; i < n; ++i) {
    cq::ConjunctiveQuery text_query;
    const cq::ConjunctiveQuery* q;
    if (in.workload == Workload::kAdhocText) {
      text_query = Parse(env, in.universe.Get(seq.reqs[i].item));
      q = &text_query;
    } else {
      q = &seq.templates.at(seq.reqs[i].item);
    }
    const auto before = twin->Stats().labeler;
    const uint64_t t0 = NowNs();
    ex.labels.push_back(twin->Explain(*q));
    const double ns = static_cast<double>(NowNs() - t0);
    const auto after = twin->Stats().labeler;
    if (after.overlay_chunk_publishes != before.overlay_chunk_publishes) {
      ex.publish_ns.push_back(ns);
    } else if (after.frozen_hits != before.frozen_hits) {
      ex.frozen_ns.push_back(ns);
    } else if (after.overlay_chunk_hits != before.overlay_chunk_hits) {
      ex.chunk_ns.push_back(ns);
    } else if (after.overlay_misses != before.overlay_misses) {
      ex.novel_ns.push_back(ns);
    }
  }
  spans->Close(span);
  return ex;
}

/// ReferenceMonitor::SubmitBatch on the served labels, batch by batch,
/// grouped by principal (arrival order kept inside a group).
double ReplayMonitor(const Inputs& in, const Sequence& seq,
                     const std::vector<label::DisclosureLabel>& labels,
                     SpanLog* spans, uint64_t* count) {
  const policy::ReferenceMonitor monitor(&in.policies[0]);
  std::vector<policy::PrincipalState> states(seq.principals.size(),
                                             monitor.InitialState());
  std::vector<std::vector<const label::DisclosureLabel*>> groups(
      seq.principals.size());
  std::vector<uint32_t> touched;  // principals with a group in this batch
  double ns = 0;
  const uint32_t span = spans->Open("replay.monitor");
  for (size_t b = 0; b < labels.size(); b += seq.batch) {
    const size_t e = std::min(labels.size(), b + seq.batch);
    for (size_t i = b; i < e; ++i) {
      const uint32_t p = seq.reqs[i].principal;
      if (groups[p].empty()) touched.push_back(p);
      groups[p].push_back(&labels[i]);
    }
    const uint64_t t0 = NowNs();
    for (uint32_t p : touched) monitor.SubmitBatch(&states[p], groups[p]);
    ns += static_cast<double>(NowNs() - t0);
    for (uint32_t p : touched) groups[p].clear();
    touched.clear();
  }
  spans->Close(span);
  *count = labels.size();
  return ns;
}

template <typename T>
double Delta(T after, T before) {
  return static_cast<double>(after) - static_cast<double>(before);
}

}  // namespace

std::vector<Metric> TraceLayers(const Env& env, const Inputs& in,
                                const RunResult& u, const RunResult& t,
                                SpanLog* spans, double calib_us) {
  const auto& sb = u.before.server;
  const auto& sa = u.after.server;
  const auto& eb = u.before.engine;
  const auto& ea = u.after.engine;
  const double wall_ns = static_cast<double>(u.after.wall_ns);
  const double decisions = Delta(sa.decisions, sb.decisions);
  const double batch_mean = Share(decisions, Delta(sa.coalesced_batches,
                                                   sb.coalesced_batches));
  const double wall_per_dec = Share(wall_ns, static_cast<double>(u.timed_decisions));
  const double traced_per_dec = Share(static_cast<double>(t.after.wall_ns),
                                      static_cast<double>(t.timed_decisions));

  // Layer replays on twins.
  const Sequence seq =
      BuildSequence(env, in, u, static_cast<size_t>(batch_mean + 0.5));
  StageTimes plain;
  {
    auto twin = BuildTwin(env, in, seq, /*shadow=*/false);
    std::unique_ptr<engine::DisclosureEngine> shadow_twin;
    if (in.workload == Workload::kChurnRollout) {
      shadow_twin = BuildTwin(env, in, seq, /*shadow=*/true);
    }
    plain = ReplayStages(env, in, seq, twin.get(), shadow_twin.get(), spans);
  }
  ExplainTimes ex;
  {
    std::vector<double> publish_ns;
    auto twin = BuildTwin(env, in, seq, /*shadow=*/false, &publish_ns);
    ex = ReplayExplain(env, in, seq, twin.get(), spans);
    ex.publish_ns.insert(ex.publish_ns.end(), publish_ns.begin(),
                         publish_ns.end());
  }
  uint64_t monitored = 0;
  const double monitor_ns = ReplayMonitor(in, seq, ex.labels, spans, &monitored);
  // Registrations: parse + canonicalize per registered template.
  double reg_parse_ns = 0, canon_ns = 0;
  {
    const uint32_t span = spans->Open("replay.register");
    for (std::string_view text : seq.registrations) {
      const uint64_t t0 = NowNs();
      cq::ConjunctiveQuery q = Parse(env, text);
      const uint64_t t1 = NowNs();
      const cq::ConjunctiveQuery c = cq::Canonicalize(q);
      const uint64_t t2 = NowNs();
      if (c.atoms().size() != q.atoms().size()) Die("canonicalize");
      reg_parse_ns += static_cast<double>(t1 - t0);
      canon_ns += static_cast<double>(t2 - t1);
    }
    spans->Close(span);
  }
  const double regs = static_cast<double>(seq.registrations.size());

  const double decode_ns = Share(plain.decode_ns, static_cast<double>(plain.frames));
  const double encode_ns =
      Share(plain.encode_ns, static_cast<double>(plain.decisions));
  const double submit_ns =
      Share(plain.submit_ns, static_cast<double>(plain.decisions));
  const double parse_ns =
      in.workload == Workload::kAdhocText
          ? Share(plain.parse_ns, static_cast<double>(plain.parsed))
          : Share(reg_parse_ns, regs);
  const double canonicalize_ns = Share(canon_ns, regs);
  // Parse work per served decision: every text submit (adhoc); a session's
  // registrations spread over its submits (churn); none in the warm steady
  // state (templates registered during set-up).
  double parse_per_dec = 0;
  if (in.workload == Workload::kAdhocText) parse_per_dec = parse_ns;
  if (in.workload == Workload::kChurnRollout) {
    parse_per_dec = (parse_ns + canonicalize_ns) *
                    Share(regs, static_cast<double>(seq.reqs.size()));
  }

  const auto& lb = eb.labeler;
  const auto& la = ea.labeler;
  const double frozen = Delta(la.frozen_hits, lb.frozen_hits);
  const double chunk = Delta(la.overlay_chunk_hits, lb.overlay_chunk_hits);
  const double locked = Delta(la.overlay_hits, lb.overlay_hits) - chunk;
  const double novel = Delta(la.overlay_misses, lb.overlay_misses);
  const double stateless = Delta(la.stateless_fallbacks, lb.stateless_fallbacks);
  const double labeled = frozen + chunk + locked + novel + stateless;
  const double novel_all =
      Delta(la.overlay_misses, u.warm_before.engine.labeler.overlay_misses);
  const double evals = Delta(la.compiled_mask_evals, lb.compiled_mask_evals);
  const double cpu_worker = Delta(u.after.worker_cpu_ns, u.before.worker_cpu_ns);
  const double cpu_client = Delta(u.after.client_cpu_ns, u.before.client_cpu_ns);

  std::vector<Metric> m = {
      {"server.busy_share", "share", Share(cpu_worker, wall_ns)},
      {"server.batch_mean", "count", batch_mean},
      {"server.bytes_per_decision", "B",
       Share(Delta(sa.bytes_read + sa.bytes_written,
                   sb.bytes_read + sb.bytes_written),
             decisions)},
      {"server.decode_ns", "ns", decode_ns},
      {"server.encode_ns", "ns", encode_ns},
      {"server.wire_ns_per_decision", "ns", wall_per_dec - submit_ns},
      {"server.session_start_us", "us", u.session_start_p50_us},
      {"server.backpressure_pauses", "count",
       Delta(sa.backpressure_pauses, sb.backpressure_pauses)},
      {"server.protocol_errors", "count",
       Delta(sa.protocol_errors, sb.protocol_errors)},
      {"cq.parse_ns", "ns", parse_ns},
      {"cq.canonicalize_ns", "ns", canonicalize_ns},
      {"engine.submit_ns_per_decision", "ns", submit_ns},
      {"engine.label.frozen_share", "share", Share(frozen, labeled)},
      {"engine.label.chunk_share", "share", Share(chunk, labeled)},
      {"engine.label.locked_share", "share", Share(locked, labeled)},
      {"engine.label.novel_share", "share", Share(novel, labeled)},
      {"engine.label.stateless_share", "share", Share(stateless, labeled)},
      {"engine.label.frozen_ns", "ns", Median(ex.frozen_ns)},
      {"engine.label.chunk_ns", "ns", Median(ex.chunk_ns)},
      {"engine.label.novel_us", "us", Median(ex.novel_ns) / 1e3},
      {"engine.label.publishes", "count",
       Delta(la.overlay_chunk_publishes, lb.overlay_chunk_publishes)},
      {"engine.label.publish_ms", "ms", Median(ex.publish_ns) / 1e6},
      {"engine.overlay_kib_per_novel", "KiB",
       Share(u.rss_after_timed_kib - u.rss_before_warmup_kib, novel_all)},
      {"engine.principals.live", "count",
       static_cast<double>(ea.principal_map.live)},
      {"engine.principals.evictions", "count",
       Delta(ea.principal_map.evictions, eb.principal_map.evictions)},
      {"engine.principals.residual_hits", "count",
       Delta(ea.principal_map.residual_hits, eb.principal_map.residual_hits)},
      {"engine.principals.residual_kib", "KiB",
       static_cast<double>(ea.principal_map.residual_bytes) / 1024.0},
      {"engine.shadow.evaluated", "count",
       Delta(ea.shadow.evaluated, eb.shadow.evaluated)},
      {"engine.shadow.ns_per_decision", "ns",
       in.workload == Workload::kChurnRollout
           ? Share(plain.shadow_submit_ns, static_cast<double>(plain.decisions)) -
                 submit_ns
           : 0},
      {"policy.monitor_ns", "ns",
       Share(monitor_ns, static_cast<double>(monitored))},
      {"policy.accept_share", "share",
       Share(static_cast<double>(u.accepted),
             static_cast<double>(u.timed_decisions))},
      {"label.mask_evals_per_novel", "count", Share(evals, novel)},
      {"label.batch_share", "share",
       Share(Delta(la.batch_mask_evals, lb.batch_mask_evals), evals)},
      {"artifact.load_us", "us", Median(t.load_us)},
      {"artifact.validate_us", "us", Median(t.validate_us)},
      {"artifact.convert_us", "us", Median(t.convert_us)},
      {"engine.publish_us", "us", Median(t.publish_us)},
      {"epoch.retired", "count", Delta(ea.ebr.retired, eb.ebr.retired)},
      {"epoch.pending_max", "count", static_cast<double>(u.ebr_pending_max)},
      {"epoch.advances", "count", Delta(ea.ebr.advances, eb.ebr.advances)},
      {"client.busy_share", "share", Share(cpu_client, wall_ns)},
      {"machine.calib_us", "us", calib_us},
      {"trace.overhead_share", "share",
       Share(traced_per_dec - wall_per_dec, wall_per_dec)},
      {"trace.accounted_share", "share",
       Share(decode_ns + parse_per_dec + submit_ns + encode_ns, wall_per_dec)},
  };
  return m;
}

}  // namespace fdc::perfbench
