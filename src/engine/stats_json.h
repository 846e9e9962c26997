// One JSON schema for DisclosureEngine::Stats(), shared by every consumer
// that externalizes engine counters: the serving front end's /stats frame
// (server/disclosure_server.cc) and examples/end_to_end_monitor.cpp print
// byte-identical documents, so dashboards and tests parse one shape.
//
// The document is a flat two-level object mirroring EngineStats' nesting:
//
//   {"epoch": 3,
//    "num_principals": 12, "frozen_labels": 512,
//    "decisions": {"submitted": N, "accepted": N, "refused": N},
//    "principal_lifecycle": {"live": ..., "evictions": ...,
//      "capacity_evictions": ..., "ttl_evictions": ..., "residual_hits": ...,
//      "residual_drops": ..., "residuals": ..., "residual_bytes": ...},
//    "labeler": {"frozen_hits": ..., "overlay_hits": ..., "overlay_misses":
//      ..., "stateless_fallbacks": ..., "compiled_mask_evals": ...,
//      "wide_mask_evals": ..., "batch_mask_evals": ...,
//      "per_view_tests_avoided": ..., "overlay_chunk_hits": ...,
//      "overlay_chunk_publishes": ..., "overlay_structures": ...,
//      "overlay_bytes": ...},
//    "fold_scratch_reuses": ...,
//    "ebr": {"epoch": ..., "retired": ..., "freed": ..., "pending": ...,
//      "advances": ...},
//    "shadow": {"enabled": false, "epoch": ..., "policy_name": "...",
//      "evaluated": ..., "agree": ..., "shadow_stricter": ...,
//      "shadow_looser": ...}}
//
// All values are non-negative integers except shadow.enabled (a bool) and
// shadow.policy_name — free operator-chosen text (SetShadowPolicy /
// a policy artifact's embedded name), emitted through JsonEscape. The ebr
// block is the process-wide epoch::Domain (see epoch::DomainStats).
//
// Consumers that own counters of their own (the serving front end's
// reap/drain/shed statistics) splice them in as one extra top-level key
// via the two-argument overload — e.g. the server's /stats document is
// the engine document plus a final "server": {...} object. The engine
// cannot depend on the server layer, so the fragment arrives pre-
// serialized; the caller is responsible for it being a valid JSON value.
#pragma once

#include <string>
#include <string_view>

#include "engine/disclosure_engine.h"

namespace fdc::engine {

/// Escapes `s` for inclusion inside a JSON string literal (RFC 8259 §7):
/// quote, backslash, and every control character below 0x20 (\b \f \n \r
/// \t get their short forms, the rest \u00XX). Bytes >= 0x80 pass through
/// only as complete, valid UTF-8 sequences (no overlongs, surrogates, or
/// values past U+10FFFF); every byte of an invalid sequence is emitted as
/// \u00XX so the document stays parseable even when `s` came out of an
/// arbitrary artifact blob. Returns the escaped body WITHOUT surrounding
/// quotes. Anything that emits operator-supplied text into JSON (policy
/// names, file paths) must route through this.
std::string JsonEscape(std::string_view s);

/// Serializes `stats` into the JSON document described above. Output is
/// deterministic (fixed key order, no whitespace variation) and valid JSON.
std::string StatsToJson(const DisclosureEngine::EngineStats& stats);

/// As above, plus one trailing `"extra_key": <extra_json>` member.
/// `extra_json` must be a complete, valid JSON value (it is spliced in
/// verbatim, unescaped).
std::string StatsToJson(const DisclosureEngine::EngineStats& stats,
                        const char* extra_key, std::string_view extra_json);

}  // namespace fdc::engine
