#include "engine/stats_json.h"

#include <cinttypes>
#include <cstdint>

namespace fdc::engine {

namespace {

// Tiny append-only writer. Keys are fixed literals; string *values* go
// through JsonEscape unconditionally — "known-safe" is not a property the
// writer can check, and shadow-policy names are operator-supplied.
class JsonWriter {
 public:
  void Begin() { out_.push_back('{'); }
  void End() { out_.push_back('}'); }

  void Key(const char* key) {
    if (!first_) out_.push_back(',');
    first_ = false;
    out_.push_back('"');
    out_.append(key);
    out_.append("\":");
  }

  void Field(const char* key, uint64_t value) {
    Key(key);
    out_.append(std::to_string(value));
  }

  void StringField(const char* key, std::string_view value) {
    Key(key);
    out_.push_back('"');
    out_.append(JsonEscape(value));
    out_.push_back('"');
  }

  void BoolField(const char* key, bool value) {
    Key(key);
    out_.append(value ? "true" : "false");
  }

  /// Splices a pre-serialized JSON value in verbatim.
  void RawField(const char* key, std::string_view json) {
    Key(key);
    out_.append(json);
  }

  void BeginObject(const char* key) {
    Key(key);
    out_.push_back('{');
    first_ = true;
  }

  void EndObject() {
    out_.push_back('}');
    first_ = false;
  }

  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
  bool first_ = true;
};

}  // namespace

namespace {

/// Length (2..4) of the valid UTF-8 sequence starting at s[i], or 0 when
/// the bytes there are not one (truncated, lone continuation, overlong
/// encoding, surrogate, or beyond U+10FFFF).
size_t Utf8SequenceLength(std::string_view s, size_t i) {
  const unsigned char b0 = static_cast<unsigned char>(s[i]);
  size_t len;
  unsigned char lo = 0x80, hi = 0xbf;  // bounds for the first continuation
  if (b0 >= 0xc2 && b0 <= 0xdf) {
    len = 2;
  } else if (b0 >= 0xe0 && b0 <= 0xef) {
    len = 3;
    if (b0 == 0xe0) lo = 0xa0;  // reject overlong
    if (b0 == 0xed) hi = 0x9f;  // reject UTF-16 surrogates
  } else if (b0 >= 0xf0 && b0 <= 0xf4) {
    len = 4;
    if (b0 == 0xf0) lo = 0x90;  // reject overlong
    if (b0 == 0xf4) hi = 0x8f;  // reject > U+10FFFF
  } else {
    return 0;  // continuation byte, or the never-valid 0xc0/0xc1/0xf5..0xff
  }
  if (s.size() - i < len) return 0;
  const unsigned char b1 = static_cast<unsigned char>(s[i + 1]);
  if (b1 < lo || b1 > hi) return 0;
  for (size_t k = 2; k < len; ++k) {
    const unsigned char b = static_cast<unsigned char>(s[i + k]);
    if (b < 0x80 || b > 0xbf) return 0;
  }
  return len;
}

}  // namespace

std::string JsonEscape(std::string_view s) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size();) {
    const char c = s[i];
    const unsigned char u = static_cast<unsigned char>(c);
    if (u >= 0x80) {
      // Non-ASCII passes through only as complete, valid UTF-8 sequences;
      // anything else would make the whole document invalid for strict
      // RFC 8259 parsers, so each offending byte becomes a \u00XX escape.
      const size_t len = Utf8SequenceLength(s, i);
      if (len == 0) {
        out.append("\\u00");
        out.push_back(kHex[u >> 4]);
        out.push_back(kHex[u & 0xf]);
        ++i;
      } else {
        out.append(s.substr(i, len));
        i += len;
      }
      continue;
    }
    switch (c) {
      case '"':
        out.append("\\\"");
        break;
      case '\\':
        out.append("\\\\");
        break;
      case '\b':
        out.append("\\b");
        break;
      case '\f':
        out.append("\\f");
        break;
      case '\n':
        out.append("\\n");
        break;
      case '\r':
        out.append("\\r");
        break;
      case '\t':
        out.append("\\t");
        break;
      default:
        if (u < 0x20) {
          out.append("\\u00");
          out.push_back(kHex[u >> 4]);
          out.push_back(kHex[u & 0xf]);
        } else {
          out.push_back(c);
        }
    }
    ++i;
  }
  return out;
}

std::string StatsToJson(const DisclosureEngine::EngineStats& stats) {
  return StatsToJson(stats, nullptr, {});
}

std::string StatsToJson(const DisclosureEngine::EngineStats& stats,
                        const char* extra_key, std::string_view extra_json) {
  JsonWriter w;
  w.Begin();
  w.Field("epoch", stats.epoch);
  w.Field("num_principals", stats.num_principals);
  w.Field("frozen_labels", stats.frozen_labels);

  w.BeginObject("decisions");
  w.Field("submitted", stats.submitted);
  w.Field("accepted", stats.accepted);
  w.Field("refused", stats.refused);
  w.EndObject();

  w.BeginObject("principal_lifecycle");
  w.Field("live", stats.principal_map.live);
  w.Field("evictions", stats.principal_map.evictions);
  w.Field("capacity_evictions", stats.principal_map.capacity_evictions);
  w.Field("ttl_evictions", stats.principal_map.ttl_evictions);
  w.Field("residual_hits", stats.principal_map.residual_hits);
  w.Field("residual_drops", stats.principal_map.residual_drops);
  w.Field("residuals", stats.principal_map.residuals);
  w.Field("residual_bytes", stats.principal_map.residual_bytes);
  w.EndObject();

  w.BeginObject("labeler");
  w.Field("frozen_hits", stats.labeler.frozen_hits);
  w.Field("overlay_hits", stats.labeler.overlay_hits);
  w.Field("overlay_misses", stats.labeler.overlay_misses);
  w.Field("stateless_fallbacks", stats.labeler.stateless_fallbacks);
  w.Field("compiled_mask_evals", stats.labeler.compiled_mask_evals);
  w.Field("wide_mask_evals", stats.labeler.wide_mask_evals);
  w.Field("batch_mask_evals", stats.labeler.batch_mask_evals);
  w.Field("per_view_tests_avoided", stats.labeler.per_view_tests_avoided);
  w.Field("overlay_chunk_hits", stats.labeler.overlay_chunk_hits);
  w.Field("overlay_chunk_publishes", stats.labeler.overlay_chunk_publishes);
  w.Field("overlay_structures", stats.labeler.overlay_structures);
  w.Field("overlay_bytes", stats.labeler.overlay_bytes);
  w.EndObject();

  w.Field("fold_scratch_reuses", stats.fold_scratch_reuses);

  w.BeginObject("ebr");
  w.Field("epoch", stats.ebr.epoch);
  w.Field("retired", stats.ebr.retired);
  w.Field("freed", stats.ebr.freed);
  w.Field("pending", stats.ebr.pending);
  w.Field("advances", stats.ebr.advances);
  w.EndObject();

  w.BeginObject("shadow");
  w.BoolField("enabled", stats.shadow.enabled);
  w.Field("epoch", stats.shadow.epoch);
  w.StringField("policy_name", stats.shadow.policy_name);
  w.Field("evaluated", stats.shadow.evaluated);
  w.Field("agree", stats.shadow.agree);
  w.Field("shadow_stricter", stats.shadow.shadow_stricter);
  w.Field("shadow_looser", stats.shadow.shadow_looser);
  w.EndObject();

  if (extra_key != nullptr) w.RawField(extra_key, extra_json);
  w.End();
  return w.Take();
}

}  // namespace fdc::engine
