// Serving front end acceptance suite.
//
// Three layers of guarantees:
//   1. Wire safety: randomized frame round-trips (including delivery split
//      across arbitrary read boundaries), plus malformed-input hardening —
//      truncated, oversized, garbage-magic, reserved-bit and random-byte
//      streams must produce clean protocol errors, never crashes or reads
//      past the buffer (the CI ASan+UBSan job runs this suite).
//   2. Decision fidelity: decisions served over a real socket are
//      bit-identical to submitting the same per-principal sequences
//      directly against a twin DisclosureEngine — including the epoch
//      carried in each response across a mid-stream UpdatePolicy.
//   3. Engine coalescing: DisclosureEngine::SubmitCoalesced (the server's
//      entry point) matches per-request Submit exactly for interleaved
//      multi-principal batches.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/disclosure_engine.h"
#include "engine/stats_json.h"
#include "server/byte_queue.h"
#include "server/client.h"
#include "server/disclosure_server.h"
#include "server/protocol.h"
#include "test_util.h"
#include "cq/printer.h"
#include "workload/policy_generator.h"

namespace fdc::server {
namespace {

using test::FbFixture;
using test::RandomWorkload;

// --- wire safety ---------------------------------------------------------

std::string RandomText(Rng* rng, size_t max_len) {
  std::string s(rng->Below(max_len + 1), '\0');
  for (char& c : s) c = static_cast<char>('a' + rng->Below(26));
  return s;
}

TEST(ProtocolTest, RandomFramesRoundTripAcrossSplitReads) {
  Rng rng(0x50c4e7ULL);
  for (int iter = 0; iter < 200; ++iter) {
    // Encode a random frame sequence into one stream.
    struct Expected {
      FrameType type;
      uint8_t flags;
      std::string payload;
    };
    std::string stream;
    std::vector<Expected> expected;
    const int frames = 1 + static_cast<int>(rng.Below(8));
    for (int i = 0; i < frames; ++i) {
      const size_t before = stream.size();
      switch (rng.Below(9)) {
        case 0:
          AppendHello(&stream, RandomText(&rng, 64));
          break;
        case 1:
          AppendHelloAck(&stream, rng.Next(), kMaxPayload);
          break;
        case 2:
          AppendRegisterTemplate(&stream,
                                 static_cast<uint32_t>(rng.Below(1000)),
                                 RandomText(&rng, 200));
          break;
        case 3:
          AppendSubmit(&stream, static_cast<uint32_t>(rng.Below(1000)),
                       rng.Below(2) == 0);
          break;
        case 4:
          AppendSubmitText(&stream, RandomText(&rng, 200),
                           rng.Below(2) == 0);
          break;
        case 5:
          AppendDecision(&stream, rng.Below(2) == 0, rng.Next(),
                         RandomText(&rng, 100));
          break;
        case 6:
          AppendStatsJson(&stream, RandomText(&rng, 300));
          break;
        case 7:
          AppendPong(&stream, rng.Next());
          break;
        default:
          AppendError(&stream, ErrorCode::kParseError,
                      static_cast<uint32_t>(rng.Below(100)),
                      RandomText(&rng, 80));
          break;
      }
      const uint8_t* frame_bytes =
          reinterpret_cast<const uint8_t*>(stream.data()) + before;
      expected.push_back(
          {static_cast<FrameType>(frame_bytes[4]), frame_bytes[5],
           stream.substr(before + kFrameHeaderSize)});
    }

    // Deliver the stream in random-sized chunks; decode as the server
    // does: a ByteQueue fed incrementally, frames peeled off the head.
    ByteQueue q;
    size_t delivered = 0;
    size_t decoded = 0;
    while (decoded < expected.size()) {
      FrameView frame;
      DecodeResult r = DecodeFrame(q.data(), q.size(), &frame);
      ASSERT_NE(r.status, DecodeStatus::kError);
      if (r.status == DecodeStatus::kFrame) {
        const Expected& e = expected[decoded];
        EXPECT_EQ(frame.type, e.type);
        EXPECT_EQ(frame.flags, e.flags);
        EXPECT_EQ(std::string(reinterpret_cast<const char*>(
                                  frame.payload.data()),
                              frame.payload.size()),
                  e.payload);
        q.Consume(r.consumed);
        ++decoded;
        continue;
      }
      ASSERT_LT(delivered, stream.size()) << "decoder starved";
      const size_t chunk =
          std::min(stream.size() - delivered, 1 + rng.Below(13));
      q.Append(stream.data() + delivered, chunk);
      delivered += chunk;
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(ProtocolTest, MalformedEnvelopesAreCleanErrors) {
  FrameView frame;

  // Truncated header: need more, never an error.
  uint8_t header[kFrameHeaderSize] = {0};
  for (size_t n = 0; n < kFrameHeaderSize; ++n) {
    EXPECT_EQ(DecodeFrame(header, n, &frame).status, DecodeStatus::kNeedMore);
  }

  // Oversized length — including values that would overflow a 32-bit
  // total — must fail before any payload arrives.
  for (uint32_t len : {kMaxPayload + 1, 0x7fffffffu, 0xffffffffu}) {
    uint8_t buf[kFrameHeaderSize];
    PutU32(buf, len);
    buf[4] = static_cast<uint8_t>(FrameType::kPing);
    buf[5] = 0;
    PutU16(buf + 6, 0);
    DecodeResult r = DecodeFrame(buf, sizeof(buf), &frame);
    EXPECT_EQ(r.status, DecodeStatus::kError);
    EXPECT_EQ(r.error, ErrorCode::kOversizedFrame);
  }

  // Nonzero reserved bytes.
  {
    uint8_t buf[kFrameHeaderSize];
    PutU32(buf, 0);
    buf[4] = static_cast<uint8_t>(FrameType::kPing);
    buf[5] = 0;
    PutU16(buf + 6, 7);
    DecodeResult r = DecodeFrame(buf, sizeof(buf), &frame);
    EXPECT_EQ(r.status, DecodeStatus::kError);
    EXPECT_EQ(r.error, ErrorCode::kMalformedFrame);
  }

  // Unknown frame types (14 is the first id past kGoingAway).
  for (uint8_t type : {uint8_t{0}, uint8_t{14}, uint8_t{200}}) {
    uint8_t buf[kFrameHeaderSize];
    PutU32(buf, 0);
    buf[4] = type;
    buf[5] = 0;
    PutU16(buf + 6, 0);
    DecodeResult r = DecodeFrame(buf, sizeof(buf), &frame);
    EXPECT_EQ(r.status, DecodeStatus::kError);
    EXPECT_EQ(r.error, ErrorCode::kUnknownType);
  }
}

// Random byte soup through the decoder and every payload parser: the only
// acceptable outcomes are kFrame/kNeedMore/kError (and parser false) —
// never a crash or an out-of-bounds read (ASan+UBSan job enforces that).
TEST(ProtocolTest, FuzzedBytesNeverCrashDecoderOrParsers) {
  Rng rng(0xf022ULL);
  for (int iter = 0; iter < 3000; ++iter) {
    std::string bytes(rng.Below(64), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.Next());
    // Bias half the inputs toward valid-looking headers so the payload
    // parsers actually run.
    if (bytes.size() >= kFrameHeaderSize && rng.Below(2) == 0) {
      PutU32(reinterpret_cast<uint8_t*>(bytes.data()),
             static_cast<uint32_t>(rng.Below(bytes.size() + 4)));
      bytes[4] = static_cast<char>(1 + rng.Below(13));
      bytes[6] = bytes[7] = 0;
    }
    const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
    FrameView frame;
    DecodeResult r = DecodeFrame(data, bytes.size(), &frame);
    if (r.status == DecodeStatus::kFrame) {
      HelloPayload hello;
      DecisionPayload decision;
      ErrorPayload error;
      uint32_t id;
      std::string_view text;
      (void)ParseHello(frame.payload, &hello);
      (void)ParseDecision(frame.payload, &decision);
      (void)ParseError(frame.payload, &error);
      (void)ParseTemplateId(frame.payload, &id, &text);
    }
  }
}

// --- tiny JSON validator (for the /stats satellite) ----------------------

class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  bool Validate() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return Object();
    if (c == '"') return String();
    if (c == '-' || (c >= '0' && c <= '9')) return Number();
    return Literal("true") || Literal("false") || Literal("null");
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) return true;
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Expect(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek('}')) return true;
      if (!Expect(',')) return false;
    }
  }

  bool String() {
    if (!Expect('"')) return false;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    return Expect('"');
  }

  bool Number() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool Peek(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Expect(char c) { return Peek(c); }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

TEST(StatsJsonTest, EngineStatsSerializeToValidJson) {
  FbFixture fb;
  engine::DisclosureEngine engine(
      /*db=*/nullptr, &fb.catalog,
      workload::PolicyGenerator(&fb.catalog, {}, 11).Next());
  const auto pool = RandomWorkload(&fb.schema, 2, 50, 0x57a75ULL);
  for (const auto& q : pool) (void)engine.Submit("app", q);

  const std::string json = engine::StatsToJson(engine.Stats());
  EXPECT_TRUE(JsonValidator(json).Validate()) << json;
  for (const char* key :
       {"\"epoch\"", "\"decisions\"", "\"submitted\"", "\"labeler\"",
        "\"overlay_structures\"", "\"overlay_bytes\"", "\"ebr\"",
        "\"shadow\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(json.find("\"interner\""), std::string::npos);
}

TEST(StatsJsonTest, JsonEscapeHandlesHostileInput) {
  EXPECT_EQ(engine::JsonEscape("plain ascii 123"), "plain ascii 123");
  EXPECT_EQ(engine::JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(engine::JsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(engine::JsonEscape("a\nb\tc\rd\be\ff"),
            "a\\nb\\tc\\rd\\be\\ff");
  EXPECT_EQ(engine::JsonEscape(std::string_view("\x00\x01\x1f", 3)),
            "\\u0000\\u0001\\u001f");
  // A name crafted to break out of the string and forge a sibling key.
  EXPECT_EQ(engine::JsonEscape("\",\"accepted\":999999,\"x\":\""),
            "\\\",\\\"accepted\\\":999999,\\\"x\\\":\\\"");
}

TEST(StatsJsonTest, JsonEscapeRejectsInvalidUtf8) {
  // Valid UTF-8 passes through untouched: 2-, 3-, and 4-byte sequences.
  EXPECT_EQ(engine::JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
  EXPECT_EQ(engine::JsonEscape("\xe2\x82\xac"), "\xe2\x82\xac");  // €
  EXPECT_EQ(engine::JsonEscape("\xf0\x9f\x94\x92"),
            "\xf0\x9f\x94\x92");  // 🔒
  // Invalid bytes become \u00XX escapes so the document stays RFC 8259
  // valid even when the name came out of an arbitrary artifact blob.
  EXPECT_EQ(engine::JsonEscape("\xff"), "\\u00ff");        // never-valid byte
  EXPECT_EQ(engine::JsonEscape("\x80meh"), "\\u0080meh");  // lone continuation
  EXPECT_EQ(engine::JsonEscape("\xc3"), "\\u00c3");        // truncated 2-byte
  EXPECT_EQ(engine::JsonEscape("\xc3x"), "\\u00c3x");      // bad continuation
  EXPECT_EQ(engine::JsonEscape("\xc0\xaf"), "\\u00c0\\u00af");  // overlong '/'
  EXPECT_EQ(engine::JsonEscape("\xe0\x80\x80"),
            "\\u00e0\\u0080\\u0080");  // overlong 3-byte
  EXPECT_EQ(engine::JsonEscape("\xed\xa0\x80"),
            "\\u00ed\\u00a0\\u0080");  // UTF-16 surrogate U+D800
  EXPECT_EQ(engine::JsonEscape("\xf4\x90\x80\x80"),
            "\\u00f4\\u0090\\u0080\\u0080");  // beyond U+10FFFF
  EXPECT_EQ(engine::JsonEscape("\xf0\x9f\x94"), "\\u00f0\\u009f\\u0094");
}

TEST(StatsJsonTest, HostileShadowPolicyNameStaysValidJson) {
  FbFixture fb;
  workload::PolicyGenerator gen(&fb.catalog, {}, 11);
  engine::DisclosureEngine engine(/*db=*/nullptr, &fb.catalog, gen.Next());
  // Operator-supplied shadow-policy name with every class of hostile
  // character: quote, backslash, newline, raw control byte.
  // (split literal: "\x01b" would greedily parse as one 0x1b escape)
  engine.SetShadowPolicy(gen.Next(),
                         std::string("evil\"name\\with\nbad\x01" "bytes"));
  const std::string json = engine::StatsToJson(engine.Stats());
  EXPECT_TRUE(JsonValidator(json).Validate()) << json;
  EXPECT_NE(json.find("\"policy_name\":\"evil\\\"name\\\\with\\nbad"
                      "\\u0001bytes\""),
            std::string::npos)
      << json;
}

// --- end-to-end over a real socket ---------------------------------------

struct ServerFixture {
  FbFixture fb;
  policy::SecurityPolicy policy;
  engine::DisclosureEngine engine;
  DisclosureServer server;

  explicit ServerFixture(uint64_t policy_seed = 3, ServerOptions opts = {})
      : policy([&] {
          workload::PolicyOptions popts;
          popts.max_partitions = 5;
          popts.max_elements_per_partition = 15;
          return workload::PolicyGenerator(&fb.catalog, popts, policy_seed)
              .Next();
        }()),
        engine(/*db=*/nullptr, &fb.catalog, policy),
        server(&engine, opts) {
    Status s = server.Start();
    if (!s.ok()) {
      ADD_FAILURE() << s.ToString();
      std::abort();
    }
  }
  ~ServerFixture() { server.Stop(); }
};

// The tentpole differential: socket decisions (template path and text
// path, pipelined and call/response) are bit-identical to a twin engine
// driven directly, including the epoch in every response across a
// mid-stream UpdatePolicy.
TEST(ServerEndToEndTest, SocketDecisionsMatchDirectEngine) {
  ServerFixture fx;
  // Twin engine fed the exact same per-principal sequences directly.
  engine::DisclosureEngine direct(/*db=*/nullptr, &fx.fb.catalog, fx.policy);

  constexpr int kPrincipals = 4;
  constexpr int kQueries = 240;
  const auto pool = RandomWorkload(&fx.fb.schema, 2, 60, 0xd1ffULL);

  std::vector<BlockingClient> clients(kPrincipals);
  for (int p = 0; p < kPrincipals; ++p) {
    ASSERT_TRUE(clients[p]
                    .Connect("127.0.0.1", fx.server.port(),
                             "app-" + std::to_string(p))
                    .ok());
    for (size_t t = 0; t < pool.size(); ++t) {
      ASSERT_TRUE(clients[p]
                      .RegisterTemplate(static_cast<uint32_t>(t),
                                        cq::ToDatalog(pool[t], fx.fb.schema))
                      .ok());
    }
  }

  // Second policy for the mid-stream epoch bump.
  workload::PolicyOptions popts;
  popts.max_partitions = 4;
  popts.max_elements_per_partition = 12;
  policy::SecurityPolicy policy_b =
      workload::PolicyGenerator(&fx.fb.catalog, popts, 99).Next();

  Rng rng(0x5e11ULL);
  for (int i = 0; i < kQueries; ++i) {
    if (i == kQueries / 2) {
      fx.engine.UpdatePolicy(policy_b);
      direct.UpdatePolicy(policy_b);
    }
    const int p = static_cast<int>(rng.Below(kPrincipals));
    const size_t t = rng.Below(pool.size());
    const std::string principal = "app-" + std::to_string(p);

    ClientResponse resp;
    if (rng.Below(4) == 0) {
      // Text path: parsed server-side per request.
      ASSERT_TRUE(clients[p]
                      .SubmitText(cq::ToDatalog(pool[t], fx.fb.schema), &resp)
                      .ok());
    } else {
      ASSERT_TRUE(clients[p].Submit(static_cast<uint32_t>(t), &resp).ok());
    }
    ASSERT_EQ(resp.type, FrameType::kDecision);

    const uint64_t direct_epoch = direct.Snapshot()->epoch();
    const bool direct_decision = direct.Submit(principal, pool[t]);
    EXPECT_EQ(resp.allow, direct_decision) << "divergence at query " << i;
    EXPECT_EQ(resp.epoch, direct_epoch) << "epoch drift at query " << i;
  }
}

// Pipelining many submits into one flush exercises the coalescing layer:
// responses come back in order, decisions still match the twin engine, and
// the server really did batch (fewer engine passes than decisions).
TEST(ServerEndToEndTest, PipelinedSubmitsCoalesceAndPreserveOrder) {
  ServerFixture fx(/*policy_seed=*/17);
  engine::DisclosureEngine direct(/*db=*/nullptr, &fx.fb.catalog, fx.policy);

  const auto pool = RandomWorkload(&fx.fb.schema, 2, 32, 0x919eULL);
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server.port(), "pipeline").ok());
  for (size_t t = 0; t < pool.size(); ++t) {
    ASSERT_TRUE(client
                    .RegisterTemplate(static_cast<uint32_t>(t),
                                      cq::ToDatalog(pool[t], fx.fb.schema))
                    .ok());
  }

  constexpr int kRounds = 4;
  constexpr int kPerRound = 128;
  Rng rng(0xabcULL);
  for (int round = 0; round < kRounds; ++round) {
    std::vector<size_t> order;
    for (int i = 0; i < kPerRound; ++i) {
      order.push_back(rng.Below(pool.size()));
      client.QueueSubmit(static_cast<uint32_t>(order.back()));
    }
    ASSERT_TRUE(client.Flush().ok());
    for (int i = 0; i < kPerRound; ++i) {
      ClientResponse resp;
      ASSERT_TRUE(client.ReadResponse(&resp).ok());
      ASSERT_EQ(resp.type, FrameType::kDecision);
      EXPECT_EQ(resp.allow, direct.Submit("pipeline", pool[order[i]]))
          << "round " << round << " index " << i;
    }
  }

  const DisclosureServer::Stats stats = fx.server.stats();
  EXPECT_EQ(stats.decisions, kRounds * kPerRound);
  EXPECT_LT(stats.coalesced_batches, stats.decisions);
  EXPECT_GT(stats.max_coalesced_batch, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(ServerEndToEndTest, ProtocolErrorsAreScopedCorrectly) {
  ServerFixture fx;

  // Fatal: submit before hello closes the connection.
  {
    BlockingClient probe;
    // Hand-rolled: connect without the Hello handshake.
    BlockingClient raw;
    ASSERT_TRUE(raw.Connect("127.0.0.1", fx.server.port(), "x").ok());
    // A fatal error: duplicate hello.
    ClientResponse resp;
    ASSERT_TRUE(raw.SubmitText("nonsense", &resp).ok());
    EXPECT_EQ(resp.type, FrameType::kError);
    EXPECT_EQ(resp.error, ErrorCode::kParseError);  // non-fatal
    // Unknown template id is fatal: server answers kError then closes.
    ASSERT_TRUE(raw.Submit(777, &resp).ok());
    EXPECT_EQ(resp.type, FrameType::kError);
    EXPECT_EQ(resp.error, ErrorCode::kUnknownTemplate);
    uint64_t epoch;
    EXPECT_FALSE(raw.Ping(&epoch).ok());  // connection is gone
  }

  // Non-fatal kParseError keeps the connection and per-connection order.
  {
    BlockingClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", fx.server.port(), "scoped").ok());
    const auto pool = RandomWorkload(&fx.fb.schema, 2, 1, 0x1ULL);
    const std::string good = cq::ToDatalog(pool[0], fx.fb.schema);
    c.QueueSubmitText(good);
    c.QueueSubmitText("Q(x) :- NoSuchRelation(x)");
    c.QueueSubmitText(good);
    ASSERT_TRUE(c.Flush().ok());
    ClientResponse r1, r2, r3;
    ASSERT_TRUE(c.ReadResponse(&r1).ok());
    ASSERT_TRUE(c.ReadResponse(&r2).ok());
    ASSERT_TRUE(c.ReadResponse(&r3).ok());
    EXPECT_EQ(r1.type, FrameType::kDecision);
    EXPECT_EQ(r2.type, FrameType::kError);
    EXPECT_EQ(r2.error, ErrorCode::kParseError);
    EXPECT_EQ(r3.type, FrameType::kDecision);
    uint64_t epoch = 0;
    EXPECT_TRUE(c.Ping(&epoch).ok());  // still alive
  }

  // Bad magic in the hello is rejected.
  {
    BlockingClient c;
    Status s = c.Connect("127.0.0.1", fx.server.port(), "");
    EXPECT_FALSE(s.ok());  // empty principal → kBadPrincipal
  }
}

TEST(ServerEndToEndTest, ServedStatsAreValidJsonAndPingReportsEpoch) {
  ServerFixture fx;
  BlockingClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", fx.server.port(), "statsapp").ok());
  const auto pool = RandomWorkload(&fx.fb.schema, 2, 4, 0x77ULL);
  for (const auto& q : pool) {
    ClientResponse resp;
    ASSERT_TRUE(c.SubmitText(cq::ToDatalog(q, fx.fb.schema), &resp).ok());
  }

  std::string json;
  ASSERT_TRUE(c.StatsJson(&json).ok());
  EXPECT_TRUE(JsonValidator(json).Validate()) << json;
  EXPECT_NE(json.find("\"submitted\":4"), std::string::npos) << json;

  uint64_t epoch = 0;
  ASSERT_TRUE(c.Ping(&epoch).ok());
  EXPECT_EQ(epoch, fx.engine.Snapshot()->epoch());

  // Epoch visible over the wire tracks UpdatePolicy.
  fx.engine.UpdatePolicy(fx.policy);
  ASSERT_TRUE(c.Ping(&epoch).ok());
  EXPECT_EQ(epoch, 2u);
}

// Multi-worker path (SO_REUSEPORT or shared accept): many connections land
// on different workers and all serve correctly.
TEST(ServerEndToEndTest, MultiWorkerServesManyConnections) {
  ServerOptions opts;
  opts.workers = 2;
  ServerFixture fx(/*policy_seed=*/5, opts);
  const auto pool = RandomWorkload(&fx.fb.schema, 2, 8, 0x22ULL);

  constexpr int kClients = 8;
  std::vector<BlockingClient> clients(kClients);
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(clients[i]
                    .Connect("127.0.0.1", fx.server.port(),
                             "mw-" + std::to_string(i))
                    .ok());
  }
  for (int round = 0; round < 16; ++round) {
    for (int i = 0; i < kClients; ++i) {
      ClientResponse resp;
      ASSERT_TRUE(clients[i]
                      .SubmitText(cq::ToDatalog(pool[round % pool.size()],
                                                fx.fb.schema),
                                  &resp)
                      .ok());
      ASSERT_EQ(resp.type, FrameType::kDecision);
    }
  }
  const DisclosureServer::Stats stats = fx.server.stats();
  EXPECT_EQ(stats.connections_accepted, kClients);
  EXPECT_EQ(stats.decisions, 16u * kClients);
}

// --- engine-level coalescing oracle --------------------------------------

TEST(SubmitCoalescedTest, MatchesSequentialSubmitExactly) {
  FbFixture fb;
  workload::PolicyOptions popts;
  popts.max_partitions = 5;
  popts.max_elements_per_partition = 15;
  for (uint64_t seed : {0x1ULL, 0xabcdULL}) {
    policy::SecurityPolicy policy =
        workload::PolicyGenerator(&fb.catalog, popts, seed).Next();
    engine::DisclosureEngine coalesced(/*db=*/nullptr, &fb.catalog, policy);
    engine::DisclosureEngine sequential(/*db=*/nullptr, &fb.catalog, policy);

    const auto pool = RandomWorkload(&fb.schema, 2, 64, seed ^ 0x777);
    Rng rng(seed + 5);
    std::vector<std::string> principals;
    for (int p = 0; p < 5; ++p) principals.push_back("p" + std::to_string(p));

    int applied = 0;
    while (applied < 400) {
      // Random interleaved cross-principal batch, like one epoll wake.
      const int batch = 1 + static_cast<int>(rng.Below(48));
      std::vector<engine::DisclosureEngine::SubmitRequest> requests;
      for (int i = 0; i < batch; ++i) {
        requests.push_back({principals[rng.Below(principals.size())],
                            &pool[rng.Below(pool.size())]});
      }
      std::vector<bool> decisions;
      std::vector<uint64_t> epochs;
      coalesced.SubmitCoalesced(requests, &decisions, &epochs);
      ASSERT_EQ(decisions.size(), requests.size());
      ASSERT_EQ(epochs.size(), requests.size());
      for (int i = 0; i < batch; ++i) {
        const bool expect = sequential.Submit(
            std::string(requests[i].principal), *requests[i].query);
        ASSERT_EQ(decisions[i], expect)
            << "divergence at offset " << applied + i << " seed " << seed;
        EXPECT_EQ(epochs[i], sequential.Snapshot()->epoch());
      }
      applied += batch;
    }

    // Aggregate accept/refuse counters agree too.
    const auto a = coalesced.Stats();
    const auto b = sequential.Stats();
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.refused, b.refused);
    EXPECT_EQ(a.submitted, b.submitted);
  }
}

}  // namespace
}  // namespace fdc::server
