// Network front end tests (testing/faults.h stays out of these — the
// chaos soak lives in scripts/ci.sh against a real server process):
//
//  * frame codec: round-trips, byte-at-a-time truncation, bad version /
//    unknown type / oversized length rejection, seeded split-point fuzz,
//  * the admin plane's HTTP parsing and routing as pure functions,
//  * loopback integration against a real QueryService: pipelining answers
//    every request id exactly once, a saturated admission gate surfaces as
//    BUSY frames (never a dropped connection), protocol violations get an
//    ERROR frame then a close, per-connection backpressure stalls reading
//    without losing anything, graceful drain (including via SIGTERM)
//    flushes every in-flight response before the sockets close, and the
//    admin port answers raw-HTTP curl-style requests mid-serving.
//
// These carry the ctest label `net`; the CI `net` lane runs them under
// ThreadSanitizer (`cmake -DLB2_SANITIZE=thread`, `ctest -L net`).
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/admin.h"
#include "net/client.h"
#include "net/framing.h"
#include "net/listener.h"
#include "net/protocol.h"
#include "net/server.h"
#include "scoped_env.h"
#include "service/service.h"
#include "sql/sql.h"
#include "tpch/dbgen.h"
#include "util/rng.h"
#include "volcano/volcano.h"

namespace lb2::net {
namespace {

using service::QueryService;
using service::ServiceOptions;
using service::ServiceResult;

constexpr const char* kSql =
    "select l_returnflag, count(*) as n, sum(l_extendedprice) as rev "
    "from lineitem group by l_returnflag order by l_returnflag";
constexpr const char* kSql2 =
    "select sum(l_extendedprice * l_discount) as rev from lineitem "
    "where l_quantity < 24";

void WaitFor(const std::function<bool()>& pred) {
  for (int i = 0; i < 10000 && !pred(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pred());
}

// -- Frame codec --------------------------------------------------------------

TEST(FrameCodecTest, RoundTripsEveryFrameType) {
  FrameDecoder dec;
  std::string wire;
  wire += EncodeFrame(FrameType::kQuery, 1, "select 1");
  wire += EncodeFrame(FrameType::kResult, 2, "payload");
  wire += EncodeFrame(FrameType::kBusy, 3, "");
  wire += EncodeFrame(FrameType::kError, 0xffffffffffffffffULL, "boom");
  dec.Append(wire.data(), wire.size());

  Frame f;
  ASSERT_EQ(dec.Next(&f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.type, FrameType::kQuery);
  EXPECT_EQ(f.request_id, 1u);
  EXPECT_EQ(f.payload, "select 1");
  EXPECT_EQ(f.version, kProtocolVersion);
  ASSERT_EQ(dec.Next(&f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.type, FrameType::kResult);
  EXPECT_EQ(f.payload, "payload");
  ASSERT_EQ(dec.Next(&f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.type, FrameType::kBusy);
  EXPECT_EQ(f.payload, "");
  ASSERT_EQ(dec.Next(&f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.type, FrameType::kError);
  EXPECT_EQ(f.request_id, 0xffffffffffffffffULL);
  EXPECT_EQ(dec.Next(&f), FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameCodecTest, TraceIdRoundTripsOnV2AndDefaultsToZeroOnV1) {
  FrameDecoder dec;
  std::string wire;
  // v2 carries the trace id; a v1 frame (what an old client emits) has no
  // field for it and must decode with trace_id 0. Per-frame versioning:
  // the two interleave on one stream.
  wire += EncodeFrame(FrameType::kQuery, 1, "select 1", 0xdeadbeefcafef00dULL);
  wire += EncodeFrame(FrameType::kQuery, 2, "select 2", 0, kProtocolV1);
  wire += EncodeFrame(FrameType::kResult, 3, "r", 42, kProtocolV2);
  dec.Append(wire.data(), wire.size());

  Frame f;
  ASSERT_EQ(dec.Next(&f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.version, kProtocolV2);
  EXPECT_EQ(f.trace_id, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(f.payload, "select 1");
  ASSERT_EQ(dec.Next(&f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.version, kProtocolV1);
  EXPECT_EQ(f.trace_id, 0u);
  EXPECT_EQ(f.payload, "select 2");
  ASSERT_EQ(dec.Next(&f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.trace_id, 42u);
  // A v1 header is 8 bytes shorter — the payload must not absorb the gap.
  EXPECT_EQ(EncodeFrame(FrameType::kQuery, 1, "x", 0, kProtocolV1).size() + 8,
            EncodeFrame(FrameType::kQuery, 1, "x", 0, kProtocolV2).size());
}

TEST(FrameCodecTest, TruncationIsNeedMoreNeverError) {
  const std::string wire = EncodeFrame(FrameType::kQuery, 77, "select 1");
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    FrameDecoder dec;
    dec.Append(wire.data(), cut);
    Frame f;
    EXPECT_EQ(dec.Next(&f), FrameDecoder::Status::kNeedMore) << cut;
    // The rest arrives: the frame decodes.
    dec.Append(wire.data() + cut, wire.size() - cut);
    ASSERT_EQ(dec.Next(&f), FrameDecoder::Status::kFrame) << cut;
    EXPECT_EQ(f.request_id, 77u);
    EXPECT_EQ(f.payload, "select 1");
  }
}

TEST(FrameCodecTest, BadVersionRejectedBeforePayloadArrives) {
  std::string wire = EncodeFrame(FrameType::kQuery, 1, "x");
  wire[4] = static_cast<char>(kProtocolVersion + 1);
  FrameDecoder dec;
  // Header only — the decoder must not wait for the payload to reject.
  dec.Append(wire.data(), kFrameHeaderBytes);
  Frame f;
  ASSERT_EQ(dec.Next(&f), FrameDecoder::Status::kError);
  EXPECT_NE(dec.error().find("version"), std::string::npos);
  // Permanent failure: more bytes don't resurrect the stream.
  dec.Append(wire.data(), wire.size());
  EXPECT_EQ(dec.Next(&f), FrameDecoder::Status::kError);
}

TEST(FrameCodecTest, UnknownTypeRejected) {
  std::string wire = EncodeFrame(FrameType::kQuery, 1, "x");
  wire[5] = 9;
  FrameDecoder dec;
  dec.Append(wire.data(), wire.size());
  Frame f;
  ASSERT_EQ(dec.Next(&f), FrameDecoder::Status::kError);
  EXPECT_NE(dec.error().find("type"), std::string::npos);
}

TEST(FrameCodecTest, OversizedLengthRejectedFromHeaderAlone) {
  // A hostile length prefix must be rejected without buffering a payload.
  std::string header = EncodeFrame(FrameType::kQuery, 1, "");
  uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(&header[0], &huge, sizeof(huge));  // little-endian hosts only
  FrameDecoder dec;
  dec.Append(header.data(), kFrameHeaderBytes);
  Frame f;
  ASSERT_EQ(dec.Next(&f), FrameDecoder::Status::kError);
  EXPECT_NE(dec.error().find("oversized"), std::string::npos);
}

TEST(FrameCodecTest, SeededSplitFuzzDecodesIdentically) {
  // A long mixed stream fed in random-sized chunks must decode to exactly
  // the same frames regardless of split points.
  std::vector<Frame> want;
  std::string wire;
  Rng rng(1234);
  for (int i = 0; i < 200; ++i) {
    Frame f;
    f.type = static_cast<FrameType>(1 + rng.Next() % 4);
    f.request_id = rng.Next();
    f.payload = std::string(rng.Next() % 300, static_cast<char>('a' + i % 26));
    want.push_back(f);
    wire += EncodeFrame(f.type, f.request_id, f.payload);
  }
  for (uint64_t trial = 0; trial < 10; ++trial) {
    Rng split_rng(trial * 7919 + 17);
    FrameDecoder dec;
    std::vector<Frame> got;
    size_t off = 0;
    while (off < wire.size()) {
      size_t n = 1 + split_rng.Next() % 97;
      if (off + n > wire.size()) n = wire.size() - off;
      dec.Append(wire.data() + off, n);
      off += n;
      Frame f;
      while (dec.Next(&f) == FrameDecoder::Status::kFrame) got.push_back(f);
    }
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].type, want[i].type);
      EXPECT_EQ(got[i].request_id, want[i].request_id);
      EXPECT_EQ(got[i].payload, want[i].payload);
    }
  }
}

TEST(FrameCodecTest, GarbageAfterValidFramesErrorsOnce) {
  std::string wire = EncodeFrame(FrameType::kResult, 5, "fine");
  wire += "\xde\xad\xbe\xef this is not a frame header at all!!";
  FrameDecoder dec;
  dec.Append(wire.data(), wire.size());
  Frame f;
  ASSERT_EQ(dec.Next(&f), FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.payload, "fine");
  EXPECT_EQ(dec.Next(&f), FrameDecoder::Status::kError);
}

TEST(FrameCodecTest, ResultPayloadRoundTrip) {
  std::string enc = EncodeResultPayload(2, 1234567890123LL, "rows|here");
  ResultPayload rp;
  ASSERT_TRUE(DecodeResultPayload(enc, &rp));
  EXPECT_EQ(rp.path, 2);
  EXPECT_EQ(rp.rows, 1234567890123LL);
  EXPECT_EQ(rp.text, "rows|here");
  // Too short to hold path + rows.
  EXPECT_FALSE(DecodeResultPayload("12345678", &rp));
  EXPECT_TRUE(DecodeResultPayload(EncodeResultPayload(0, -1, ""), &rp));
  EXPECT_EQ(rp.rows, -1);
}

// -- Admin-plane HTTP ---------------------------------------------------------

TEST(AdminHttpTest, ParsesHeadRejectsMalformed) {
  HttpRequest req;
  bool bad = false;
  EXPECT_FALSE(ParseHttpHead("GET /metrics HTTP/1.1\r\nHost: x\r\n", &req,
                             &bad));  // incomplete
  EXPECT_FALSE(bad);
  ASSERT_TRUE(ParseHttpHead(
      "GET /metrics?x=1 HTTP/1.1\r\nHost: x\r\n\r\n", &req, &bad));
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/metrics");  // query string stripped
  EXPECT_FALSE(ParseHttpHead("NOT_HTTP\r\n\r\n", &req, &bad));
  EXPECT_TRUE(bad);
  bad = false;
  EXPECT_FALSE(ParseHttpHead("GET /x SPURIOUS HTTP/1.1\r\n\r\n", &req, &bad));
  EXPECT_TRUE(bad);
}

TEST(AdminHttpTest, RoutesAndRendersEveryEndpoint) {
  AdminHooks hooks;
  hooks.metrics_text = [] { return std::string("lb2_up 1\n"); };
  hooks.stats_json = [] { return std::string("{\"x\": 1}"); };
  bool draining = false;
  hooks.draining = [&] { return draining; };

  HttpResponse r = RouteAdmin({"GET", "/metrics"}, hooks);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "lb2_up 1\n");
  EXPECT_NE(r.content_type.find("text/plain"), std::string::npos);
  r = RouteAdmin({"GET", "/stats"}, hooks);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.content_type, "application/json");
  r = RouteAdmin({"GET", "/healthz"}, hooks);
  EXPECT_EQ(r.status, 200);
  draining = true;
  r = RouteAdmin({"GET", "/healthz"}, hooks);
  EXPECT_EQ(r.status, 503);
  EXPECT_EQ(RouteAdmin({"GET", "/nope"}, hooks).status, 404);
  EXPECT_EQ(RouteAdmin({"POST", "/metrics"}, hooks).status, 405);

  std::string http = RenderHttp(RouteAdmin({"GET", "/metrics"}, hooks));
  EXPECT_NE(http.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(http.find("Content-Length: 9\r\n"), std::string::npos);
  EXPECT_NE(http.find("Connection: close\r\n"), std::string::npos);
}

TEST(AdminHttpTest, HealthzPrefersJsonHookAndKeeps503WhileDraining) {
  AdminHooks hooks;
  bool draining = false;
  hooks.draining = [&] { return draining; };
  hooks.healthz_json = [&] {
    return std::string(draining ? "{\"status\": \"draining\"}"
                                : "{\"status\": \"ok\"}");
  };
  HttpResponse r = RouteAdmin({"GET", "/healthz"}, hooks);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.content_type, "application/json");
  EXPECT_EQ(r.body, "{\"status\": \"ok\"}");
  draining = true;
  r = RouteAdmin({"GET", "/healthz"}, hooks);
  EXPECT_EQ(r.status, 503);  // scrapers still read the JSON body
  EXPECT_EQ(r.body, "{\"status\": \"draining\"}");
}

TEST(AdminHttpTest, TracesRouteSelectsFormatAnd404sWithoutHook) {
  AdminHooks hooks;
  EXPECT_EQ(RouteAdmin({"GET", "/traces"}, hooks).status, 404);
  hooks.traces = [](bool chrome) {
    return std::string(chrome ? "{\"traceEvents\": []}" : "[]");
  };
  HttpResponse r = RouteAdmin({"GET", "/traces"}, hooks);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.content_type, "application/json");
  EXPECT_EQ(r.body, "[]");
  r = RouteAdmin({"GET", "/traces", "fmt=chrome"}, hooks);
  EXPECT_EQ(r.body, "{\"traceEvents\": []}");
  // Unknown fmt values fall back to JSON rather than erroring.
  EXPECT_EQ(RouteAdmin({"GET", "/traces", "fmt=bogus"}, hooks).body, "[]");
}

// -- Loopback integration -----------------------------------------------------

class NetServerTest : public ::testing::Test {
 public:
  static void SetUpTestSuite() {
    db_ = new rt::Database();
    tpch::Generate(0.002, 808, db_);
  }
  static void TearDownTestSuite() { delete db_; }

  static std::string Oracle(const std::string& sql) {
    return volcano::Execute(sql::ParseQuery(sql, *db_), *db_);
  }

  static rt::Database* db_;
};

rt::Database* NetServerTest::db_ = nullptr;

/// A service + started server on ephemeral loopback ports.
struct Loopback {
  explicit Loopback(const rt::Database& db, ServiceOptions sopts = {},
                    NetOptions nopts = {}) {
    sopts.cache_dir = "";  // keep tests independent of CI's shared disk tier
    svc = std::make_unique<QueryService>(db, sopts);
    nopts.port = 0;
    if (nopts.admin_port < 0) nopts.admin_port = 0;
    server = std::make_unique<NetServer>(svc.get(), nopts);
    std::string error;
    started = server->Start(&error);
    EXPECT_TRUE(started) << error;
  }

  BlockingClient Connect() {
    BlockingClient c;
    std::string error;
    EXPECT_TRUE(c.Connect("127.0.0.1", server->port(), &error)) << error;
    return c;
  }

  std::unique_ptr<QueryService> svc;
  std::unique_ptr<NetServer> server;
  bool started = false;
};

/// Reads frames until `want` responses arrived; fails the test on EOF,
/// timeout, or a duplicate request id.
std::map<uint64_t, Frame> CollectResponses(BlockingClient* c, size_t want) {
  std::map<uint64_t, Frame> got;
  while (got.size() < want) {
    Frame f;
    BlockingClient::ReadStatus rs = c->ReadFrame(&f, 30000);
    EXPECT_EQ(rs, BlockingClient::ReadStatus::kFrame) << c->error();
    if (rs != BlockingClient::ReadStatus::kFrame) break;
    EXPECT_TRUE(got.emplace(f.request_id, f).second)
        << "duplicate response for id " << f.request_id;
  }
  return got;
}

TEST_F(NetServerTest, ServesOneQueryOverLoopback) {
  Loopback lb(*db_);
  BlockingClient c = lb.Connect();
  ASSERT_TRUE(c.SendQuery(42, kSql));
  Frame f;
  ASSERT_EQ(c.ReadFrame(&f, 30000), BlockingClient::ReadStatus::kFrame)
      << c.error();
  EXPECT_EQ(f.type, FrameType::kResult);
  EXPECT_EQ(f.request_id, 42u);
  ResultPayload rp;
  ASSERT_TRUE(DecodeResultPayload(f.payload, &rp));
  EXPECT_EQ(rp.text, Oracle(kSql));
  EXPECT_GT(rp.rows, 0);
}

TEST_F(NetServerTest, PipelinedIdsEachAnsweredExactlyOnce) {
  Loopback lb(*db_);
  BlockingClient c = lb.Connect();
  const int kN = 16;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(c.SendQuery(100 + static_cast<uint64_t>(i),
                            i % 2 == 0 ? kSql : kSql2));
  }
  std::map<uint64_t, Frame> got = CollectResponses(&c, kN);
  ASSERT_EQ(got.size(), static_cast<size_t>(kN));
  const std::string want1 = Oracle(kSql);
  const std::string want2 = Oracle(kSql2);
  for (int i = 0; i < kN; ++i) {
    const Frame& f = got.at(100 + static_cast<uint64_t>(i));
    ASSERT_EQ(f.type, FrameType::kResult) << f.payload;
    ResultPayload rp;
    ASSERT_TRUE(DecodeResultPayload(f.payload, &rp));
    EXPECT_EQ(rp.text, i % 2 == 0 ? want1 : want2);
  }
  NetStats s = lb.server->stats();
  EXPECT_EQ(s.frames_in, kN);
  EXPECT_EQ(s.frames_out, kN);
  EXPECT_EQ(s.protocol_errors, 0);
}

TEST_F(NetServerTest, SqlErrorAnswersErrorFrameAndConnectionSurvives) {
  Loopback lb(*db_);
  BlockingClient c = lb.Connect();
  ASSERT_TRUE(c.SendQuery(7, "select nonsense from nowhere"));
  Frame f;
  ASSERT_EQ(c.ReadFrame(&f, 30000), BlockingClient::ReadStatus::kFrame);
  EXPECT_EQ(f.type, FrameType::kError);
  EXPECT_EQ(f.request_id, 7u);
  EXPECT_NE(f.payload, "");
  // Query-level errors keep the connection serving.
  ASSERT_TRUE(c.SendQuery(8, kSql));
  ASSERT_EQ(c.ReadFrame(&f, 30000), BlockingClient::ReadStatus::kFrame);
  EXPECT_EQ(f.type, FrameType::kResult);
  EXPECT_EQ(f.request_id, 8u);
}

TEST_F(NetServerTest, SaturatedGateAnswersBusyNeverDrops) {
  ServiceOptions sopts;
  sopts.max_inflight = 1;
  sopts.queue_timeout_ms = 0.0;  // shed immediately when saturated
  Loopback lb(*db_, sopts);
  // Deterministic saturation: occupy the only execution slot directly.
  ASSERT_TRUE(lb.svc->admission()->Admit());
  BlockingClient c = lb.Connect();
  ASSERT_TRUE(c.SendQuery(1, kSql));
  Frame f;
  ASSERT_EQ(c.ReadFrame(&f, 30000), BlockingClient::ReadStatus::kFrame);
  EXPECT_EQ(f.type, FrameType::kBusy);
  EXPECT_EQ(f.request_id, 1u);
  EXPECT_EQ(f.payload, "");
  lb.svc->admission()->Release();
  // The connection is still healthy — a retry is served.
  ASSERT_TRUE(c.SendQuery(2, kSql));
  ASSERT_EQ(c.ReadFrame(&f, 30000), BlockingClient::ReadStatus::kFrame);
  EXPECT_EQ(f.type, FrameType::kResult);
  EXPECT_EQ(lb.server->stats().busy_frames, 1);
}

TEST_F(NetServerTest, ProtocolViolationGetsErrorThenClose) {
  Loopback lb(*db_);
  BlockingClient c = lb.Connect();
  std::string bad = EncodeFrame(FrameType::kQuery, 1, "select 1");
  bad[4] = 9;  // wrong version byte
  ASSERT_TRUE(c.SendRaw(bad));
  Frame f;
  ASSERT_EQ(c.ReadFrame(&f, 30000), BlockingClient::ReadStatus::kFrame);
  EXPECT_EQ(f.type, FrameType::kError);
  EXPECT_EQ(f.request_id, 0u);  // protocol errors carry id 0
  EXPECT_EQ(c.ReadFrame(&f, 30000), BlockingClient::ReadStatus::kEof);
  EXPECT_GE(lb.server->stats().protocol_errors, 1);
}

TEST_F(NetServerTest, ClientSentResultFrameIsAViolation) {
  Loopback lb(*db_);
  BlockingClient c = lb.Connect();
  ASSERT_TRUE(c.SendRaw(EncodeFrame(FrameType::kResult, 3, "i am not a "
                                                           "server")));
  Frame f;
  ASSERT_EQ(c.ReadFrame(&f, 30000), BlockingClient::ReadStatus::kFrame);
  EXPECT_EQ(f.type, FrameType::kError);
  EXPECT_NE(f.payload.find("unexpected"), std::string::npos);
  EXPECT_EQ(c.ReadFrame(&f, 30000), BlockingClient::ReadStatus::kEof);
}

TEST_F(NetServerTest, BackpressureStallsReadingWithoutLosingAnything) {
  ServiceOptions sopts;
  sopts.max_inflight = 1;
  sopts.queue_timeout_ms = 60000.0;  // queue, don't shed
  NetOptions nopts;
  nopts.max_conn_inflight = 2;  // stall the socket after two dispatches
  Loopback lb(*db_, sopts, nopts);
  ASSERT_TRUE(lb.svc->admission()->Admit());  // block all execution
  BlockingClient c = lb.Connect();
  const int kN = 10;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(c.SendQuery(static_cast<uint64_t>(i) + 1,
                            i % 2 == 0 ? kSql : kSql2));
  }
  // The loop dispatches up to the cap, then parks the socket.
  WaitFor([&] { return lb.server->stats().backpressure_stalls >= 1; });
  EXPECT_LE(lb.server->stats().frames_in, 3);
  // Release execution: responses drain, reading resumes, everything lands.
  lb.svc->admission()->Release();
  std::map<uint64_t, Frame> got = CollectResponses(&c, kN);
  ASSERT_EQ(got.size(), static_cast<size_t>(kN));
  for (auto& [id, f] : got) EXPECT_EQ(f.type, FrameType::kResult) << id;
}

TEST_F(NetServerTest, GracefulDrainFlushesEveryInflightResponse) {
  ServiceOptions sopts;
  sopts.max_inflight = 1;
  sopts.queue_timeout_ms = 60000.0;
  Loopback lb(*db_, sopts);
  ASSERT_TRUE(lb.svc->admission()->Admit());  // park queries in the gate
  BlockingClient c = lb.Connect();
  const int kN = 4;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(c.SendQuery(static_cast<uint64_t>(i) + 1, kSql));
  }
  // All four must be dispatched (in workers, queued at the gate) before
  // the drain starts, so they count as accepted.
  WaitFor([&] { return lb.server->stats().frames_in == kN; });
  lb.server->BeginDrain();
  EXPECT_TRUE(lb.server->draining());
  // New connections are refused once the listener closes.
  WaitFor([&] {
    BlockingClient probe;
    std::string error;
    return !probe.Connect("127.0.0.1", lb.server->port(), &error);
  });
  // Unblock execution: every accepted query gets its RESULT, then EOF.
  lb.svc->admission()->Release();
  std::map<uint64_t, Frame> got = CollectResponses(&c, kN);
  ASSERT_EQ(got.size(), static_cast<size_t>(kN));
  const std::string want = Oracle(kSql);
  for (auto& [id, f] : got) {
    ASSERT_EQ(f.type, FrameType::kResult) << id;
    ResultPayload rp;
    ASSERT_TRUE(DecodeResultPayload(f.payload, &rp));
    EXPECT_EQ(rp.text, want);
  }
  Frame f;
  EXPECT_EQ(c.ReadFrame(&f, 30000), BlockingClient::ReadStatus::kEof);
  lb.server->Wait();
  NetStats s = lb.server->stats();
  EXPECT_EQ(s.responses_dropped, 0);
  EXPECT_EQ(s.drain_forced_closes, 0);
  EXPECT_EQ(s.active, 0);
}

TEST_F(NetServerTest, SigtermDrainsViaInstalledHandler) {
  Loopback lb(*db_);
  BlockingClient c = lb.Connect();
  ASSERT_TRUE(c.SendQuery(9, kSql));
  Frame f;
  ASSERT_EQ(c.ReadFrame(&f, 30000), BlockingClient::ReadStatus::kFrame);
  NetServer::InstallSignalHandlers(lb.server.get());
  ASSERT_EQ(kill(getpid(), SIGTERM), 0);
  // The handler's BeginDrain closes this idle connection and stops the
  // loop; Wait() returning is the proof the signal path works end to end.
  lb.server->Wait();
  NetServer::InstallSignalHandlers(nullptr);
  EXPECT_TRUE(lb.server->draining());
  EXPECT_EQ(c.ReadFrame(&f, 30000), BlockingClient::ReadStatus::kEof);
  EXPECT_EQ(lb.server->stats().responses_dropped, 0);
}

TEST_F(NetServerTest, ServiceDrainShedsWithBusyAndCounts) {
  // The service-level half of drain: a draining QueryService sheds every
  // Execute with the documented busy status, counted separately.
  QueryService svc(*db_);
  plan::Query q = sql::ParseQuery(kSql, *db_);
  ASSERT_EQ(svc.Execute(q).status, ServiceResult::Status::kOk);
  svc.BeginDrain();
  EXPECT_TRUE(svc.draining());
  ServiceResult r = svc.Execute(q);
  EXPECT_EQ(r.status, ServiceResult::Status::kBusy);
  EXPECT_EQ(svc.Stats().drain_sheds, 1);
  EXPECT_NE(svc.MetricsPrometheus().find("lb2_drain_sheds_total 1"),
            std::string::npos);
}

std::string HttpGet(int port, const std::string& request) {
  std::string error;
  int fd = ConnectTcp("127.0.0.1", port, &error);
  EXPECT_GE(fd, 0) << error;
  if (fd < 0) return "";
  size_t off = 0;
  while (off < request.size()) {
    ssize_t n = write(fd, request.data() + off, request.size() - off);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = read(fd, buf, sizeof(buf))) > 0) out.append(buf, n);
  close(fd);
  return out;
}

TEST_F(NetServerTest, AdminPortServesMetricsStatsHealthOverRawHttp) {
  Loopback lb(*db_);
  // Put one query through so counters are non-trivial.
  BlockingClient c = lb.Connect();
  ASSERT_TRUE(c.SendQuery(1, kSql));
  Frame f;
  ASSERT_EQ(c.ReadFrame(&f, 30000), BlockingClient::ReadStatus::kFrame);

  int ap = lb.server->admin_port();
  ASSERT_GT(ap, 0);
  std::string metrics =
      HttpGet(ap, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  // Both registries in one exposition: network and service counters.
  EXPECT_NE(metrics.find("lb2_net_accepted_total"), std::string::npos);
  EXPECT_NE(metrics.find("lb2_requests_total"), std::string::npos);
  std::string stats = HttpGet(ap, "GET /stats HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(stats.find("application/json"), std::string::npos);
  EXPECT_NE(stats.find("\"net\""), std::string::npos);
  EXPECT_NE(stats.find("\"service\""), std::string::npos);
  std::string health =
      HttpGet(ap, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(HttpGet(ap, "GET /nope HTTP/1.1\r\n\r\n").find("404"),
            std::string::npos);
  EXPECT_NE(HttpGet(ap, "POST /metrics HTTP/1.1\r\n\r\n").find("405"),
            std::string::npos);
  EXPECT_GE(lb.server->stats().admin_requests, 5);
}

TEST_F(NetServerTest, TraceIdEchoedOnV2AndAssignedWhenAbsent) {
  Loopback lb(*db_);
  BlockingClient c = lb.Connect();
  // Client-chosen trace id: echoed verbatim on the response.
  ASSERT_TRUE(c.SendQuery(1, kSql, 0x1122334455667788ULL));
  Frame f;
  ASSERT_EQ(c.ReadFrame(&f, 30000), BlockingClient::ReadStatus::kFrame);
  EXPECT_EQ(f.version, kProtocolV2);
  EXPECT_EQ(f.trace_id, 0x1122334455667788ULL);
  // trace_id 0 = "server, assign one": the response carries the server's.
  ASSERT_TRUE(c.SendQuery(2, kSql, 0));
  ASSERT_EQ(c.ReadFrame(&f, 30000), BlockingClient::ReadStatus::kFrame);
  EXPECT_NE(f.trace_id, 0u);
}

TEST_F(NetServerTest, V1ClientIsServedAndAnsweredInV1) {
  Loopback lb(*db_);
  BlockingClient c = lb.Connect();
  ASSERT_TRUE(c.SendQueryV1(5, kSql));
  Frame f;
  ASSERT_EQ(c.ReadFrame(&f, 30000), BlockingClient::ReadStatus::kFrame);
  // The response answers in the request's version — a pre-v2 client never
  // sees bytes its 14-byte-header decoder can't parse.
  EXPECT_EQ(f.version, kProtocolV1);
  EXPECT_EQ(f.trace_id, 0u);
  EXPECT_EQ(f.type, FrameType::kResult);
  EXPECT_EQ(f.request_id, 5u);
  ResultPayload rp;
  ASSERT_TRUE(DecodeResultPayload(f.payload, &rp));
  EXPECT_EQ(rp.text, Oracle(kSql));
}

TEST_F(NetServerTest, ErroredRequestIsKeptAndServedByTracesEndpoint) {
  Loopback lb(*db_);
  BlockingClient c = lb.Connect();
  ASSERT_TRUE(c.SendQuery(9, "select nonsense from nowhere", 0xabcdULL));
  Frame f;
  ASSERT_EQ(c.ReadFrame(&f, 30000), BlockingClient::ReadStatus::kFrame);
  ASSERT_EQ(f.type, FrameType::kError);

  // Tail sampling: the ERROR outcome forces retention regardless of rate.
  EXPECT_GE(lb.server->stats().traces_kept, 1);
  std::string traces = HttpGet(lb.server->admin_port(),
                               "GET /traces HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(traces.find("\"trace_id\": \"000000000000abcd\""),
            std::string::npos)
      << traces;
  EXPECT_NE(traces.find("\"keep\": \"error\""), std::string::npos);
  EXPECT_NE(traces.find("\"status\": \"error\""), std::string::npos);
  EXPECT_NE(traces.find("\"sql\": \"select nonsense from nowhere\""),
            std::string::npos);
  // The span tree covers the whole request: root + the hand-off queue.
  EXPECT_NE(traces.find("\"name\": \"request\", \"parent\": -1"),
            std::string::npos)
      << traces;
  EXPECT_NE(traces.find("\"name\": \"queue\", \"parent\": 0"),
            std::string::npos);
  // ?fmt=chrome serves the same retention as a trace_event document.
  std::string chrome =
      HttpGet(lb.server->admin_port(),
              "GET /traces?fmt=chrome HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\": \"request\""), std::string::npos);
}

TEST_F(NetServerTest, SlowKeepSpansDecodeToExecAndExportsExemplar) {
  // LB2_SLOW_MS tiny: every request is "slow", so the first OK query is
  // kept with the service's own spans grafted under the net root.
  ScopedEnv slow("LB2_SLOW_MS", "0.000001");
  Loopback lb(*db_);
  BlockingClient c = lb.Connect();
  ASSERT_TRUE(c.SendQuery(1, kSql, 0x77ULL));
  Frame f;
  ASSERT_EQ(c.ReadFrame(&f, 30000), BlockingClient::ReadStatus::kFrame);
  ASSERT_EQ(f.type, FrameType::kResult);

  std::string traces = HttpGet(lb.server->admin_port(),
                               "GET /traces HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(traces.find("\"keep\": \"slow\""), std::string::npos) << traces;
  // End-to-end: the kept span tree reaches from the net layer's decode
  // ("request"/"queue") into the service pipeline ("fingerprint", "exec").
  EXPECT_NE(traces.find("\"name\": \"request\""), std::string::npos);
  EXPECT_NE(traces.find("\"name\": \"queue\""), std::string::npos);
  EXPECT_NE(traces.find("\"name\": \"fingerprint\""), std::string::npos)
      << traces;
  EXPECT_NE(traces.find("\"name\": \"exec\""), std::string::npos);

  // The keep also attached OpenMetrics exemplars: the request-latency
  // histogram points at a retrievable trace id.
  std::string metrics =
      HttpGet(lb.server->admin_port(),
              "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(metrics.find("# {trace_id=\"0000000000000077\"}"),
            std::string::npos)
      << metrics;
}

TEST_F(NetServerTest, HealthzReportsJsonReadiness) {
  Loopback lb(*db_);
  std::string health = HttpGet(lb.server->admin_port(),
                               "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("application/json"), std::string::npos);
  EXPECT_NE(health.find("\"status\": \"ok\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"draining\": false"), std::string::npos);
  EXPECT_NE(health.find("\"breaker_open\": 0"), std::string::npos);
  EXPECT_NE(health.find("\"disk_cooldown\": false"), std::string::npos);
  EXPECT_NE(health.find("\"admission_queue_depth\": 0"), std::string::npos);
  EXPECT_NE(health.find("\"traces_kept\":"), std::string::npos);
}

TEST_F(NetServerTest, RecorderDisabledByRingZeroKeepsNothing) {
  ScopedEnv ring("LB2_TRACE_RING", "0");
  Loopback lb(*db_);
  BlockingClient c = lb.Connect();
  ASSERT_TRUE(c.SendQuery(9, "select nonsense from nowhere"));
  Frame f;
  ASSERT_EQ(c.ReadFrame(&f, 30000), BlockingClient::ReadStatus::kFrame);
  EXPECT_EQ(lb.server->stats().traces_kept, 0);
  std::string traces = HttpGet(lb.server->admin_port(),
                               "GET /traces HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(traces.find("[\n]"), std::string::npos) << traces;
}

TEST_F(NetServerTest, DrainedServerRetainsKeptTracesForTheFlush) {
  // The lb2_served --trace-out flush reads the recorder after Wait(); the
  // kept set must survive the drain (rings are not torn down with conns).
  Loopback lb(*db_);
  BlockingClient c = lb.Connect();
  ASSERT_TRUE(c.SendQuery(1, "select nonsense from nowhere", 0xfeedULL));
  Frame f;
  ASSERT_EQ(c.ReadFrame(&f, 30000), BlockingClient::ReadStatus::kFrame);
  lb.server->BeginDrain();
  lb.server->Wait();
  std::vector<obs::RecordedTrace> kept = lb.server->recorder().Snapshot();
  ASSERT_FALSE(kept.empty());
  bool found = false;
  for (const auto& t : kept) found |= t.trace_id == 0xfeedULL;
  EXPECT_TRUE(found);
  EXPECT_FALSE(obs::TracesChrome(kept).empty());
}

TEST_F(NetServerTest, SigtermMidSwitchDrainsCleanly) {
  // Mid-query interpreted→compiled switches in flight when SIGTERM lands:
  // the drain must still flush a RESULT for every accepted request, with
  // no torn rows, and the switch counter must agree with the flight
  // recorder's kept "switch" traces. LB2_SWITCH_AT pins the handoff at
  // boundary 3 of every cold morsel-eligible leader, so both shapes below
  // deterministically switch; the synchronous in-request build (~seconds)
  // guarantees the signal arrives while switches are being served.
  ScopedEnv sw("LB2_MIDQUERY_SWITCH", "1");
  ScopedEnv mr("LB2_MORSEL_ROWS", "512");
  ScopedEnv at("LB2_SWITCH_AT", "3");
  Loopback lb(*db_);
  BlockingClient c = lb.Connect();
  const int kN = 8;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(c.SendQuery(static_cast<uint64_t>(i) + 1,
                            i % 2 == 0 ? kSql : kSql2));
  }
  // Every request dispatched (so it counts as accepted work), then the
  // signal: the cold leaders are still inside their switch at this point.
  WaitFor([&] { return lb.server->stats().frames_in == kN; });
  NetServer::InstallSignalHandlers(lb.server.get());
  ASSERT_EQ(kill(getpid(), SIGTERM), 0);
  std::map<uint64_t, Frame> got = CollectResponses(&c, kN);
  ASSERT_EQ(got.size(), static_cast<size_t>(kN));
  const std::string want1 = Oracle(kSql);
  const std::string want2 = Oracle(kSql2);
  for (auto& [id, f] : got) {
    ASSERT_EQ(f.type, FrameType::kResult) << id;
    ResultPayload rp;
    ASSERT_TRUE(DecodeResultPayload(f.payload, &rp)) << id;
    EXPECT_EQ(rp.text, id % 2 == 1 ? want1 : want2) << id;
  }
  Frame f;
  EXPECT_EQ(c.ReadFrame(&f, 30000), BlockingClient::ReadStatus::kEof);
  lb.server->Wait();
  NetServer::InstallSignalHandlers(nullptr);
  EXPECT_TRUE(lb.server->draining());
  NetStats s = lb.server->stats();
  EXPECT_EQ(s.responses_dropped, 0);
  EXPECT_EQ(s.drain_forced_closes, 0);
  // One switch per cold morsel-eligible shape; followers of the same shape
  // were served off the published entry.
  int64_t switches = lb.svc->Stats().midquery_switches;
  EXPECT_GE(switches, 1);
  // Counter ↔ recorder consistency: every switched request is a forced
  // keep, so the kept "switch" traces enumerate the counter exactly.
  int64_t kept_switch = 0;
  for (const auto& t : lb.server->recorder().Snapshot()) {
    if (t.switched) {
      EXPECT_EQ(t.keep, "switch");
      ++kept_switch;
    }
  }
  EXPECT_EQ(kept_switch, switches);
}

TEST_F(NetServerTest, ManyConnectionsManyWorkersStayConsistent) {
  // A small in-process soak: 4 connections x 8 pipelined queries against a
  // 4-worker server, every response differentially checked.
  NetOptions nopts;
  nopts.num_workers = 4;
  Loopback lb(*db_, {}, nopts);
  const std::string want1 = Oracle(kSql);
  const std::string want2 = Oracle(kSql2);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      BlockingClient c = lb.Connect();
      if (!c.connected()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < 8; ++i) {
        c.SendQuery(static_cast<uint64_t>(i) + 1, i % 2 == 0 ? kSql : kSql2);
      }
      std::map<uint64_t, Frame> got = CollectResponses(&c, 8);
      for (auto& [id, f] : got) {
        ResultPayload rp;
        if (f.type != FrameType::kResult ||
            !DecodeResultPayload(f.payload, &rp) ||
            rp.text != (id % 2 == 1 ? want1 : want2)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  NetStats s = lb.server->stats();
  EXPECT_EQ(s.frames_in, 32);
  EXPECT_EQ(s.frames_out, 32);
  EXPECT_EQ(s.protocol_errors, 0);
}

}  // namespace
}  // namespace lb2::net
