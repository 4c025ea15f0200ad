// Observability layer tests: histogram bucket math and percentiles against
// a sorted reference, lock-free histograms under concurrency, the
// Prometheus and JSON renderings of histograms and stats lists, the leveled
// logger, the service's metrics export surface end to end, and a pin of
// every exported service and network stat (name, type and value) through
// /metrics and /stats.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/service.h"
#include "sql/sql.h"
#include "testing/faults.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "util/str.h"
#include "util/time.h"

namespace lb2::obs {
namespace {

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds everything <= 1 (including clamped negatives); bucket i
  // holds [2^i, 2^(i+1)-1].
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 0);
  EXPECT_EQ(Histogram::BucketIndex(2), 1);
  EXPECT_EQ(Histogram::BucketIndex(3), 1);
  EXPECT_EQ(Histogram::BucketIndex(4), 2);
  EXPECT_EQ(Histogram::BucketIndex(7), 2);
  EXPECT_EQ(Histogram::BucketIndex(8), 3);
  EXPECT_EQ(Histogram::BucketIndex(1023), 9);
  EXPECT_EQ(Histogram::BucketIndex(1024), 10);
  EXPECT_EQ(Histogram::BucketIndex(INT64_MAX), 62);

  EXPECT_EQ(Histogram::BucketUpperBound(0), 1);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 3);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 7);
  EXPECT_EQ(Histogram::BucketUpperBound(9), 1023);
  EXPECT_EQ(Histogram::BucketUpperBound(62), INT64_MAX);
  EXPECT_EQ(Histogram::BucketUpperBound(63), INT64_MAX);

  // Every value lands in a bucket whose bounds contain it.
  for (int64_t v : {1LL, 2LL, 3LL, 100LL, 4096LL, 123456789LL}) {
    int idx = Histogram::BucketIndex(v);
    EXPECT_LE(v, Histogram::BucketUpperBound(idx)) << v;
    if (idx > 0) EXPECT_GT(v, Histogram::BucketUpperBound(idx - 1)) << v;
  }
}

TEST(HistogramTest, ObserveBasics) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0);
  EXPECT_EQ(h.Percentile(0.5), 0);
  h.Observe(10);
  h.Observe(100);
  h.Observe(-5);  // clamped to 0
  EXPECT_EQ(h.Count(), 3);
  EXPECT_EQ(h.Sum(), 110);
  EXPECT_EQ(h.Max(), 100);
  EXPECT_EQ(h.BucketCount(0), 1);
  EXPECT_EQ(h.BucketCount(Histogram::BucketIndex(10)), 1);
  EXPECT_EQ(h.BucketCount(Histogram::BucketIndex(100)), 1);
}

TEST(HistogramTest, PercentilesAgainstSortedReference) {
  // Deterministic pseudo-random samples; the histogram's percentile must
  // bracket the true order statistic within the documented 2x bound and
  // never undershoot it.
  Histogram h;
  std::vector<int64_t> vals;
  uint64_t x = 12345;
  for (int i = 0; i < 1000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    vals.push_back(static_cast<int64_t>(x % 1000000) + 2);
  }
  for (int64_t v : vals) h.Observe(v);
  std::vector<int64_t> sorted = vals;
  std::sort(sorted.begin(), sorted.end());
  for (double p : {0.5, 0.9, 0.95, 0.99, 1.0}) {
    int64_t rank = static_cast<int64_t>(
        std::ceil(p * static_cast<double>(sorted.size())));
    if (rank < 1) rank = 1;
    int64_t truth = sorted[static_cast<size_t>(rank - 1)];
    int64_t est = h.Percentile(p);
    EXPECT_GE(est, truth) << "p=" << p;
    EXPECT_LE(est, 2 * truth) << "p=" << p;
  }
  // p=1 is exact: the recorded max tightens the top bucket.
  EXPECT_EQ(h.Percentile(1.0), sorted.back());
}

TEST(HistogramTest, ConcurrentObserves) {
  Histogram h;
  std::atomic<int64_t> c{0};  // a stats-list counter: one relaxed add
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, &c] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(i);
        c.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.Count(), kThreads * kPerThread);
  EXPECT_EQ(c.load(), kThreads * kPerThread);
  // Sum of 0..kPerThread-1, once per thread.
  int64_t per_thread_sum =
      static_cast<int64_t>(kPerThread) * (kPerThread - 1) / 2;
  EXPECT_EQ(h.Sum(), kThreads * per_thread_sum);
  EXPECT_EQ(h.Max(), kPerThread - 1);
}

TEST(MetricsTest, AtomicAddDouble) {
  std::atomic<double> v{0.0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&v] {
      for (int i = 0; i < 1000; ++i) AtomicAddDouble(&v, 0.5);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_DOUBLE_EQ(v.load(), 2000.0);
}

TEST(RegistryTest, SameNameAndLabelsSameInstance) {
  Registry reg;
  Histogram* a = reg.GetHistogram("lat", {{"path", "warm"}});
  Histogram* b = reg.GetHistogram("lat", {{"path", "warm"}});
  Histogram* other = reg.GetHistogram("lat", {{"path", "cold"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
  a->Observe(3);
  EXPECT_EQ(b->Count(), 1);
  EXPECT_EQ(other->Count(), 0);
}

TEST(RegistryTest, PrometheusRendering) {
  Registry reg;
  reg.GetHistogram("lb2_wait", {{"path", "warm"}})->Observe(7);
  Histogram* h = reg.GetHistogram("lb2_lat");
  h->Observe(5);   // bucket 2 (le=7)
  h->Observe(6);   // bucket 2
  h->Observe(100);  // bucket 6 (le=127)

  std::string out = reg.RenderPrometheus();
  EXPECT_NE(out.find("# TYPE lb2_wait histogram\n"), std::string::npos)
      << out;
  EXPECT_NE(out.find("lb2_wait_bucket{path=\"warm\",le=\"7\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("lb2_wait_count{path=\"warm\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE lb2_lat histogram\n"), std::string::npos);
  // Cumulative buckets: 2 observations at le=7, all 3 by le=127 and +Inf.
  EXPECT_NE(out.find("lb2_lat_bucket{le=\"7\"} 2\n"), std::string::npos);
  EXPECT_NE(out.find("lb2_lat_bucket{le=\"127\"} 3\n"), std::string::npos);
  EXPECT_NE(out.find("lb2_lat_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(out.find("lb2_lat_sum 111\n"), std::string::npos);
  EXPECT_NE(out.find("lb2_lat_count 3\n"), std::string::npos);
  // p50 of {5,6,100}: rank 2 -> bucket le=7; p99 -> max-clamped 100.
  EXPECT_NE(out.find("lb2_lat_p50 7\n"), std::string::npos);
  EXPECT_NE(out.find("lb2_lat_p99 100\n"), std::string::npos);
  EXPECT_NE(out.find("lb2_lat_max 100\n"), std::string::npos);
}

TEST(RegistryTest, JsonRendering) {
  Registry reg;
  reg.GetHistogram("wait", {{"path", "warm"}})->Observe(2);
  Histogram* h = reg.GetHistogram("lat");
  h->Observe(8);
  std::string out = reg.RenderJson();
  EXPECT_EQ(out.front(), '[');
  EXPECT_NE(out.find("{\"name\":\"wait\",\"labels\":{\"path\":\"warm\"},"
                     "\"type\":\"histogram\",\"count\":1,\"sum\":2"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"name\":\"lat\""), std::string::npos);
  EXPECT_NE(out.find("\"type\":\"histogram\",\"count\":1,\"sum\":8"),
            std::string::npos);
}

// The three renderers of a stats list: the one-line ToString form, the
// Prometheus block and the JSON object, over one integral counter, one
// gauge and one real-valued counter.
TEST(StatsRenderTest, LinePrometheusAndJson) {
  const std::vector<Stat> stats = {
      {"lb2_reqs_total", "counter", "requests", 7, true},
      {"lb2_depth", "gauge", "depth", 3, true},
      {"lb2_ms_saved_total", "counter", "compile-ms saved", 1.5, false},
  };
  EXPECT_EQ(RenderStatsLine(stats),
            "requests=7 depth=3 compile-ms saved=2");
  EXPECT_EQ(RenderStatsPrometheus(stats),
            "# TYPE lb2_reqs_total counter\nlb2_reqs_total 7\n"
            "# TYPE lb2_depth gauge\nlb2_depth 3\n"
            "# TYPE lb2_ms_saved_total counter\nlb2_ms_saved_total 1.5\n");
  EXPECT_EQ(RenderStatsJson(stats),
            "{\"lb2_reqs_total\": 7, \"lb2_depth\": 3, "
            "\"lb2_ms_saved_total\": 1.5}");
  EXPECT_EQ(RenderStatsLine({}), "");
  EXPECT_EQ(RenderStatsPrometheus({}), "");
  EXPECT_EQ(RenderStatsJson({}), "{}");
}

TEST(TraceTest, RenderSpans) {
  // Spans carry real begin/end timestamps now; the flat rendering orders
  // by begin time regardless of append order.
  SpanList spans;
  spans.push_back({"exec", 1'000'000, 2'500'000});
  spans.push_back({"fingerprint", 100'000, 112'000});
  EXPECT_EQ(RenderSpans(spans), "fingerprint=0.012ms exec=1.500ms");
  EXPECT_EQ(RenderSpans({}), "");
}

TEST(TraceTest, GraftSpansRebasesParentLinks) {
  // dst: a root request span; src: a service subtree whose "cc" child
  // points at its local "build" parent (index 0 within src).
  SpanList dst;
  dst.push_back({"request", 0, 100});
  SpanList src;
  src.push_back({"build", 10, 90});
  src.push_back({"cc", 20, 80, 0});
  GraftSpans(&dst, src, /*root_parent=*/0);
  ASSERT_EQ(dst.size(), 3u);
  EXPECT_EQ(dst[1].name, "build");
  EXPECT_EQ(dst[1].parent, 0);   // src root attached under dst's root
  EXPECT_EQ(dst[2].name, "cc");
  EXPECT_EQ(dst[2].parent, 1);   // intra-src link shifted by dst size
}

TEST(TraceTest, RenderSpanTreeIndentsChildren) {
  SpanList spans;
  spans.push_back({"request", 0, 3'000'000});
  spans.push_back({"queue", 0, 500'000, 0});
  spans.push_back({"exec", 500'000, 3'000'000, 0});
  std::string out = RenderSpanTree(spans);
  // Parent first, children indented beneath, offsets relative to root.
  size_t req = out.find("request");
  size_t queue = out.find("  queue");
  size_t exec = out.find("  exec");
  EXPECT_NE(req, std::string::npos) << out;
  EXPECT_NE(queue, std::string::npos) << out;
  EXPECT_NE(exec, std::string::npos) << out;
  EXPECT_LT(req, queue);
  EXPECT_LT(queue, exec);
}

// Regression: the old writer treated span durations as back-to-back
// segments starting at the enclosing event's t0, so two overlapping
// stages rendered as sequential. Real timestamps must survive into the
// trace_event document — concurrent spans keep their true begin times.
TEST(TraceTest, ChromeTraceWriterPreservesOverlap) {
  std::string path = ::testing::TempDir() + "lb2_obs_overlap_trace.json";
  ChromeTraceWriter w(path);
  SpanList spans;
  spans.push_back({"a", 1'000'000, 3'000'000});
  spans.push_back({"b", 2'000'000, 4'000'000});  // overlaps a
  w.Add("request", 0, 1'000'000, spans);
  std::string error;
  ASSERT_TRUE(w.WriteFile(&error)) << error;
  std::ifstream in(path);
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Chrome ts/dur are µs: a at ts=1000 dur=2000, b at ts=2000 dur=2000 —
  // NOT b at ts=3000, which is what the old back-to-back layout produced.
  EXPECT_NE(json.find("\"name\": \"a\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\": 2000.000"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"ts\": 3000.000"), std::string::npos) << json;
  // The enclosing slice stretches to the latest span end (3000µs long),
  // not the sum of child durations (4000µs).
  EXPECT_NE(json.find("\"dur\": 3000.000"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"dur\": 4000.000"), std::string::npos) << json;
}

TEST(MetricsTest, HistogramExemplarRendersOnOwningBucket) {
  Registry reg;
  Histogram* h = reg.GetHistogram("lb2_lat");
  h->Observe(5);
  h->Observe(100);
  h->SetExemplar(0xabcdef0123456789ull, 100);
  std::string out = reg.RenderPrometheus();
  // The exemplar rides the bucket that contains its value (100 -> le=127)
  // in OpenMetrics syntax, and no other bucket carries one.
  EXPECT_NE(out.find("lb2_lat_bucket{le=\"127\"} 2 # {trace_id="
                     "\"abcdef0123456789\"} 100\n"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("le=\"7\"} 1 #"), std::string::npos) << out;
  // trace id 0 = "no exemplar": ignored.
  Histogram* h2 = reg.GetHistogram("lb2_lat2");
  h2->Observe(5);
  h2->SetExemplar(0, 5);
  EXPECT_EQ(reg.RenderPrometheus().find("lb2_lat2_bucket{le=\"7\"} 1 #"),
            std::string::npos);
}

TEST(LogTest, ParseAndThreshold) {
  EXPECT_EQ(ParseLogLevel("off"), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("WARN"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("Info"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("bogus"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel(nullptr), LogLevel::kWarn);

  LogLevel saved = LogThreshold();
  SetLogThreshold(LogLevel::kError);
  EXPECT_TRUE(LogEnabled(LogLevel::kError));
  EXPECT_FALSE(LogEnabled(LogLevel::kWarn));
  SetLogThreshold(LogLevel::kOff);
  EXPECT_FALSE(LogEnabled(LogLevel::kError));
  SetLogThreshold(saved);
}

TEST(TimeTest, NowNsMonotonic) {
  int64_t a = NowNs();
  int64_t b = NowNs();
  EXPECT_GT(a, 0);
  EXPECT_GE(b, a);
}

// End to end: a served request shows up in the Prometheus export with its
// path-labeled latency histogram and all the ServiceStats counters.
TEST(ServiceMetricsTest, PrometheusExport) {
  rt::Database db;
  tpch::Generate(0.002, 2026, &db);
  service::ServiceOptions opts;
  opts.metrics = true;
  service::QueryService svc(db, opts);

  tpch::QueryOptions qopts;
  qopts.scale_factor = 0.002;
  service::ServiceResult r = svc.Execute(tpch::BuildQuery(6, qopts));
  EXPECT_EQ(r.status, service::ServiceResult::Status::kOk);
  // Spans cover the pipeline stages the request actually went through.
  ASSERT_FALSE(r.spans.empty());
  EXPECT_EQ(r.spans.front().name, "fingerprint");
  bool has_exec = false;
  for (const auto& s : r.spans) has_exec |= s.name == "exec";
  EXPECT_TRUE(has_exec) << RenderSpans(r.spans);

  std::string prom = svc.MetricsPrometheus();
  EXPECT_NE(prom.find("# TYPE lb2_request_latency_ns histogram"),
            std::string::npos)
      << prom;
  // The label of the path this request took: under a shared LB2_CACHE_DIR
  // another test may already have put this artifact on disk.
  std::string label = service::PathName(r.path);
  std::replace(label.begin(), label.end(), '-', '_');
  EXPECT_NE(prom.find(std::string("lb2_request_latency_ns_count{path=\"") +
                      label + "\"} 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("lb2_request_latency_ns_p50{"), std::string::npos);
  EXPECT_NE(prom.find("lb2_request_latency_ns_p95{"), std::string::npos);
  EXPECT_NE(prom.find("lb2_request_latency_ns_p99{"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE lb2_requests_total counter\n"
                      "lb2_requests_total 1\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("lb2_cache_entries "), std::string::npos);
  EXPECT_NE(prom.find("lb2_compile_ms_paid_total "), std::string::npos);

  std::string json = svc.MetricsJson();
  EXPECT_NE(json.find("\"stats\": {"), std::string::npos);
  EXPECT_NE(json.find("\"lb2_requests_total\": 1"), std::string::npos);
}

// The parameterized-plan counters flow through every surface: Prometheus,
// JSON, and the one-line ToString rendering shells print for `\stats`.
TEST(ServiceMetricsTest, ParamCountersExported) {
  rt::Database db;
  tpch::Generate(0.002, 2026, &db);
  service::ServiceOptions opts;
  opts.metrics = true;
  opts.cache_dir = "";  // memory tier only: deterministic hit accounting
  opts.parameterize = true;
  service::QueryService svc(db, opts);

  auto member = [](double thr) {
    plan::Query q;
    q.root = plan::ScalarAggPlan(
        plan::Filter(plan::Scan("lineitem"),
                     plan::Lt(plan::Col("l_quantity"), plan::D(thr))),
        {plan::CountStar("n")});
    return q;
  };
  // One shape, three literals: 1 compile + 2 parameterized cache hits,
  // 3 bound literals total.
  svc.Execute(member(10.0));
  svc.Execute(member(20.0));
  svc.Execute(member(30.0));

  std::string prom = svc.MetricsPrometheus();
  EXPECT_NE(prom.find("# TYPE lb2_param_cache_hits_total counter\n"
                      "lb2_param_cache_hits_total 2\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("lb2_param_bindings_total 3\n"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("lb2_param_guard_fallbacks_total 0\n"),
            std::string::npos)
      << prom;

  std::string json = svc.MetricsJson();
  EXPECT_NE(json.find("\"lb2_param_cache_hits_total\": 2"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"lb2_param_bindings_total\": 3"), std::string::npos)
      << json;

  std::string line = svc.Stats().ToString();
  EXPECT_NE(line.find("param-hits=2"), std::string::npos) << line;
  EXPECT_NE(line.find("param-bindings=3"), std::string::npos) << line;
  EXPECT_NE(line.find("param-guard-fallbacks=0"), std::string::npos) << line;
}

// With metrics off, the hot path records nothing: no spans, empty
// histogram registry — but the counters (satellite: always-on atomics)
// still tick.
TEST(ServiceMetricsTest, MetricsOffStillCounts) {
  rt::Database db;
  tpch::Generate(0.002, 2026, &db);
  service::ServiceOptions opts;
  opts.metrics = false;
  service::QueryService svc(db, opts);

  tpch::QueryOptions qopts;
  qopts.scale_factor = 0.002;
  service::ServiceResult r = svc.Execute(tpch::BuildQuery(6, qopts));
  EXPECT_EQ(r.status, service::ServiceResult::Status::kOk);
  EXPECT_TRUE(r.spans.empty());
  service::ServiceStats s = svc.Stats();
  EXPECT_EQ(s.requests, 1);
  std::string prom = svc.MetricsPrometheus();
  EXPECT_EQ(prom.find("lb2_request_latency_ns"), std::string::npos);
  EXPECT_NE(prom.find("lb2_requests_total 1\n"), std::string::npos);
}

// -- Exposition pin -----------------------------------------------------------

/// One exported stat as a scrape must show it.
struct Pinned {
  const char* name;
  const char* type;  // Prometheus TYPE
  double value;
  bool integral;
};

std::string PinnedValue(const Pinned& p) {
  return p.integral ? StrPrintf("%lld", static_cast<long long>(p.value))
                    : StrPrintf("%g", p.value);
}

/// Lines of `text` that start with `prefix`.
std::vector<std::string> LinesStartingWith(const std::string& text,
                                           const std::string& prefix) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) out.push_back(line);
  }
  return out;
}

size_t CountOf(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

void WaitUntil(const std::function<bool()>& pred) {
  for (int i = 0; i < 10000 && !pred(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pred());
}

// Every service and network stat appears exactly once in /metrics (with
// its TYPE line) and once in /stats, and both show the value Stats() and
// stats() report. The service is driven through a cache hit, a cold miss,
// an interpreted follower, a busy shed and a drain shed first, so most
// values are not zero.
TEST(ExpositionPinTest, EveryStatOnceWithItsTypeAndValue) {
  rt::Database db;
  tpch::Generate(0.002, 2026, &db);
  char tmpl[] = "/tmp/lb2_pin_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;

  {
    service::ServiceOptions sopts;
    sopts.cache_dir = dir;  // a private disk tier, so its counters move too
    sopts.max_inflight = 2;
    sopts.queue_timeout_ms = 0;  // shed at once when both slots are held
    service::QueryService svc(db, sopts);
    net::NetOptions nopts;
    nopts.num_workers = 2;
    net::NetServer server(&svc, nopts);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;

    const char* kCold =
        "select l_returnflag, count(*) as n from lineitem "
        "group by l_returnflag order by l_returnflag";
    const char* kFollowed =
        "select sum(l_extendedprice) as rev from lineitem "
        "where l_quantity < 24";
    auto round_trip = [&](uint64_t id) {
      net::BlockingClient c;
      EXPECT_TRUE(c.Connect("127.0.0.1", server.port(), &error)) << error;
      EXPECT_TRUE(c.SendQuery(id, kCold));
      net::Frame f;
      EXPECT_EQ(c.ReadFrame(&f, 30000),
                net::BlockingClient::ReadStatus::kFrame);
      return f.type;
    };

    // A cold miss, then a cache hit, each on its own connection.
    EXPECT_EQ(round_trip(1), net::FrameType::kResult);
    EXPECT_EQ(round_trip(2), net::FrameType::kResult);

    // An interpreted follower: the leader's compiler is held back, so a
    // second request of the same shape joins its flight.
    {
      lb2::testing::FaultPlan plan;
      ASSERT_TRUE(lb2::testing::FaultPlan::Parse("cc_exec:delay=500ms:once",
                                                 &plan, &error))
          << error;
      lb2::testing::ArmFaults(plan);
      const plan::Query q = sql::ParseQuery(kFollowed, db);
      std::thread leader([&] { svc.Execute(q); });
      WaitUntil([&] { return svc.Stats().in_flight == 1; });
      EXPECT_EQ(svc.Execute(q).path,
                service::ServiceResult::Path::kInterpreted);
      leader.join();
      lb2::testing::DisarmFaults();
    }
    svc.DrainBackground();

    // A busy shed over the socket: both execution slots are held.
    ASSERT_TRUE(svc.admission()->Admit());
    ASSERT_TRUE(svc.admission()->Admit());
    EXPECT_EQ(round_trip(3), net::FrameType::kBusy);
    svc.admission()->Release();
    svc.admission()->Release();

    // A drain shed.
    svc.BeginDrain();
    EXPECT_EQ(svc.Execute(sql::ParseQuery(kCold, db)).status,
              service::ServiceResult::Status::kBusy);
    svc.DrainBackground();
    WaitUntil([&] { return server.stats().active == 0; });

    const service::ServiceStats s = svc.Stats();
    const net::NetStats n = server.stats();
    // Led by a newline, so every line of the exposition starts after one.
    const std::string prom = "\n" + server.MetricsPrometheus();
    const std::string json = server.StatsJson();

    EXPECT_EQ(s.misses, 2);
    EXPECT_EQ(s.hits, 1);
    EXPECT_EQ(s.interp_while_compiling, 1);
    EXPECT_EQ(s.busy_rejections, 1);
    EXPECT_EQ(s.drain_sheds, 1);
    EXPECT_EQ(n.busy_frames, 1);
    EXPECT_EQ(s.busy_rejections, svc.admission()->timed_out_total());
    EXPECT_EQ(s.in_flight, 0);

    auto c = [](const char* name, int64_t v) {
      return Pinned{name, "counter", static_cast<double>(v), true};
    };
    auto g = [](const char* name, int64_t v) {
      return Pinned{name, "gauge", static_cast<double>(v), true};
    };
    const Pinned pins[] = {
        c("lb2_requests_total", s.requests),
        c("lb2_cache_hits_total", s.hits),
        c("lb2_cache_misses_total", s.misses),
        c("lb2_compiles_total", s.compiles),
        c("lb2_compile_failures_total", s.compile_failures),
        c("lb2_interp_while_compiling_total", s.interp_while_compiling),
        c("lb2_interp_fallbacks_total", s.interp_fallbacks),
        g("lb2_compiles_in_flight", s.in_flight),
        g("lb2_exec_in_flight", s.exec_in_flight),
        c("lb2_admitted_total", s.admitted),
        c("lb2_queued_waits_total", s.queued_waits),
        c("lb2_busy_rejections_total", s.busy_rejections),
        {"lb2_compile_ms_saved_total", "counter", s.compile_ms_saved, false},
        {"lb2_compile_ms_paid_total", "counter", s.compile_ms_paid, false},
        g("lb2_cache_entries", s.cache_entries),
        g("lb2_cache_bytes", s.cache_bytes),
        c("lb2_cache_evictions_total", s.evictions),
        c("lb2_disk_hits_total", s.disk_hits),
        c("lb2_disk_misses_total", s.disk_misses),
        c("lb2_disk_writes_total", s.disk_writes),
        c("lb2_disk_evictions_total", s.disk_evictions),
        c("lb2_disk_corrupt_total", s.disk_corrupt),
        c("lb2_drift_recompiles_total", s.drift_recompiles),
        c("lb2_cc_retries_total", s.cc_retries),
        c("lb2_breaker_trips_total", s.breaker_trips),
        g("lb2_breaker_open", s.breaker_open),
        c("lb2_breaker_served_total", s.breaker_served),
        c("lb2_breaker_rebuilds_total", s.breaker_rebuilds),
        c("lb2_disk_write_failures_total", s.disk_write_failures),
        c("lb2_disk_cooldowns_total", s.disk_cooldowns),
        c("lb2_faults_injected_total", s.faults_injected),
        c("lb2_drain_sheds_total", s.drain_sheds),
        c("lb2_param_cache_hits_total", s.param_cache_hits),
        c("lb2_param_bindings_total", s.param_bindings_total),
        c("lb2_param_guard_fallbacks_total", s.param_guard_fallbacks),
        c("lb2_explore_runs_total", s.explore_runs),
        c("lb2_explore_candidates_total", s.explore_candidates),
        c("lb2_flavor_overrides_total", s.flavor_overrides),
        c("lb2_prof_samples_total", s.prof_samples),
        c("lb2_midquery_switches_total", s.midquery_switches),
        c("lb2_midquery_interp_wins_total", s.midquery_interp_wins),
        c("lb2_net_accepted_total", n.accepted),
        // Every accepted connection is either still active or closed.
        c("lb2_net_closed_total", n.accepted - n.active),
        g("lb2_net_connections_active", n.active),
        c("lb2_net_frames_in_total", n.frames_in),
        c("lb2_net_frames_out_total", n.frames_out),
        c("lb2_net_busy_frames_total", n.busy_frames),
        c("lb2_net_error_frames_total", n.error_frames),
        c("lb2_net_protocol_errors_total", n.protocol_errors),
        c("lb2_net_backpressure_stalls_total", n.backpressure_stalls),
        c("lb2_net_responses_dropped_total", n.responses_dropped),
        c("lb2_net_admin_requests_total", n.admin_requests),
        c("lb2_net_drain_forced_closes_total", n.drain_forced_closes),
        c("lb2_net_traces_kept_total", n.traces_kept),
    };
    ASSERT_EQ(std::size(pins), 54u);
    for (const Pinned& p : pins) {
      const std::string name = p.name;
      const std::string want = PinnedValue(p);
      EXPECT_EQ(CountOf(prom, "\n# TYPE " + name + " "), 1u) << name;
      EXPECT_EQ(CountOf(prom, "\n# TYPE " + name + " " + p.type + "\n"), 1u)
          << name;
      const std::vector<std::string> lines =
          LinesStartingWith(prom, name + " ");
      ASSERT_EQ(lines.size(), 1u) << name << "\n" << prom;
      EXPECT_EQ(lines[0], name + " " + want);
      EXPECT_TRUE(LinesStartingWith(prom, name + "{").empty()) << name;
      // In /stats a stat is either a `"name": value` member of a stats
      // object or a registry metric object carrying its value.
      EXPECT_EQ(CountOf(json, "\"" + name + "\""), 1u) << name;
      std::smatch m;
      const std::regex value_re(
          "\"" + name +
          "\"(?:,\"labels\":\\{\\},\"type\":\"(?:counter|gauge)\","
          "\"value\":|: )([^,}\\s]+)");
      ASSERT_TRUE(std::regex_search(json, m, value_re)) << name << "\n"
                                                         << json;
      EXPECT_EQ(m[1].str(), want) << name;
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lb2::obs
