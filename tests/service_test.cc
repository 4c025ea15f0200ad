// Query-service tests: fingerprint stability and sensitivity, cache
// hit/eviction behavior, single-flight compilation under concurrency
// (differentially checked against the Volcano oracle), graceful
// degradation to the interpreted path on generated-code compile failure,
// and strict parsing of the numeric and on/off LB2_* env knobs.
//
// These carry the ctest label `service`; the CI sanitizer flow runs them
// under ThreadSanitizer (`cmake -DLB2_SANITIZE=thread`, `ctest -L service`).
#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "engine/morsel.h"
#include "net/server.h"
#include "obs/recorder.h"
#include "scoped_env.h"
#include "service/fingerprint.h"
#include "service/query_cache.h"
#include "service/service.h"
#include "sql/sql.h"
#include "tpch/answers.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "volcano/volcano.h"

namespace lb2::service {
namespace {

class ServiceTest : public ::testing::Test {
 public:
  static void SetUpTestSuite() {
    db_ = new rt::Database();
    tpch::Generate(0.002, 808, db_);
  }
  static void TearDownTestSuite() { delete db_; }

  static plan::Query Parse(const std::string& sql) {
    return sql::ParseQuery(sql, *db_);
  }

  static std::string Oracle(const plan::Query& q) {
    return volcano::Execute(q, *db_);
  }

  static rt::Database* db_;
};

rt::Database* ServiceTest::db_ = nullptr;

constexpr const char* kGroupBySql =
    "select l_returnflag, count(*) as n, sum(l_extendedprice) as rev "
    "from lineitem group by l_returnflag order by l_returnflag";

// CI runs this suite with LB2_CACHE_DIR pointing at a tmpdir shared by all
// test processes, so a "cold" request may be served by loading a persisted
// artifact (another process — or an earlier test in this one — already
// compiled the same fingerprint). Cold-path assertions accept either; the
// invariant that matters is that the external compiler ran at most once,
// which `compiles + disk_hits` counts exactly.
bool ColdOrDisk(ServiceResult::Path p) {
  return p == ServiceResult::Path::kCompiledCold ||
         p == ServiceResult::Path::kCompiledDisk;
}

// -- Fingerprinting ---------------------------------------------------------

TEST_F(ServiceTest, FingerprintStableAcrossIndependentParses) {
  // Two independently parsed (distinct shared_ptr graphs) copies of the
  // same statement must collide — that is what makes the cache work.
  plan::Query a = Parse(kGroupBySql);
  plan::Query b = Parse(kGroupBySql);
  engine::EngineOptions opts;
  EXPECT_EQ(FingerprintQuery(a, opts, *db_), FingerprintQuery(b, opts, *db_));
}

TEST_F(ServiceTest, FingerprintStableForPlanLibrary) {
  tpch::QueryOptions qopts;
  EXPECT_EQ(FingerprintQuery(tpch::BuildQuery(6, qopts), {}, *db_),
            FingerprintQuery(tpch::BuildQuery(6, qopts), {}, *db_));
}

TEST_F(ServiceTest, FingerprintSensitiveToPredicateConstant) {
  plan::Query a =
      Parse("select count(*) as n from lineitem where l_quantity < 24");
  plan::Query b =
      Parse("select count(*) as n from lineitem where l_quantity < 25");
  EXPECT_NE(FingerprintQuery(a, {}, *db_), FingerprintQuery(b, {}, *db_));
}

TEST_F(ServiceTest, FingerprintSensitiveToEngineOptions) {
  plan::Query q = Parse(kGroupBySql);
  engine::EngineOptions base;
  engine::EngineOptions no_hoist = base;
  no_hoist.hoist_alloc = false;
  engine::EngineOptions columnar = base;
  columnar.row_layout_joins = false;
  engine::EngineOptions parallel = base;
  parallel.num_threads = 4;
  EXPECT_NE(FingerprintQuery(q, base, *db_),
            FingerprintQuery(q, no_hoist, *db_));
  EXPECT_NE(FingerprintQuery(q, base, *db_),
            FingerprintQuery(q, columnar, *db_));
  EXPECT_NE(FingerprintQuery(q, base, *db_),
            FingerprintQuery(q, parallel, *db_));
}

TEST_F(ServiceTest, FingerprintSensitiveToDatabaseIdentity) {
  // Different data (row counts are baked into generated code) ...
  rt::Database other;
  tpch::Generate(0.001, 99, &other);
  plan::Query q = Parse(kGroupBySql);
  EXPECT_NE(FingerprintQuery(q, {}, *db_), FingerprintQuery(q, {}, other));

  // ... and different auxiliary structures (they gate codegen paths) must
  // both shift the key.
  uint64_t before = FingerprintDatabase(other);
  other.BuildPkIndex("orders", "o_orderkey");
  EXPECT_NE(before, FingerprintDatabase(other));
}

// -- Cache mechanics (no compiler involved) ---------------------------------

CacheEntryPtr FakeEntry(uint64_t hash, int64_t bytes) {
  auto e = std::make_shared<CacheEntry>();
  e->fingerprint = Fingerprint{hash};
  e->bytes = bytes;
  return e;
}

TEST(QueryCacheTest, LruEvictionOrder) {
  QueryCache cache(/*max_entries=*/2);
  cache.Put(FakeEntry(1, 10));
  cache.Put(FakeEntry(2, 10));
  ASSERT_NE(cache.Get(Fingerprint{1}), nullptr);  // bump 1 to MRU
  cache.Put(FakeEntry(3, 10));                    // evicts 2, the LRU
  EXPECT_NE(cache.Get(Fingerprint{1}), nullptr);
  EXPECT_EQ(cache.Get(Fingerprint{2}), nullptr);
  EXPECT_NE(cache.Get(Fingerprint{3}), nullptr);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(QueryCacheTest, EvictedEntrySurvivesWhileHeld) {
  QueryCache cache(/*max_entries=*/1);
  cache.Put(FakeEntry(1, 10));
  CacheEntryPtr held = cache.Get(Fingerprint{1});
  ASSERT_NE(held, nullptr);
  cache.Put(FakeEntry(2, 10));  // evicts 1 from the cache ...
  EXPECT_EQ(cache.Get(Fingerprint{1}), nullptr);
  // ... but the in-flight reference keeps the entry (and in real use its
  // dlopen handle) alive.
  EXPECT_EQ(held->fingerprint.hash, 1u);
}

// -- Service end-to-end -----------------------------------------------------

TEST_F(ServiceTest, WarmHitSkipsCompilation) {
  QueryService svc(*db_);
  plan::Query q = Parse(kGroupBySql);
  std::string want = Oracle(q);

  ServiceResult cold = svc.Execute(q);
  EXPECT_TRUE(ColdOrDisk(cold.path)) << PathName(cold.path);
  EXPECT_EQ(tpch::DiffResults(want, cold.text, /*order_sensitive=*/true), "");

  ServiceResult warm = svc.Execute(Parse(kGroupBySql));
  EXPECT_EQ(warm.path, ServiceResult::Path::kCompiledCached);
  EXPECT_EQ(tpch::DiffResults(want, warm.text, /*order_sensitive=*/true), "");

  ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.compiles + stats.disk_hits, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_GT(stats.compile_ms_saved, 0.0);
  EXPECT_EQ(stats.cache_entries, 1);
  EXPECT_GT(stats.cache_bytes, 0);
}

TEST_F(ServiceTest, LruEvictionForcesRecompile) {
  ServiceOptions opts;
  opts.cache_capacity = 2;
  QueryService svc(*db_, opts);
  // Distinct *shapes* (different filter columns): plans that differ only
  // in literal values now share one parameterized cache entry, so eviction
  // pressure needs structurally different plans.
  const char* sqls[3] = {
      "select count(*) as n from lineitem where l_quantity < 10",
      "select count(*) as n from lineitem where l_discount < 0.05",
      "select count(*) as n from lineitem where l_tax < 0.04",
  };
  for (const char* s : sqls) svc.Execute(Parse(s));
  EXPECT_EQ(svc.Stats().cache_entries, 2);
  EXPECT_EQ(svc.Stats().evictions, 1);

  // The first statement was evicted: running it again is a miss (served
  // from disk when the persistent tier kept its artifact).
  ServiceResult again = svc.Execute(Parse(sqls[0]));
  EXPECT_TRUE(ColdOrDisk(again.path)) << PathName(again.path);
  EXPECT_EQ(svc.Stats().misses, 4);
}

TEST_F(ServiceTest, SingleFlightHybridInterpretPolicy) {
  QueryService svc(*db_);
  plan::Query q = Parse(kGroupBySql);
  std::string want = Oracle(q);

  constexpr int kThreads = 8;
  std::vector<ServiceResult> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] { results[static_cast<size_t>(i)] =
                                        svc.Execute(q); });
    }
    for (auto& t : threads) t.join();
  }

  // Exactly one build (JIT or verified disk load), no matter how the 8
  // requests interleave: the leader builds, the followers interpret.
  ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.compiles + stats.disk_hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.requests, kThreads);
  EXPECT_EQ(stats.compile_failures, 0);
  EXPECT_EQ(stats.in_flight, 0);

  // Every client, whichever path served it, matches the Volcano oracle.
  for (const auto& r : results) {
    EXPECT_EQ(tpch::DiffResults(want, r.text, /*order_sensitive=*/true), "")
        << PathName(r.path);
  }

  // And a subsequent request is a plain cache hit.
  EXPECT_EQ(svc.Execute(q).path, ServiceResult::Path::kCompiledCached);
}

TEST_F(ServiceTest, ConcurrentDistinctPlansAllCompile) {
  // Different fingerprints must not serialize behind one flight: four
  // structurally distinct plans (same-shape/different-literal plans share a
  // parameterized entry instead) submitted from four threads all compile
  // (and cache).
  QueryService svc(*db_);
  const char* sqls[4] = {
      "select count(*) as n from orders where o_totalprice > 1000",
      "select count(*) as n from orders where o_orderkey > 100",
      "select count(*) as n from orders where o_custkey > 50",
      "select count(*) as n from orders where o_shippriority >= 0",
  };
  std::vector<plan::Query> qs;
  std::vector<std::string> wants;
  for (const char* s : sqls) {
    qs.push_back(Parse(s));
    wants.push_back(Oracle(qs.back()));
  }
  std::vector<ServiceResult> results(4);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i) {
      threads.emplace_back([&, i] { results[static_cast<size_t>(i)] =
                                        svc.Execute(qs[static_cast<size_t>(i)]); });
    }
    for (auto& t : threads) t.join();
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(tpch::DiffResults(wants[static_cast<size_t>(i)],
                                results[static_cast<size_t>(i)].text,
                                /*order_sensitive=*/true), "");
  }
  ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.compiles + stats.disk_hits, 4);
  EXPECT_EQ(stats.cache_entries, 4);
}

TEST_F(ServiceTest, CompileFailureDegradesToInterpreter) {
  // Point the JIT at a compiler that always fails: the service must not
  // abort; it logs the captured diagnostics and serves the query
  // interpreted, with results still matching the oracle.
  ASSERT_EQ(setenv("LB2_CC", "/bin/false", /*overwrite=*/1), 0);
  ServiceOptions opts;
  opts.log_compile_errors = false;  // keep test output clean
  QueryService svc(*db_, opts);
  plan::Query q = Parse(kGroupBySql);
  ServiceResult r = svc.Execute(q);
  unsetenv("LB2_CC");

  EXPECT_EQ(r.path, ServiceResult::Path::kInterpreted);
  EXPECT_FALSE(r.compile_error.empty());
  EXPECT_EQ(tpch::DiffResults(Oracle(q), r.text, /*order_sensitive=*/true),
            "");
  ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.compile_failures, 1);
  EXPECT_EQ(stats.interp_fallbacks, 1);
  EXPECT_EQ(stats.compiles, 0);
  EXPECT_EQ(stats.cache_entries, 0);

  // The environment is healthy again: the same service recovers and
  // compiles (or disk-loads) on the next request.
  ServiceResult ok = svc.Execute(q);
  EXPECT_TRUE(ColdOrDisk(ok.path)) << PathName(ok.path);
  ServiceStats after = svc.Stats();
  EXPECT_EQ(after.compiles + after.disk_hits, 1);
}

TEST_F(ServiceTest, ExecuteSqlParsesAndCaches) {
  QueryService svc(*db_);
  ServiceResult r;
  std::string error;
  ASSERT_TRUE(svc.ExecuteSql(kGroupBySql, &r, &error)) << error;
  EXPECT_TRUE(ColdOrDisk(r.path)) << PathName(r.path);
  ASSERT_TRUE(svc.ExecuteSql(kGroupBySql, &r, &error)) << error;
  EXPECT_EQ(r.path, ServiceResult::Path::kCompiledCached);

  EXPECT_FALSE(svc.ExecuteSql("select nonsense from nowhere", &r, &error));
  EXPECT_FALSE(error.empty());
}

// -- Env knobs ----------------------------------------------------------------

TEST(ServiceKnobTest, EnvKnobsParseStrictlyOrKeepTheirDefaults) {
  // Every numeric and on/off knob the service, the network server and the
  // flight recorder read. A value counts only when all of it parses and it
  // meets the knob's minimum; anything else keeps the default (and logs a
  // warning) rather than reading as 0 or as "on".
  struct Knob {
    const char* name;
    double (*read)();
    double def;
  };
  const double morsel = static_cast<double>(engine::kDefaultMorselRows);
  const Knob knobs[] = {
      {"LB2_CACHE_CAPACITY",
       [] { return static_cast<double>(DefaultCacheCapacity()); }, 64},
      {"LB2_MAX_INFLIGHT",
       [] { return static_cast<double>(DefaultMaxInflight()); }, 0},
      {"LB2_QUEUE_TIMEOUT_MS", [] { return DefaultQueueTimeoutMs(); }, 100},
      {"LB2_CACHE_DISK_BYTES",
       [] { return static_cast<double>(DefaultCacheDiskBytes()); }, 0},
      {"LB2_CC_RETRIES",
       [] { return static_cast<double>(DefaultCcRetries()); }, 2},
      {"LB2_BREAKER_FAILURES",
       [] { return static_cast<double>(DefaultBreakerFailures()); }, 3},
      {"LB2_DISK_COOLDOWN_MS", [] { return DefaultDiskCooldownMs(); }, 1000},
      {"LB2_PROF_SAMPLE",
       [] { return static_cast<double>(DefaultProfSampleEvery()); }, 0},
      {"LB2_MORSEL_ROWS",
       [] { return static_cast<double>(DefaultMorselRows()); }, morsel},
      {"LB2_METRICS", [] { return DefaultMetricsEnabled() ? 1.0 : 0.0; }, 1},
      {"LB2_PARAMS", [] { return DefaultParamsEnabled() ? 1.0 : 0.0; }, 1},
      {"LB2_EXPLORE", [] { return DefaultExploreEnabled() ? 1.0 : 0.0; }, 0},
      {"LB2_MIDQUERY_SWITCH",
       [] { return DefaultMidquerySwitch() ? 1.0 : 0.0; }, 0},
      {"LB2_PORT", [] { return static_cast<double>(net::DefaultPort()); },
       7878},
      {"LB2_ADMIN_PORT",
       [] { return static_cast<double>(net::DefaultAdminPort()); }, 7879},
      {"LB2_NET_THREADS",
       [] { return static_cast<double>(net::DefaultNetThreads()); }, 4},
      {"LB2_DRAIN_TIMEOUT_MS", [] { return net::DefaultDrainTimeoutMs(); },
       5000},
      {"LB2_TRACE_RING",
       [] {
         return static_cast<double>(
             obs::FlightRecorder::OptionsFromEnv(1).ring);
       },
       64},
      {"LB2_SLOW_MS",
       [] {
         return static_cast<double>(
                    obs::FlightRecorder::OptionsFromEnv(1).slow_ns) /
                1e6;
       },
       50},
      {"LB2_TRACE_SAMPLE",
       [] {
         return static_cast<double>(
             obs::FlightRecorder::OptionsFromEnv(1).sample_every);
       },
       100},
  };
  struct Row {
    const char* knob;
    const char* value;
    double want;
  };
  const Row rows[] = {
      {"LB2_CACHE_CAPACITY", "8", 8},
      {"LB2_CACHE_CAPACITY", "0", 64},
      {"LB2_CACHE_CAPACITY", "12abc", 64},
      {"LB2_MAX_INFLIGHT", "4", 4},
      {"LB2_MAX_INFLIGHT", "eight", 0},
      {"LB2_MAX_INFLIGHT", "-1", 0},
      {"LB2_QUEUE_TIMEOUT_MS", "2.5", 2.5},
      {"LB2_QUEUE_TIMEOUT_MS", "1s", 100},
      {"LB2_QUEUE_TIMEOUT_MS", "-5", 100},
      {"LB2_CACHE_DISK_BYTES", "1048576", 1048576},
      {"LB2_CACHE_DISK_BYTES", "1MB", 0},
      {"LB2_CC_RETRIES", "0", 0},
      {"LB2_CC_RETRIES", "two", 2},
      {"LB2_BREAKER_FAILURES", "0", 0},
      {"LB2_BREAKER_FAILURES", "abc", 3},
      {"LB2_BREAKER_FAILURES", "", 3},
      {"LB2_DISK_COOLDOWN_MS", "0", 0},
      {"LB2_DISK_COOLDOWN_MS", "soon", 1000},
      {"LB2_PROF_SAMPLE", "10", 10},
      {"LB2_PROF_SAMPLE", "2.5", 0},
      {"LB2_MORSEL_ROWS", "512", 512},
      {"LB2_MORSEL_ROWS", "0", morsel},
      {"LB2_MORSEL_ROWS", "-4096", morsel},
      {"LB2_MORSEL_ROWS", "rows", morsel},
      {"LB2_METRICS", "0", 0},
      {"LB2_METRICS", "OFF", 0},
      {"LB2_METRICS", "maybe", 1},
      {"LB2_PARAMS", "0", 0},
      {"LB2_PARAMS", "off", 0},
      {"LB2_PARAMS", "False", 0},
      {"LB2_PARAMS", "1", 1},
      {"LB2_EXPLORE", "TRUE", 1},
      {"LB2_EXPLORE", "Yes", 1},
      {"LB2_EXPLORE", "2", 0},
      {"LB2_MIDQUERY_SWITCH", "on", 1},
      {"LB2_MIDQUERY_SWITCH", "nope", 0},
      // 0 asks for an ephemeral port.
      {"LB2_PORT", "9000", 9000},
      {"LB2_PORT", "0", 0},
      {"LB2_PORT", "abc", 7878},
      {"LB2_PORT", "-1", 7878},
      {"LB2_ADMIN_PORT", "0", 0},
      {"LB2_ADMIN_PORT", "abc", 7879},
      {"LB2_NET_THREADS", "8", 8},
      {"LB2_NET_THREADS", "abc", 4},
      {"LB2_NET_THREADS", "8x", 4},
      {"LB2_NET_THREADS", "0", 4},
      {"LB2_DRAIN_TIMEOUT_MS", "250", 250},
      {"LB2_DRAIN_TIMEOUT_MS", "0", 0},
      {"LB2_DRAIN_TIMEOUT_MS", "abc", 5000},
      {"LB2_DRAIN_TIMEOUT_MS", "5s", 5000},
      // 0 turns the flight recorder off.
      {"LB2_TRACE_RING", "8", 8},
      {"LB2_TRACE_RING", "0", 0},
      {"LB2_TRACE_RING", "abc", 64},
      // Any value <= 0 turns the slow-query log off.
      {"LB2_SLOW_MS", "5", 5},
      {"LB2_SLOW_MS", "-1", 0},
      {"LB2_SLOW_MS", "abc", 50},
      // 0 turns baseline sampling off.
      {"LB2_TRACE_SAMPLE", "10", 10},
      {"LB2_TRACE_SAMPLE", "0", 0},
      {"LB2_TRACE_SAMPLE", "abc", 100},
  };
  for (const Knob& k : knobs) {
    ScopedEnv unset(k.name, nullptr);
    EXPECT_EQ(k.read(), k.def) << k.name << " unset";
  }
  for (const Row& row : rows) {
    const Knob* k = nullptr;
    for (const Knob& c : knobs) {
      if (std::string(c.name) == row.knob) k = &c;
    }
    ASSERT_NE(k, nullptr) << row.knob;
    ScopedEnv env(row.knob, row.value);
    EXPECT_EQ(k->read(), row.want) << row.knob << "=" << row.value;
  }
}

}  // namespace
}  // namespace lb2::service
