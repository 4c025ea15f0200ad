// Morsel-driven execution and the mid-query interpreted→compiled switch
// (ROADMAP item 5):
//
//  * Switch-point differential matrix: LB2_SWITCH_AT=<k> forces the
//    interpreted prefix to stop at morsel boundary k; the compiled build
//    of the same fingerprint finishes the remaining morsels off the SAME
//    dispenser. Every boundary 0..N of a Q1-style (group-by over filtered
//    lineitem) and a Q6-style (scalar aggregate) shape must produce
//    byte-identical results vs the Volcano and pure-interpreted oracles,
//    across {1,4,8} threads × {dc, vec, blended} flavors.
//  * Claims exactly-once: with MorselRun::EnableClaims armed, 64 seeded
//    chaos schedules (random stop boundary, varying morsel size) must show
//    every morsel index claimed exactly once across the two engines.
//  * Work stealing: a table whose selected (expensive) rows all live in one
//    eighth of the range must scale when the same artifact runs off small
//    morsels instead of one morsel per thread (the static-split baseline:
//    whoever claims morsel 0 gets every hot row). The ≥1.5× ratio is
//    asserted only on ≥4 hardware threads and outside TSan (timing under
//    the sanitizer or on a single core proves nothing); correctness and
//    the exactly-once claim ledger are asserted unconditionally.
//  * Small spines: a parallel run shrinks its morsels so every lane has
//    some, and an interpreted prefix stopped inside any of its four
//    lanes hands the merged lanes to a 4-lane compiled suffix.
//  * A failed build stops no prefix: the request is interpreted once and
//    counted once. A service destroyed right after a live interp win
//    outwaits the build its request started.
//  * A zero-size dispenser is rejected, never spun on, and the
//    LB2_MORSEL_ROWS knob keeps its default for values <= 0.
//
// Carries the ctest label `morsel`; the CI `morsel` lane runs it under
// ThreadSanitizer together with the fuzz and tpch suites.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "compile/lb2_compiler.h"
#include "engine/exec.h"
#include "engine/morsel.h"
#include "engine/parallel.h"
#include "obs/recorder.h"
#include "scoped_env.h"
#include "service/service.h"
#include "testing/faults.h"
#include "tpch/answers.h"
#include "tpch/dbgen.h"
#include "volcano/volcano.h"

#if defined(__SANITIZE_THREAD__)
#define LB2_TSAN_BUILD 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#ifndef LB2_TSAN_BUILD
#define LB2_TSAN_BUILD 1
#endif
#endif
#endif
#ifndef LB2_TSAN_BUILD
#define LB2_TSAN_BUILD 0
#endif

namespace lb2 {
namespace {

using service::QueryService;
using service::ServiceOptions;
using service::ServiceResult;

// -- Scaffolding --------------------------------------------------------------

std::string MakeTempDir() {
  char tmpl[] = "/tmp/lb2_morsel_test_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

class MorselTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new rt::Database();
    tpch::Generate(0.005, 5150, db_);
  }
  static void TearDownTestSuite() { delete db_; }
  static rt::Database* db_;
};

rt::Database* MorselTest::db_ = nullptr;

/// Q1-style: group-by with string keys over a filtered lineitem scan —
/// exercises the string slots of the seed handoff.
plan::Query Q1Shape() {
  using namespace plan;  // NOLINT
  return {{}, OrderBy(GroupBy(Filter(Scan("lineitem"),
                                     Le(Col("l_shipdate"), Dt("1998-09-02"))),
                              {"f", "s"},
                              {Col("l_returnflag"), Col("l_linestatus")},
                              {Sum(Col("l_quantity"), "sq"),
                               Sum(Col("l_extendedprice"), "se"),
                               CountStar("n")}),
                      {{"f", true}, {"s", true}})};
}

/// Q6-style: scalar aggregate over a filtered scan — one vectorizable
/// site, so the vec/blended flavors take their batched prefix.
plan::Query Q6Shape() {
  using namespace plan;  // NOLINT
  return {{}, ScalarAggPlan(
                  Filter(Scan("lineitem"),
                         And({Ge(Col("l_shipdate"), Dt("1994-01-01")),
                              Lt(Col("l_shipdate"), Dt("1995-01-01")),
                              Lt(Col("l_quantity"), D(24.0))})),
                  {Sum(Mul(Col("l_extendedprice"), Col("l_discount")), "rev"),
                   CountStar("n")})};
}

// -- Switch-point differential matrix -----------------------------------------

struct FlavorCase {
  engine::Flavor flavor;
  uint64_t blend;
  const char* tag;
};

constexpr FlavorCase kFlavors[] = {
    {engine::Flavor::kDataCentric, 0, "dc"},
    {engine::Flavor::kVectorized, 0, "vec"},
    {engine::Flavor::kBlended, 1, "blend"},
};

constexpr int64_t kMorselRows = 4096;  // lineitem at sf 0.005 ≈ 8 morsels

/// Forces the interpreted→compiled switch at every morsel boundary of `q`
/// for one (threads, flavor) cell: a fresh service per boundary (so the
/// request is a cold leader), LB2_SWITCH_AT sweeping upward until the
/// interpreter finishes the whole query before boundary k exists. Every
/// stop point must answer byte-identically to the Volcano oracle.
/// `cache_dir` is shared across boundaries so only the first pays the
/// external compiler; later leaders take the disk-artifact path, which
/// must switch just the same.
int SweepSwitchPoints(const plan::Query& q, rt::Database* db,
                      const std::string& oracle, bool ordered, int threads,
                      const FlavorCase& fl, const std::string& cache_dir) {
  int switches = 0;
  for (int k = 0; k < 64; ++k) {
    SCOPED_TRACE("switch point " + std::to_string(k));
    ScopedEnv at("LB2_SWITCH_AT", std::to_string(k));
    ServiceOptions sopts;
    sopts.cache_dir = cache_dir;
    sopts.morsel_rows = kMorselRows;
    sopts.midquery_switch = true;
    QueryService svc(*db, sopts);
    engine::EngineOptions eopts;
    eopts.num_threads = threads;
    eopts.flavor = fl.flavor;
    eopts.blend = fl.blend;
    ServiceResult r = svc.Execute(q, eopts);
    EXPECT_EQ(r.status, ServiceResult::Status::kOk);
    EXPECT_EQ(tpch::DiffResults(oracle, r.text, ordered), "");
    if (::testing::Test::HasFailure()) return switches;
    if (!r.switched_mid_query) {
      // k is past the last boundary: the interpreter drained the dispenser
      // before the forced stop could fire and served the answer itself.
      EXPECT_EQ(r.path, ServiceResult::Path::kInterpreted);
      EXPECT_EQ(svc.Stats().midquery_interp_wins, 1);
      EXPECT_EQ(svc.Stats().midquery_switches, 0);
      return switches;
    }
    EXPECT_TRUE(r.path == ServiceResult::Path::kCompiledCold ||
                r.path == ServiceResult::Path::kCompiledDisk)
        << static_cast<int>(r.path);
    EXPECT_EQ(svc.Stats().midquery_switches, 1);
    ++switches;
  }
  ADD_FAILURE() << "switch still firing after 64 boundaries — the forced "
                   "stop never let the interpreter finish";
  return switches;
}

TEST_F(MorselTest, ForcedSwitchAtEveryBoundaryMatchesOraclesQ1Style) {
  plan::Query q = Q1Shape();
  std::string oracle = volcano::Execute(q, *db_);
  bool ordered = tpch::OrderSensitive(q);
  // Pure-interpreted oracle: the third engine of the differential.
  EXPECT_EQ(tpch::DiffResults(oracle, engine::ExecuteInterp(q, *db_).text,
                              ordered),
            "");
  std::string dir = MakeTempDir();
  for (int threads : {1, 4, 8}) {
    for (const FlavorCase& fl : kFlavors) {
      SCOPED_TRACE(std::string("threads ") + std::to_string(threads) +
                   " flavor " + fl.tag);
      int switches =
          SweepSwitchPoints(q, db_, oracle, ordered, threads, fl, dir);
      if (::testing::Test::HasFailure()) break;
      EXPECT_GE(switches, 3) << "too few boundaries: shrink kMorselRows";
    }
  }
  std::string cmd = "rm -rf " + dir;
  ASSERT_EQ(system(cmd.c_str()), 0);
}

TEST_F(MorselTest, ForcedSwitchAtEveryBoundaryMatchesOraclesQ6Style) {
  plan::Query q = Q6Shape();
  std::string oracle = volcano::Execute(q, *db_);
  bool ordered = tpch::OrderSensitive(q);
  EXPECT_EQ(tpch::DiffResults(oracle, engine::ExecuteInterp(q, *db_).text,
                              ordered),
            "");
  std::string dir = MakeTempDir();
  for (int threads : {1, 4, 8}) {
    for (const FlavorCase& fl : kFlavors) {
      SCOPED_TRACE(std::string("threads ") + std::to_string(threads) +
                   " flavor " + fl.tag);
      int switches =
          SweepSwitchPoints(q, db_, oracle, ordered, threads, fl, dir);
      if (::testing::Test::HasFailure()) break;
      EXPECT_GE(switches, 3) << "too few boundaries: shrink kMorselRows";
    }
  }
  std::string cmd = "rm -rf " + dir;
  ASSERT_EQ(system(cmd.c_str()), 0);
}

// -- Live-mode paths ----------------------------------------------------------

TEST_F(MorselTest, LiveInterpWinServesWithoutWaitingAndBuildStillPublishes) {
  // No LB2_SWITCH_AT: the real race. On this tiny database the interpreter
  // beats the external compiler by orders of magnitude, so the request is
  // served from the interpreted run without blocking on the JIT — and the
  // background build must still publish, so the next request is a cache hit.
  ServiceOptions sopts;
  sopts.cache_dir = "";
  sopts.morsel_rows = kMorselRows;
  sopts.midquery_switch = true;
  QueryService svc(*db_, sopts);
  plan::Query q = Q6Shape();
  std::string oracle = volcano::Execute(q, *db_);
  ServiceResult r = svc.Execute(q);
  ASSERT_EQ(r.status, ServiceResult::Status::kOk);
  EXPECT_EQ(tpch::DiffResults(oracle, r.text, tpch::OrderSensitive(q)), "");
  if (r.path == ServiceResult::Path::kInterpreted) {
    EXPECT_FALSE(r.switched_mid_query);
    EXPECT_EQ(svc.Stats().midquery_interp_wins, 1);
  } else {
    // The build landed inside the interpreted prefix after all (a loaded
    // machine can do that): then it must have been a proper switch.
    EXPECT_TRUE(r.switched_mid_query);
  }
  svc.DrainBackground();
  ServiceResult r2 = svc.Execute(q);
  EXPECT_EQ(r2.path, ServiceResult::Path::kCompiledCached);
  EXPECT_EQ(tpch::DiffResults(oracle, r2.text, tpch::OrderSensitive(q)), "");
}

TEST_F(MorselTest, FaultForcedSwitchWaitsForBuildAndAgrees) {
  // The FaultPlan point `midquery_switch` is the service-level switch
  // trigger chaos mode exercises: `fail` stops the interpreted prefix at
  // its very first boundary poll, so the request must wait for the build
  // and serve interp-prefix (empty) + compiled-suffix (everything).
  testing::FaultPlan plan;
  plan.Fail(testing::FaultPoint::kMidquerySwitch);
  testing::ArmFaults(plan);
  ServiceOptions sopts;
  sopts.cache_dir = "";
  sopts.morsel_rows = kMorselRows;
  sopts.midquery_switch = true;
  QueryService svc(*db_, sopts);
  plan::Query q = Q1Shape();
  std::string oracle = volcano::Execute(q, *db_);
  ServiceResult r = svc.Execute(q);
  testing::DisarmFaults();
  ASSERT_EQ(r.status, ServiceResult::Status::kOk);
  EXPECT_EQ(tpch::DiffResults(oracle, r.text, tpch::OrderSensitive(q)), "");
  EXPECT_TRUE(r.switched_mid_query);
  EXPECT_EQ(r.path, ServiceResult::Path::kCompiledCold);
  EXPECT_EQ(svc.Stats().midquery_switches, 1);
  EXPECT_NE(svc.MetricsPrometheus().find("lb2_midquery_switches_total 1"),
            std::string::npos);
}

TEST_F(MorselTest, FailedBuildStopsNoPrefixAndCountsTheRequestOnce) {
  // A failed build publishes no entry, so it must not stop the interpreted
  // prefix: a stopped prefix has no compiled consumer for its partial
  // state, and the whole query would be interpreted a second time.
  plan::Query q = Q1Shape();
  std::string oracle = volcano::Execute(q, *db_);
  bool ordered = tpch::OrderSensitive(q);
  ServiceOptions sopts;
  sopts.cache_dir = "";
  sopts.morsel_rows = 1024;
  sopts.midquery_switch = true;
  sopts.metrics = true;
  sopts.cc_retries = 0;
  sopts.log_compile_errors = false;
  testing::FaultPlan fail_cc;
  fail_cc.Fail(testing::FaultPoint::kCcExec);
  {
    // Forced mode builds inline, so the failure has landed before the
    // first boundary poll: one interpreted run, counted as a fallback
    // that carries the compiler's error.
    ScopedEnv at("LB2_SWITCH_AT", "0");
    testing::ArmFaults(fail_cc);
    QueryService svc(*db_, sopts);
    ServiceResult r = svc.Execute(q);
    testing::DisarmFaults();
    ASSERT_EQ(r.status, ServiceResult::Status::kOk);
    EXPECT_EQ(tpch::DiffResults(oracle, r.text, ordered), "");
    EXPECT_EQ(r.path, ServiceResult::Path::kInterpreted);
    EXPECT_FALSE(r.switched_mid_query);
    EXPECT_NE(r.compile_error, "");
    std::string names;
    for (const obs::Span& span : r.spans) {
      if (span.name == "exec" || span.name == "interp-prefix") {
        names += span.name + " ";
      }
    }
    EXPECT_EQ(names, "exec ");
    service::ServiceStats st = svc.Stats();
    EXPECT_EQ(st.interp_fallbacks, 1);
    EXPECT_EQ(st.midquery_interp_wins, 0);
    EXPECT_EQ(st.in_flight, 0);
  }
  {
    // Live mode: the build fails on its own thread, before or after the
    // interpreter finishes. Either way the request counts once: a fallback
    // if the failure came first, an interp win otherwise.
    testing::ArmFaults(fail_cc);
    QueryService svc(*db_, sopts);
    ServiceResult r = svc.Execute(q);
    svc.DrainBackground();
    testing::DisarmFaults();
    ASSERT_EQ(r.status, ServiceResult::Status::kOk);
    EXPECT_EQ(tpch::DiffResults(oracle, r.text, ordered), "");
    EXPECT_EQ(r.path, ServiceResult::Path::kInterpreted);
    service::ServiceStats st = svc.Stats();
    EXPECT_EQ(st.interp_fallbacks + st.midquery_interp_wins, 1);
    EXPECT_EQ(st.compile_failures, 1);
    EXPECT_EQ(st.in_flight, 0);
  }
}

TEST_F(MorselTest, DestroyRightAfterLiveInterpWinOutwaitsTheBuild) {
  // No DrainBackground: the destructor alone must outwait the background
  // build a live interp win leaves running. A shared cache_dir makes every
  // build after the first a fast disk load, so the destructor often lands
  // while a build is finishing — the window TSan watches.
  plan::Query q = Q6Shape();
  std::string oracle = volcano::Execute(q, *db_);
  std::string dir = MakeTempDir();
  for (int i = 0; i < 16; ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    ServiceOptions sopts;
    sopts.cache_dir = dir;
    sopts.morsel_rows = kMorselRows;
    sopts.midquery_switch = true;
    QueryService svc(*db_, sopts);
    ServiceResult r = svc.Execute(q);
    ASSERT_EQ(r.status, ServiceResult::Status::kOk);
    EXPECT_EQ(tpch::DiffResults(oracle, r.text, tpch::OrderSensitive(q)), "");
  }
  std::string cmd = "rm -rf " + dir;
  ASSERT_EQ(system(cmd.c_str()), 0);
}

TEST_F(MorselTest, NonEligiblePlansKeepThePlainColdPath) {
  // A sort-rooted plan with no aggregate has no merge-safe sink to fold an
  // interpreted prefix into: even with the switch forced on, the service
  // must refuse the morsel path and serve the classic cold compile.
  using namespace plan;  // NOLINT
  Query q{{}, OrderBy(Filter(Scan("customer"), Gt(Col("c_acctbal"), D(0.0))),
                      {{"c_custkey", true}})};
  ASSERT_FALSE(engine::HasSpine(q));
  ScopedEnv at("LB2_SWITCH_AT", "0");
  ServiceOptions sopts;
  sopts.cache_dir = "";
  sopts.morsel_rows = kMorselRows;
  sopts.midquery_switch = true;
  QueryService svc(*db_, sopts);
  std::string oracle = volcano::Execute(q, *db_);
  ServiceResult r = svc.Execute(q);
  ASSERT_EQ(r.status, ServiceResult::Status::kOk);
  EXPECT_FALSE(r.switched_mid_query);
  EXPECT_EQ(r.path, ServiceResult::Path::kCompiledCold);
  EXPECT_EQ(tpch::DiffResults(oracle, r.text, true), "");
  EXPECT_EQ(svc.Stats().midquery_switches, 0);
}

// -- Claims exactly-once under chaos schedules --------------------------------

TEST_F(MorselTest, EveryMorselClaimedExactlyOnceUnder64ChaosSeeds) {
  // Engine-level: an interpreted prefix stopped at a seeded pseudo-random
  // boundary hands the dispenser to a 4-thread compiled suffix. The claim
  // ledger must show every morsel index executed exactly once, whichever
  // side took it — and the merged answer must match the oracle. Morsel
  // size varies with the seed so boundary counts differ across trials.
  plan::Query q = Q1Shape();
  std::string oracle = volcano::Execute(q, *db_);
  bool ordered = tpch::OrderSensitive(q);
  const int64_t rows = db_->table("lineitem").num_rows();
  engine::EngineOptions copts;
  copts.num_threads = 4;
  auto cq = compile::CompileQuery(q, *db_, copts, "morselclaims");
  int stopped_runs = 0;
  for (uint64_t seed = 0; seed < 64; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const int64_t morsel_rows = 512ll << (seed % 4);  // 512..4096 rows
    const int64_t n = (rows + morsel_rows - 1) / morsel_rows;
    engine::MorselRun run(morsel_rows);
    run.EnableClaims(n);
    // Chaos stop: hash (seed, boundary) fires ~1 in 8 boundaries — some
    // trials stop at 0, some mid-way, some run to completion.
    run.stop_poll = [&run, seed] {
      return obs::SplitMix64(seed * 9176 +
                             static_cast<uint64_t>(run.claimed)) %
                 8 ==
             0;
    };
    engine::EngineOptions iopts;
    iopts.num_threads = 1;
    auto interp = engine::ExecuteInterp(q, *db_, iopts, nullptr, &run);
    std::string text;
    if (run.stopped) {
      ++stopped_runs;
      run.SealSeed();
      text = cq.Run(nullptr, &run.source).text;
    } else {
      EXPECT_EQ(run.claimed, n);
      text = interp.text;
    }
    ASSERT_EQ(tpch::DiffResults(oracle, text, ordered), "")
        << "stopped=" << run.stopped << " claimed=" << run.claimed;
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(run.claim_storage[static_cast<size_t>(i)].load(), 1)
          << "morsel " << i << " of " << n << " (stopped=" << run.stopped
          << " claimed=" << run.claimed << ")";
    }
  }
  // The schedule must actually exercise the handoff, not 64 interp wins.
  EXPECT_GE(stopped_runs, 16);
}

// -- Work stealing ------------------------------------------------------------

TEST_F(MorselTest, WorkStealingBeatsStaticSplitOnSkewedCosts) {
  // All the selected (expensive) rows live in the first eighth of the
  // table — exactly one thread's share under an 8-way static split, so
  // seven threads finish almost immediately and the wall clock is one
  // thread's. Off small morsels the hot ones spread across whoever is
  // free.
  rt::Database db;
  schema::Schema s{{"k", schema::FieldKind::kInt64},
                   {"a", schema::FieldKind::kDouble},
                   {"b", schema::FieldKind::kDouble}};
  rt::Table& t = db.AddTable("skew", s);
  const int64_t kRows = 1 << 19;
  const int64_t kHot = kRows / 8;
  for (int64_t i = 0; i < kRows; ++i) {
    t.column(0).AppendInt64(i < kHot ? 1 : 0);
    t.column(1).AppendDouble(static_cast<double>(i % 97) * 0.5);
    t.column(2).AppendDouble(static_cast<double>(i % 101) * 0.25);
    t.RowAppended();
  }
  t.Finalize();

  using namespace plan;  // NOLINT
  Query q{{}, ScalarAggPlan(
                  Filter(Scan("skew"), Eq(Col("k"), I(1))),
                  {Sum(Mul(Mul(Col("a"), Col("b")), Add(Col("a"), Col("b"))),
                       "s1"),
                   Sum(Mul(Add(Col("a"), Col("b")), Add(Col("b"), D(1.0))),
                       "s2"),
                   Sum(Mul(Col("a"), Col("a")), "s3"),
                   Sum(Mul(Col("b"), Col("b")), "s4"), CountStar("n")})};
  ASSERT_TRUE(engine::HasSpine(q));
  std::string oracle = volcano::Execute(q, db);
  engine::EngineOptions copts;
  copts.num_threads = 8;
  auto cq = compile::CompileQuery(q, db, copts, "morselsteal");

  const int64_t morsel_rows = 4096;
  const int64_t n = (kRows + morsel_rows - 1) / morsel_rows;
  // The static-split baseline on the very same artifact: one morsel per
  // thread, so whichever thread claims morsel 0 gets every hot row.
  const int64_t split_rows = (kRows + 7) / 8;
  {
    // Correctness + exactly-once under the 8-thread stealing run.
    engine::MorselRun run(morsel_rows);
    run.EnableClaims(n);
    auto rr = cq.Run(nullptr, &run.source);
    ASSERT_EQ(tpch::DiffResults(oracle, rr.text, false), "");
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(run.claim_storage[static_cast<size_t>(i)].load(), 1)
          << "morsel " << i;
    }
  }
  {
    engine::MorselRun split(split_rows);
    ASSERT_EQ(tpch::DiffResults(oracle, cq.Run(nullptr, &split.source).text,
                                false),
              "");
  }

  double static_ms = 1e300, steal_ms = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    engine::MorselRun split(split_rows);
    static_ms = std::min(static_ms, cq.Run(nullptr, &split.source).exec_ms);
    engine::MorselRun run(morsel_rows);
    steal_ms = std::min(steal_ms, cq.Run(nullptr, &run.source).exec_ms);
  }
  double ratio = static_ms / steal_ms;
  if (std::thread::hardware_concurrency() >= 4 && !LB2_TSAN_BUILD) {
    EXPECT_GE(ratio, 1.5)
        << "static " << static_ms << " ms vs steal " << steal_ms << " ms";
  } else {
    // Single-core containers and sanitizer builds cannot show parallel
    // speedups; the correctness half above already ran.
    std::printf("# work-stealing ratio %.2fx (static %.2f ms, steal %.2f ms)"
                " — not asserted (hw=%u tsan=%d)\n",
                ratio, static_ms, steal_ms,
                std::thread::hardware_concurrency(), LB2_TSAN_BUILD);
  }
}

// -- Warm-path dispenser ------------------------------------------------------

TEST_F(MorselTest, WarmCompiledRequestsRunOffTheDispenser) {
  // Every compiled execution — not just switches — pulls from a fresh
  // dispenser, so multi-thread warm requests get work stealing too.
  // Differentially check cold and warm requests against the oracle, with
  // small morsels (several per thread) and the default size.
  plan::Query q = Q1Shape();
  std::string oracle = volcano::Execute(q, *db_);
  bool ordered = tpch::OrderSensitive(q);
  for (int64_t morsel_rows : {kMorselRows, engine::kDefaultMorselRows}) {
    ServiceOptions sopts;
    sopts.cache_dir = "";
    sopts.morsel_rows = morsel_rows;
    QueryService svc(*db_, sopts);
    engine::EngineOptions eopts;
    eopts.num_threads = 4;
    ServiceResult cold = svc.Execute(q, eopts);
    ASSERT_EQ(cold.status, ServiceResult::Status::kOk);
    EXPECT_EQ(tpch::DiffResults(oracle, cold.text, ordered), "")
        << "cold, morsel_rows=" << morsel_rows;
    ServiceResult warm = svc.Execute(q, eopts);
    EXPECT_EQ(warm.path, ServiceResult::Path::kCompiledCached);
    EXPECT_EQ(tpch::DiffResults(oracle, warm.text, ordered), "")
        << "warm, morsel_rows=" << morsel_rows;
  }
}

// -- Morsel size on small spines ----------------------------------------------

TEST_F(MorselTest, SmallSpinesSpreadOverEveryLane) {
  // A parallel run shrinks its morsels to LaneMorselCap, so a spine far
  // below kDefaultMorselRows × threads still hands every lane morsels; one
  // thread, or a plan without a spine, keeps the configured size.
  using namespace plan;  // NOLINT
  const int64_t rows = db_->table("lineitem").num_rows();
  const int64_t lanes = 4;
  const int64_t cap = (rows + engine::kMorselsPerLane * lanes - 1) /
                      (engine::kMorselsPerLane * lanes);
  const int64_t none = std::numeric_limits<int64_t>::max();
  // Per-group MIN/MAX/SUM/COUNT: lanes that saw the same key must merge.
  plan::Query q = {{}, OrderBy(GroupBy(Scan("lineitem"), {"f"},
                                       {Col("l_returnflag")},
                                       {Min(Col("l_extendedprice"), "lo"),
                                        Max(Col("l_extendedprice"), "hi"),
                                        Sum(Col("l_quantity"), "sq"),
                                        CountStar("n")}),
                               {{"f", true}})};
  plan::Query no_spine = {{}, OrderBy(Scan("region"), {{"r_name", true}})};
  EXPECT_EQ(engine::LaneMorselCap(q, *db_, static_cast<int>(lanes)), cap);
  EXPECT_EQ(engine::LaneMorselCap(q, *db_, 1), none);
  EXPECT_EQ(engine::LaneMorselCap(no_spine, *db_, 4), none);
  engine::EngineOptions copts;
  copts.num_threads = static_cast<int>(lanes);
  auto cq = compile::CompileQuery(q, *db_, copts, "morsellanes");
  EXPECT_EQ(cq.MorselRows(engine::kDefaultMorselRows),
            std::min(engine::kDefaultMorselRows, cap));
  auto cq1 = compile::CompileQuery(q, *db_, {}, "morsellanes1");
  EXPECT_EQ(cq1.MorselRows(engine::kDefaultMorselRows),
            engine::kDefaultMorselRows);

  std::string oracle = volcano::Execute(q, *db_);
  EXPECT_EQ(tpch::DiffResults(oracle, cq.Run().text, true), "");
  // The interpreter runs a region's lanes one after another, each taking
  // its fair share of the unclaimed morsels. A prefix stopped at boundary
  // k has filled the lanes before k's and part of k's own; its seed is
  // exported after the lane merge, and a 4-lane compiled suffix folds it
  // in and finishes — every split must still answer like the oracle, and
  // claim every morsel exactly once.
  const int64_t n = (rows + cap - 1) / cap;
  for (int64_t k : {int64_t{0}, n / 4 + 1, n / 2 + 1, n - 1, n + 1}) {
    SCOPED_TRACE("stop at boundary " + std::to_string(k));
    engine::MorselRun run(cap);
    run.EnableClaims(n);
    run.stop_poll = [&run, k] { return run.claimed >= k; };
    engine::EngineOptions iopts;
    iopts.num_threads = static_cast<int>(lanes);
    auto interp = engine::ExecuteInterp(q, *db_, iopts, nullptr, &run);
    std::string text = interp.text;
    if (run.stopped) {
      run.SealSeed();
      text = cq.Run(nullptr, &run.source).text;
    }
    EXPECT_EQ(run.stopped, k <= n);
    EXPECT_EQ(tpch::DiffResults(oracle, text, true), "");
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(run.claim_storage[static_cast<size_t>(i)].load(), 1)
          << "morsel " << i << " of " << n;
    }
  }
}

// -- Zero-size dispensers -----------------------------------------------------

TEST_F(MorselTest, ZeroSizeDispenserIsRejectedNotSpun) {
  // A morsel of zero rows never advances the claim loop, so a caller that
  // hands one in must be stopped at the door rather than hang the query.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  plan::Query q = Q6Shape();
  auto cq = compile::CompileQuery(q, *db_, {}, "morselzero");
  engine::MorselRun zero(0);
  EXPECT_DEATH(cq.Run(nullptr, &zero.source), "morsel_rows > 0");
  EXPECT_DEATH(engine::ExecuteInterp(q, *db_, {}, nullptr, &zero),
               "morsel_rows > 0");
  ServiceOptions sopts;
  sopts.cache_dir = "";
  sopts.morsel_rows = 0;
  EXPECT_DEATH({ QueryService svc(*db_, sopts); }, "morsel_rows must be > 0");
  // The defaults every caller that passes no dispenser gets.
  EXPECT_EQ(engine::MorselRun().source.morsel_rows,
            engine::kDefaultMorselRows);
  std::string oracle = volcano::Execute(q, *db_);
  EXPECT_EQ(tpch::DiffResults(oracle, cq.Run().text, false), "");
  EXPECT_EQ(tpch::DiffResults(oracle, engine::ExecuteInterp(q, *db_).text,
                              false),
            "");
}

TEST(MorselKnobTest, MorselRowsEnvKeepsDefaultForNonPositiveValues) {
  {
    ScopedEnv env("LB2_MORSEL_ROWS", "512");
    EXPECT_EQ(service::DefaultMorselRows(), 512);
  }
  for (const char* bad : {"0", "-4096", "rows"}) {
    ScopedEnv env("LB2_MORSEL_ROWS", bad);
    EXPECT_EQ(service::DefaultMorselRows(), engine::kDefaultMorselRows)
        << "LB2_MORSEL_ROWS=" << bad;
  }
  if (getenv("LB2_MORSEL_ROWS") == nullptr) {
    EXPECT_EQ(service::DefaultMorselRows(), engine::kDefaultMorselRows);
  }
}

}  // namespace
}  // namespace lb2
