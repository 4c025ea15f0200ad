// All 22 TPC-H plans through a default QueryService, checked against the
// Volcano oracle. Per plan, at num_threads 1 and 4, three answers:
//
//  * the cold leader's compiled answer;
//  * what RunInterp serves — ExecuteInterp on the canonical (parameterized)
//    plan with its bound literals;
//  * a warm cache hit.
//
// Plans with a spine (engine::HasSpine) also take the mid-query switch:
// LB2_SWITCH_AT forces the interpreted→compiled handoff at morsel boundary
// 0 and at a middle boundary, with small morsels, and the switched answer
// must match too. Each test owns a temp cache_dir, so only the first build
// of a plan at each thread count pays the external compiler; the switch
// services load that artifact from disk.
//
// TPC-H Q17 is the reason this exists: it reuses one part ⋈ lineitem
// PlanRef on both sides of a join, so any analysis that keys the spine by
// plan-node pointer lets the build side drain the shared dispenser.
//
// Carries the ctest label `tpch`; the CI `morsel` lane runs it under
// ThreadSanitizer.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <string>

#include "engine/exec.h"
#include "engine/morsel.h"
#include "engine/parallel.h"
#include "scoped_env.h"
#include "service/fingerprint.h"
#include "service/service.h"
#include "tpch/answers.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "volcano/volcano.h"

namespace lb2 {
namespace {

using service::QueryService;
using service::ServiceOptions;
using service::ServiceResult;

constexpr double kScaleFactor = 0.01;
constexpr int64_t kSwitchMorselRows = 512;

class ServiceTpchTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    db_ = new rt::Database();
    tpch::Generate(kScaleFactor, 42, db_);
  }
  static void TearDownTestSuite() { delete db_; }

  void SetUp() override {
    char tmpl[] = "/tmp/lb2_service_tpch_XXXXXX";
    const char* dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    dir_ = dir;
  }
  void TearDown() override {
    std::string cmd = "rm -rf " + dir_;
    ASSERT_EQ(system(cmd.c_str()), 0);
  }

  /// Default options with this test's private disk tier (unbounded, so the
  /// switch services always find the first build's artifact).
  ServiceOptions Options() const {
    ServiceOptions sopts;
    sopts.cache_dir = dir_;
    sopts.cache_disk_bytes = 0;
    return sopts;
  }

  static rt::Database* db_;
  std::string dir_;
};

rt::Database* ServiceTpchTest::db_ = nullptr;

TEST_P(ServiceTpchTest, ColdInterpretedWarmAndSwitchedMatchVolcano) {
  const int qn = GetParam();
  tpch::QueryOptions qo;
  qo.scale_factor = kScaleFactor;
  const plan::Query q = tpch::BuildQuery(qn, qo);
  const std::string oracle = volcano::Execute(q, *db_);
  const bool ordered = tpch::OrderSensitive(q);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("Q" + std::to_string(qn) + " threads " +
                 std::to_string(threads));
    const ServiceOptions sopts = Options();
    engine::EngineOptions eopts = sopts.engine;
    eopts.num_threads = threads;

    QueryService svc(*db_, sopts);
    ServiceResult cold = svc.Execute(q, eopts);
    ASSERT_EQ(cold.status, ServiceResult::Status::kOk);
    EXPECT_EQ(cold.path, ServiceResult::Path::kCompiledCold);
    EXPECT_EQ(tpch::DiffResults(oracle, cold.text, ordered), "") << "cold";

    // RunInterp's answer: the canonical plan, literals bound from the
    // extracted vector, one thread.
    service::ParameterizedQuery pq =
        service::ParameterizeQuery(q, eopts.use_dict);
    engine::EngineOptions iopts = eopts;
    iopts.num_threads = 1;
    EXPECT_EQ(tpch::DiffResults(
                  oracle,
                  engine::ExecuteInterp(pq.query, *db_, iopts, &pq.params)
                      .text,
                  ordered),
              "")
        << "interpreted";

    ServiceResult warm = svc.Execute(q, eopts);
    EXPECT_EQ(warm.path, ServiceResult::Path::kCompiledCached);
    EXPECT_EQ(tpch::DiffResults(oracle, warm.text, ordered), "") << "warm";

    if (!engine::HasSpine(q)) continue;
    // How many morsels the interpreted prefix would claim in all, at the
    // size the service picks for this thread count: the middle boundary
    // sits halfway through them.
    engine::MorselRun count(std::min(
        kSwitchMorselRows, engine::LaneMorselCap(q, *db_, threads)));
    (void)engine::ExecuteInterp(pq.query, *db_, iopts, &pq.params, &count);
    const int64_t mid = count.claimed / 2;
    for (int64_t k : {int64_t{0}, mid}) {
      SCOPED_TRACE("switch at boundary " + std::to_string(k) + " of " +
                   std::to_string(count.claimed));
      ScopedEnv at("LB2_SWITCH_AT", std::to_string(k));
      ServiceOptions swopts = sopts;
      swopts.morsel_rows = kSwitchMorselRows;
      swopts.midquery_switch = true;
      QueryService sw(*db_, swopts);
      ServiceResult r = sw.Execute(q, eopts);
      ASSERT_EQ(r.status, ServiceResult::Status::kOk);
      EXPECT_TRUE(r.switched_mid_query);
      EXPECT_EQ(r.path, ServiceResult::Path::kCompiledDisk);
      EXPECT_EQ(tpch::DiffResults(oracle, r.text, ordered), "")
          << "switched";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, ServiceTpchTest,
                         ::testing::Range(1, 23),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Q" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace lb2
