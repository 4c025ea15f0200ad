// Codegen flavors (ROADMAP item 2): the vectorized and blended flavors
// must be drop-in replacements for the data-centric one — same results on
// every engine, byte-stable staged sources, deterministic blend-site
// numbering — and the flavor explorer must pick a winner that it can
// reproduce from its persisted sidecar.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "compile/lb2_compiler.h"
#include "engine/exec.h"
#include "engine/interp_backend.h"
#include "service/fingerprint.h"
#include "service/service.h"
#include "testing/faults.h"
#include "tpch/answers.h"
#include "tpch/dbgen.h"
#include "volcano/volcano.h"

namespace lb2 {
namespace {

using namespace lb2::plan;  // NOLINT

class FlavorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new rt::Database();
    tpch::Generate(0.002, 4321, db_);
    tpch::LoadOptions lo;
    lo.string_dicts = true;
    tpch::BuildAuxStructures(lo, db_);
  }
  static void TearDownTestSuite() { delete db_; }
  static rt::Database* db_;
};

rt::Database* FlavorTest::db_ = nullptr;

/// Q6-style scan/filter/aggregate: date + two double kernel conjuncts.
Query Q6Style() {
  PlanRef p = Filter(Scan("lineitem"),
                     And({Ge(Col("l_shipdate"), DtRaw(19940101)),
                          Lt(Col("l_shipdate"), DtRaw(19950101)),
                          Ge(Col("l_discount"), D(0.05)),
                          Lt(Col("l_quantity"), D(24.0))}));
  return {{}, ScalarAggPlan(
                  p, {CountStar("n"), Sum(Col("l_extendedprice"), "rev")})};
}

/// Kernel conjuncts + a string residual (dictionary-codable predicate).
Query StringResidualQuery() {
  PlanRef p = Filter(Scan("lineitem"),
                     And({Lt(Col("l_quantity"), D(30.0)),
                          Eq(Col("l_shipmode"), S("AIR")),
                          Ge(Col("l_orderkey"), I(100))}));
  return {{}, ScalarAggPlan(
                  p, {CountStar("n"), Sum(Col("l_discount"), "d")})};
}

/// Two vectorizable prefixes feeding a join + group-by tail: the blend
/// boundary hands selection-vector batches to unchanged data-centric
/// operators.
Query JoinBlendQuery() {
  PlanRef orders = Filter(Scan("orders"),
                          Lt(Col("o_orderdate"), DtRaw(19960101)));
  PlanRef li = Filter(Scan("lineitem"), Ge(Col("l_quantity"), D(25.0)));
  PlanRef j = Join(orders, li, {"o_orderkey"}, {"l_orderkey"});
  PlanRef g = GroupBy(j, {"flag"}, {Col("l_returnflag")},
                      {CountStar("cnt"), Sum(Col("l_extendedprice"), "s")});
  return {{}, OrderBy(g, {{"flag", true}})};
}

engine::EngineOptions Opts(engine::Flavor f, uint64_t blend = 0,
                           int threads = 1, bool dict = false) {
  engine::EngineOptions o;
  o.flavor = f;
  o.blend = blend;
  o.num_threads = threads;
  o.use_dict = dict;
  return o;
}

// ---------------------------------------------------------------------------
// Correctness: every flavor, every engine, same rows
// ---------------------------------------------------------------------------

TEST_F(FlavorTest, AllFlavorsAgreeOnScanFilterAggregate) {
  for (Query q : {Q6Style(), StringResidualQuery()}) {
    std::string oracle = volcano::Execute(q, *db_);
    for (auto f : {engine::Flavor::kDataCentric, engine::Flavor::kVectorized,
                   engine::Flavor::kBlended}) {
      auto interp = engine::ExecuteInterp(q, *db_, Opts(f, /*blend=*/1));
      ASSERT_EQ(tpch::DiffResults(oracle, interp.text, false), "")
          << "interp flavor " << static_cast<int>(f);
      for (int threads : {1, 4}) {
        auto cq = compile::CompileQuery(q, *db_,
                                        Opts(f, /*blend=*/1, threads),
                                        "flav");
        ASSERT_EQ(tpch::DiffResults(oracle, cq.Run().text, false), "")
            << "compiled flavor " << static_cast<int>(f) << " threads "
            << threads;
      }
    }
  }
}

TEST_F(FlavorTest, BlendBoundaryFeedsJoinPipeline) {
  Query q = JoinBlendQuery();
  std::string oracle = volcano::Execute(q, *db_);
  ASSERT_EQ(engine::CountVecSites(q, *db_), 2);
  // All four blend masks over the two sites, plus the pure flavors.
  for (uint64_t mask = 0; mask < 4; ++mask) {
    for (int threads : {1, 4}) {
      auto cq = compile::CompileQuery(
          q, *db_, Opts(engine::Flavor::kBlended, mask, threads), "blend");
      ASSERT_EQ(tpch::DiffResults(oracle, cq.Run().text, true), "")
          << "mask " << mask << " threads " << threads;
    }
    auto interp = engine::ExecuteInterp(
        q, *db_, Opts(engine::Flavor::kBlended, mask));
    ASSERT_EQ(tpch::DiffResults(oracle, interp.text, true), "")
        << "interp mask " << mask;
  }
  auto vec = compile::CompileQuery(q, *db_,
                                   Opts(engine::Flavor::kVectorized), "vj");
  EXPECT_EQ(tpch::DiffResults(oracle, vec.Run().text, true), "");
}

TEST_F(FlavorTest, DictAndNonDictStringResidualsAgree) {
  Query q = StringResidualQuery();
  std::string oracle = volcano::Execute(q, *db_);
  for (bool dict : {false, true}) {
    for (auto f : {engine::Flavor::kDataCentric,
                   engine::Flavor::kVectorized}) {
      auto interp = engine::ExecuteInterp(q, *db_, Opts(f, 0, 1, dict));
      ASSERT_EQ(tpch::DiffResults(oracle, interp.text, false), "")
          << "interp dict " << dict << " flavor " << static_cast<int>(f);
      auto cq = compile::CompileQuery(q, *db_, Opts(f, 0, 1, dict), "fsd");
      ASSERT_EQ(tpch::DiffResults(oracle, cq.Run().text, false), "")
          << "compiled dict " << dict << " flavor " << static_cast<int>(f);
    }
  }
}

TEST_F(FlavorTest, ParameterizedKernelRhsBindsAtRun) {
  service::ParameterizedQuery canon =
      service::ParameterizeQuery(Q6Style(), /*dict_sensitive=*/false);
  auto cq = compile::CompileQuery(canon.query, *db_,
                                  Opts(engine::Flavor::kVectorized), "fpar");
  // Rebind with different literals; oracle runs the literal-inlined query.
  PlanRef p2 = Filter(Scan("lineitem"),
                      And({Ge(Col("l_shipdate"), DtRaw(19930601)),
                           Lt(Col("l_shipdate"), DtRaw(19970101)),
                           Ge(Col("l_discount"), D(0.02)),
                           Lt(Col("l_quantity"), D(40.0))}));
  Query q2{{}, ScalarAggPlan(p2, {CountStar("n"),
                                  Sum(Col("l_extendedprice"), "rev")})};
  service::ParameterizedQuery pq =
      service::ParameterizeQuery(q2, /*dict_sensitive=*/false);
  std::string oracle = volcano::Execute(q2, *db_);
  EXPECT_EQ(tpch::DiffResults(oracle, cq.Run(&pq.params).text, false), "");
}

// ---------------------------------------------------------------------------
// Determinism: stable staged sources, stable site numbering
// ---------------------------------------------------------------------------

TEST_F(FlavorTest, StagedSourcesAreByteStablePerFlavor) {
  Query q = Q6Style();
  for (auto f : {engine::Flavor::kDataCentric, engine::Flavor::kVectorized,
                 engine::Flavor::kBlended}) {
    engine::EngineOptions o = Opts(f, /*blend=*/1);
    std::string s1 = compile::StageQuery(q, *db_, o).source;
    std::string s2 = compile::StageQuery(q, *db_, o).source;
    EXPECT_EQ(s1, s2) << "flavor " << static_cast<int>(f);
  }
}

TEST_F(FlavorTest, BlendMaskExtremesMatchPureFlavors) {
  Query q = JoinBlendQuery();
  std::string all_on =
      compile::StageQuery(q, *db_, Opts(engine::Flavor::kBlended, 0x3))
          .source;
  std::string vec =
      compile::StageQuery(q, *db_, Opts(engine::Flavor::kVectorized)).source;
  EXPECT_EQ(all_on, vec);
  std::string all_off =
      compile::StageQuery(q, *db_, Opts(engine::Flavor::kBlended, 0)).source;
  std::string dc =
      compile::StageQuery(q, *db_, Opts(engine::Flavor::kDataCentric))
          .source;
  EXPECT_EQ(all_off, dc);
  EXPECT_NE(vec, dc);
}

TEST_F(FlavorTest, CountVecSitesIsFlavorIndependentAndSkipsIneligible) {
  EXPECT_EQ(engine::CountVecSites(Q6Style(), *db_), 1);
  EXPECT_EQ(engine::CountVecSites(JoinBlendQuery(), *db_), 2);
  // String-only predicate: no kernelizable conjunct, no site.
  Query sq{{}, ScalarAggPlan(
                   Filter(Scan("lineitem"), Eq(Col("l_shipmode"), S("AIR"))),
                   {CountStar("n")})};
  EXPECT_EQ(engine::CountVecSites(sq, *db_), 0);
}

TEST_F(FlavorTest, FlavorChangesTheFingerprint) {
  Query q = Q6Style();
  auto fp_dc = service::FingerprintQuery(
      q, Opts(engine::Flavor::kDataCentric), *db_);
  auto fp_vec = service::FingerprintQuery(
      q, Opts(engine::Flavor::kVectorized), *db_);
  auto fp_b1 = service::FingerprintQuery(
      q, Opts(engine::Flavor::kBlended, 1), *db_);
  auto fp_b0 = service::FingerprintQuery(
      q, Opts(engine::Flavor::kBlended, 0), *db_);
  EXPECT_NE(fp_dc.hash, fp_vec.hash);
  EXPECT_NE(fp_dc.hash, fp_b1.hash);
  EXPECT_NE(fp_b0.hash, fp_b1.hash);
  // A blend mask of zero is behaviorally data-centric but remains a
  // distinct explicit choice; only the flavor+blend pair is hashed.
  EXPECT_NE(fp_dc.hash, fp_b0.hash);
}

// ---------------------------------------------------------------------------
// The flavor explorer: sweep, auto-pick, sidecar persistence, knob parsing
// ---------------------------------------------------------------------------

/// A scratch artifact dir per test, removed afterwards.
class ScratchDir {
 public:
  explicit ScratchDir(const char* tag) {
    char tmpl[256];
    std::snprintf(tmpl, sizeof(tmpl), "/tmp/lb2_%s_XXXXXX", tag);
    path_ = mkdtemp(tmpl);
  }
  ~ScratchDir() {
    if (!path_.empty()) {
      std::string cmd = "rm -rf " + path_;
      (void)std::system(cmd.c_str());
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST_F(FlavorTest, ParseFlavorSpecRoundTrips) {
  engine::Flavor f = engine::Flavor::kDataCentric;
  uint64_t b = 99;
  EXPECT_TRUE(service::ParseFlavorSpec("data", &f, &b));
  EXPECT_EQ(f, engine::Flavor::kDataCentric);
  EXPECT_EQ(b, 0u);
  EXPECT_TRUE(service::ParseFlavorSpec("vec", &f, &b));
  EXPECT_EQ(f, engine::Flavor::kVectorized);
  EXPECT_TRUE(service::ParseFlavorSpec("blend:0x5", &f, &b));
  EXPECT_EQ(f, engine::Flavor::kBlended);
  EXPECT_EQ(b, 0x5u);
  EXPECT_TRUE(service::ParseFlavorSpec("blend:7", &f, &b));
  EXPECT_EQ(b, 7u);
  EXPECT_FALSE(service::ParseFlavorSpec("bogus", &f, &b));
  EXPECT_FALSE(service::ParseFlavorSpec("blend:", &f, &b));
  EXPECT_FALSE(service::ParseFlavorSpec("blend:0xzz", &f, &b));
  EXPECT_EQ(service::FlavorSpecString(engine::Flavor::kBlended, 5),
            "blend:0x5");
  EXPECT_EQ(service::FlavorSpecString(engine::Flavor::kVectorized, 0), "vec");
}

TEST_F(FlavorTest, ExplorerSweepsRecordsAndAutoApplies) {
  ScratchDir dir("flavexp");
  service::ServiceOptions so;
  so.cache_dir = dir.path();
  so.explore = true;
  service::QueryService svc(*db_, so);
  Query q = Q6Style();
  std::string oracle = volcano::Execute(q, *db_);

  // First request of the shape pays the sweep and is served correctly.
  auto r1 = svc.Execute(q);
  ASSERT_EQ(tpch::DiffResults(oracle, r1.text, false), "");
  auto st = svc.Stats();
  EXPECT_EQ(st.explore_runs, 1);
  EXPECT_GE(st.explore_candidates, 2);  // data-centric + vectorized at least

  engine::Flavor wf = engine::Flavor::kDataCentric;
  uint64_t wb = 99;
  ASSERT_TRUE(svc.WinnerFor(q, &wf, &wb));

  // Second request: no new sweep, served under the recorded winner.
  auto r2 = svc.Execute(q);
  ASSERT_EQ(tpch::DiffResults(oracle, r2.text, false), "");
  EXPECT_EQ(svc.Stats().explore_runs, 1);
  EXPECT_EQ(r2.flavor, service::FlavorSpecString(wf, wb));
}

TEST_F(FlavorTest, ConcurrentFirstRequestsShareCandidateFlights) {
  // Two first requests of one shape race: one sweeps the flavors, the
  // other is served under the caller's flavor, whose key is also the
  // sweep's data-centric candidate. Candidates build inside the same
  // flights as requests, so that key compiles once, not twice. The cc
  // delay holds each build open long enough for the two to overlap.
  service::ServiceOptions so;
  so.cache_dir = "";
  so.explore = true;
  service::QueryService svc(*db_, so);
  Query q = Q6Style();
  std::string oracle = volcano::Execute(q, *db_);
  testing::FaultPlan plan;
  plan.Delay(testing::FaultPoint::kCcExec, 400);
  testing::ArmFaults(plan);
  std::string text[2];
  std::thread first([&] { text[0] = svc.Execute(q).text; });
  std::thread second([&] { text[1] = svc.Execute(q).text; });
  first.join();
  second.join();
  testing::DisarmFaults();
  for (const std::string& t : text) {
    EXPECT_EQ(tpch::DiffResults(oracle, t, false), "");
  }
  auto st = svc.Stats();
  EXPECT_EQ(st.explore_runs, 1);
  EXPECT_EQ(st.compiles, st.explore_candidates) << st.ToString();
}

TEST_F(FlavorTest, ExplorerWinnerSurvivesRestartViaSidecar) {
  ScratchDir dir("flavside");
  Query q = Q6Style();
  engine::Flavor wf = engine::Flavor::kDataCentric;
  uint64_t wb = 0;
  {
    service::ServiceOptions so;
    so.cache_dir = dir.path();
    service::QueryService svc(*db_, so);
    auto eo = svc.ExploreFlavors(q);
    ASSERT_TRUE(eo.ran);
    EXPECT_EQ(eo.sites, 1);
    EXPECT_FALSE(eo.report.empty());
    wf = eo.flavor;
    wb = eo.blend;
  }
  // A fresh process (new service, same cache_dir) reloads the winner from
  // the sidecar and applies it without a sweep.
  service::ServiceOptions so;
  so.cache_dir = dir.path();
  service::QueryService svc(*db_, so);
  engine::Flavor gf = engine::Flavor::kDataCentric;
  uint64_t gb = 99;
  ASSERT_TRUE(svc.WinnerFor(q, &gf, &gb));
  EXPECT_EQ(gf, wf);
  EXPECT_EQ(gb, wb);
  auto r = svc.Execute(q);
  EXPECT_EQ(r.flavor, service::FlavorSpecString(wf, wb));
  EXPECT_EQ(svc.Stats().explore_runs, 0);
}

TEST_F(FlavorTest, ExplicitExploreWorksWithoutDiskTier) {
  service::QueryService svc(*db_);  // no cache_dir, explore off
  Query q = JoinBlendQuery();
  auto eo = svc.ExploreFlavors(q);
  ASSERT_TRUE(eo.ran);
  EXPECT_EQ(eo.sites, 2);
  // data-centric, vectorized, and the two interior masks (01, 10).
  EXPECT_EQ(eo.candidates, 4);
  auto r = svc.Execute(q);
  std::string oracle = volcano::Execute(q, *db_);
  ASSERT_EQ(tpch::DiffResults(oracle, r.text, true), "");
  EXPECT_EQ(r.flavor, service::FlavorSpecString(eo.flavor, eo.blend));
}

TEST_F(FlavorTest, ProfSamplingFeedsPerOperatorHistograms) {
  service::ServiceOptions so;
  so.prof_sample_every = 1;  // every request profiled
  service::QueryService svc(*db_, so);
  Query q = JoinBlendQuery();
  std::string oracle = volcano::Execute(q, *db_);
  auto r = svc.Execute(q);
  ASSERT_EQ(tpch::DiffResults(oracle, r.text, true), "");
  auto st = svc.Stats();
  EXPECT_GE(st.prof_samples, 1);
  std::string prom = svc.MetricsPrometheus();
  EXPECT_NE(prom.find("lb2_op_ns"), std::string::npos);
  EXPECT_NE(prom.find("op=\"HashJoin\""), std::string::npos);
  EXPECT_NE(prom.find("op=\"Scan\""), std::string::npos);
  EXPECT_NE(prom.find("lb2_prof_samples_total"), std::string::npos);
}

}  // namespace
}  // namespace lb2
