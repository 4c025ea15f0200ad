// Codegen flavors (ROADMAP item 2): the vectorized and blended flavors
// must be drop-in replacements for the data-centric one — same results on
// every engine, byte-stable staged sources, deterministic blend-site
// numbering — and the flavor explorer must pick a winner that it can
// reproduce from its persisted sidecar.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <thread>
#include <vector>

#include "compile/lb2_compiler.h"
#include "engine/exec.h"
#include "engine/interp_backend.h"
#include "service/fingerprint.h"
#include "service/service.h"
#include "stage/jit.h"
#include "stage/prelude.h"
#include "testing/faults.h"
#include "tpch/answers.h"
#include "tpch/dbgen.h"
#include "util/str.h"
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
// Prelude kernels: every filter kernel against engine::VecCmp
// ---------------------------------------------------------------------------

constexpr ExprOp kCmpOps[] = {ExprOp::kLt, ExprOp::kLe, ExprOp::kGt,
                              ExprOp::kGe, ExprOp::kEq, ExprOp::kNe};

/// The prelude plus exported tables of its (static) filter kernels, one
/// table per family and column type in kCmpOps order, so the host can call
/// each kernel directly.
std::string KernelDriverSource() {
  std::string src = stage::kCPrelude;
  for (const char* fam : {"vflag", "vrefine"}) {
    for (const char* ty : {"i64", "i32", "f64"}) {
      src += StrPrintf("void* const lb2_t_%s_%s[] = {", fam, ty);
      for (ExprOp op : kCmpOps) {
        src += StrPrintf("(void*)lb2_%s_%s_%s, ", fam, ty,
                         engine::VecCmpName(op));
      }
      src += "};\n";
    }
  }
  return src + "void* const lb2_t_vcompact = (void*)lb2_vcompact;\n";
}

/// Runs every op of one column type's flag and refine kernels, then
/// lb2_vcompact on the flags, over columns that cycle through `vals`, for
/// every rhs in `rhss`. Column type T compares as R, as in the prelude.
template <typename T, typename R>
void CheckKernels(const stage::JitModule& m, const std::string& ty,
                  const std::vector<T>& vals, const std::vector<R>& rhss) {
  using FlagFn = void (*)(const T*, int64_t, R, uint8_t*);
  using RefineFn = int64_t (*)(const T*, int32_t*, int64_t, R);
  using CompactFn = int64_t (*)(const uint8_t*, int64_t, int32_t*);
  void* const* flag_fns = m.sym<void* const>("lb2_t_vflag_" + ty);
  void* const* refine_fns = m.sym<void* const>("lb2_t_vrefine_" + ty);
  auto compact =
      reinterpret_cast<CompactFn>(*m.sym<void* const>("lb2_t_vcompact"));
  const size_t kTail = 8;  // sentinel bytes past n: no kernel writes there
  for (int64_t n : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1027}) {
    // A stride coprime to vals.size(), so every value meets every lane.
    std::vector<T> col(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) col[i] = vals[(i * 5 + n) % vals.size()];
    for (R rhs : rhss) {
      for (size_t k = 0; k < std::size(kCmpOps); ++k) {
        const ExprOp op = kCmpOps[k];
        const std::string what = StrPrintf(
            "%s_%s n=%lld rhs=%.17g", ty.c_str(), engine::VecCmpName(op),
            static_cast<long long>(n), static_cast<double>(rhs));
        std::vector<uint8_t> pass(static_cast<size_t>(n));
        std::vector<int32_t> all, strided;  // selections to refine
        std::vector<int32_t> want, want_strided;
        for (int32_t i = 0; i < n; ++i) {
          pass[i] = engine::VecCmp<R>(op, static_cast<R>(col[i]), rhs);
          all.push_back(i);
          if (pass[i]) want.push_back(i);
          if (i % 3 == 1) continue;
          strided.push_back(i);
          if (pass[i]) want_strided.push_back(i);
        }
        std::vector<uint8_t> flags(n + kTail, 0xAA);
        reinterpret_cast<FlagFn>(flag_fns[k])(col.data(), n, rhs,
                                              flags.data());
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(flags[i], pass[i]) << what << " row " << i;
        }
        for (size_t i = n; i < flags.size(); ++i) {
          ASSERT_EQ(flags[i], 0xAA) << what << " wrote past n at " << i;
        }
        std::vector<int32_t> sel(n + kTail, -1);
        sel.resize(compact(flags.data(), n, sel.data()));
        ASSERT_EQ(sel, want) << "vcompact after " << what;
        auto refine = reinterpret_cast<RefineFn>(refine_fns[k]);
        auto refined = [&](std::vector<int32_t> in) {
          in.resize(refine(col.data(), in.data(),
                           static_cast<int64_t>(in.size()), rhs));
          return in;
        };
        ASSERT_EQ(refined(all), want) << "vrefine(all rows) " << what;
        ASSERT_EQ(refined(strided), want_strided)
            << "vrefine(strided rows) " << what;
      }
    }
  }
}

TEST(PreludeKernelTest, EveryFilterKernelMatchesVecCmp) {
  // NaN (both signs), signed zeros, infinities, denormals and the integer
  // extremes, over every tail length of a 4-lane loop and a full batch.
  // With -mno-avx2 the loops compile for baseline x86-64, the only path
  // on hosts without AVX2.
  using I64 = std::numeric_limits<int64_t>;
  using I32 = std::numeric_limits<int32_t>;
  using F64 = std::numeric_limits<double>;
  const std::vector<int64_t> i64s = {I64::min(), I64::min() + 1, -1, 0, 1,
                                     42, I64::max() - 1, I64::max()};
  const std::vector<int32_t> i32s = {I32::min(), I32::min() + 1, -1, 0, 1,
                                     19940101, I32::max() - 1, I32::max()};
  const std::vector<int64_t> i32_rhss = {
      I64::min(), int64_t{I32::min()} - 1, I32::min(), -1, 0, 19940101,
      I32::max(), int64_t{I32::max()} + 1, I64::max()};
  const std::vector<double> f64s = {
      F64::quiet_NaN(), -F64::quiet_NaN(), -F64::infinity(), F64::lowest(),
      -1.5, -0.0, 0.0, F64::denorm_min(), 1.5, F64::max(), F64::infinity()};
  std::vector<std::string> flag_sets = {""};
#if defined(__x86_64__)
  flag_sets.push_back("-mno-avx2");
#endif
  const std::string src = KernelDriverSource();
  for (const std::string& flags : flag_sets) {
    SCOPED_TRACE("codegen flags:" + stage::Jit::CodegenFlags() + " " + flags);
    auto m = stage::Jit::CompileSource(src, "kernels", flags);
    CheckKernels<int64_t, int64_t>(*m, "i64", i64s, i64s);
    CheckKernels<int32_t, int64_t>(*m, "i32", i32s, i32_rhss);
    CheckKernels<double, double>(*m, "f64", f64s, f64s);
  }
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
  // No cache_dir even under LB2_CACHE_DIR: a winner sidecar left in a
  // shared directory would re-flavor this shape for every later test.
  service::ServiceOptions so;
  so.cache_dir = "";
  service::QueryService svc(*db_, so);  // explore off
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
