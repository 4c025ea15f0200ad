// Codegen-flavor benchmark: warm single-thread throughput of the three
// generation-time flavors on two plan shapes, plus the flavor explorer's
// pick quality.
//
//   shape 0 — Q6-style scan/filter/aggregate (one vectorizable site: a
//             date + two-double kernel prefix over lineitem). The shape
//             where the batched kernels should win outright.
//   shape 1 — filtered orders ⋈ filtered lineitem feeding group-by/sort
//             (two vectorizable sites). The shape where blending matters:
//             the join/group-by tail is identical per flavor, only the
//             scan/filter prefixes change.
//
//   BM_FlavorWarm     — per (shape, flavor) warm execution of a
//                       precompiled artifact: dc, vec, blend-full (every
//                       site vectorized), blend-1 (first site only).
//                       items/s is queries per second.
//   BM_ExplorerPick   — a service with LB2_EXPLORE semantics on: the first
//                       request sweeps the candidates, records a winner,
//                       and every later request auto-picks it. The loop
//                       measures the steady state the explorer chose; the
//                       picked_ms / best_pure_ms counters let CI assert
//                       the pick is within noise of the best pure flavor
//                       measured through the same raw Run() path.
//
// CI (`scripts/ci.sh bench`) runs each flavor and the explorer pick as its
// own process, in 5 rounds with the order rotating, and gates the medians
// across rounds: vec >= 1.3x dc on the scan shape, best blend >= the
// better pure flavor (within 5%), explorer pick within 15% of the best
// pure flavor.
//
//   ./bench_flavors --benchmark_filter='BM_FlavorWarm/shape:[0-9]+/flavor:1/'
//       --benchmark_out=BENCH_flavors_1_0.json --benchmark_out_format=json
//
// Scale factor: LB2_SF (default 0.02), as for the figure benchmarks.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "compile/lb2_compiler.h"
#include "engine/exec.h"
#include "service/service.h"
#include "tpch/dbgen.h"

namespace lb2 {
namespace {

double ScaleFactor() {
  const char* env = std::getenv("LB2_SF");
  return env != nullptr ? std::atof(env) : 0.02;
}

struct Harness {
  rt::Database db;
  Harness() {
    tpch::Generate(ScaleFactor(), /*seed=*/20260705, &db);
    tpch::LoadOptions lo;
    lo.string_dicts = true;
    tpch::BuildAuxStructures(lo, &db);
  }
};

Harness& TheHarness() {
  static Harness* h = new Harness();
  return *h;
}

/// Q6-style scan/filter/aggregate: date + two double kernel conjuncts,
/// one vectorizable site.
plan::Query ScanHeavyQuery() {
  plan::PlanRef p =
      plan::Filter(plan::Scan("lineitem"),
                   plan::And({plan::Ge(plan::Col("l_shipdate"),
                                       plan::DtRaw(19940101)),
                              plan::Lt(plan::Col("l_shipdate"),
                                       plan::DtRaw(19950101)),
                              plan::Ge(plan::Col("l_discount"), plan::D(0.05)),
                              plan::Lt(plan::Col("l_quantity"),
                                       plan::D(24.0))}));
  plan::Query q;
  q.root = plan::ScalarAggPlan(
      p, {plan::CountStar("n"),
          plan::Sum(plan::Col("l_extendedprice"), "rev")});
  return q;
}

/// Two vectorizable prefixes feeding a join + group-by + sort tail: the
/// shape where per-operator blending is a real choice.
plan::Query JoinHeavyQuery() {
  plan::PlanRef orders =
      plan::Filter(plan::Scan("orders"),
                   plan::Lt(plan::Col("o_orderdate"), plan::DtRaw(19960101)));
  plan::PlanRef li = plan::Filter(
      plan::Scan("lineitem"), plan::Ge(plan::Col("l_quantity"), plan::D(25.0)));
  plan::PlanRef j = plan::Join(orders, li, {"o_orderkey"}, {"l_orderkey"});
  plan::PlanRef g = plan::GroupBy(
      j, {"flag"}, {plan::Col("l_returnflag")},
      {plan::CountStar("cnt"), plan::Sum(plan::Col("l_extendedprice"), "s")});
  plan::Query q;
  q.root = plan::OrderBy(g, {{"flag", true}});
  return q;
}

plan::Query ShapeQuery(int shape) {
  return shape == 0 ? ScanHeavyQuery() : JoinHeavyQuery();
}

struct FlavorCandidate {
  engine::Flavor flavor;
  uint64_t blend;
  const char* tag;
};

/// Candidate 0..3 for `shape`: the two pure flavors plus the full and
/// single-site blend masks (full == vec-everywhere through the blended
/// code path; on the 1-site scan shape blend-full == blend-1).
FlavorCandidate CandidateFor(int shape, int idx) {
  Harness& h = TheHarness();
  int sites = engine::CountVecSites(ShapeQuery(shape), h.db);
  uint64_t full = sites >= 64 ? ~0ull : (1ull << sites) - 1;
  switch (idx) {
    case 0: return {engine::Flavor::kDataCentric, 0, "dc"};
    case 1: return {engine::Flavor::kVectorized, 0, "vec"};
    case 2: return {engine::Flavor::kBlended, full, "blend_full"};
    default: return {engine::Flavor::kBlended, 1, "blend_1"};
  }
}

/// Lazily compiled artifact per (shape, candidate); compile cost is paid
/// outside the measured loops.
compile::CompiledQuery* Compiled(int shape, int idx) {
  static std::unique_ptr<compile::CompiledQuery> cache[2][4];
  auto& slot = cache[shape][idx];
  if (slot == nullptr) {
    FlavorCandidate c = CandidateFor(shape, idx);
    engine::EngineOptions eo;
    eo.flavor = c.flavor;
    eo.blend = c.blend;
    std::string error;
    std::string tag = std::string("bflav_s") + std::to_string(shape) + "_" +
                      c.tag;
    slot = compile::TryCompileQuery(ShapeQuery(shape), TheHarness().db, eo,
                                    tag, &error);
    if (slot == nullptr) {
      std::fprintf(stderr, "compile failed for %s: %s\n", tag.c_str(),
                   error.c_str());
      std::abort();
    }
  }
  return slot.get();
}

/// Warm per-flavor execution. args: (shape, candidate index).
void BM_FlavorWarm(benchmark::State& state) {
  compile::CompiledQuery* cq =
      Compiled(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  cq->Run();  // warm caches/TLB before the timed loop
  for (auto _ : state) {
    auto r = cq->Run();
    benchmark::DoNotOptimize(r.rows);
  }
  state.SetItemsProcessed(state.iterations());
}

/// The candidate index whose (flavor, blend) matches, or -1. Lets the
/// explorer comparison reuse the exact artifact the warm benchmarks
/// measured instead of re-compiling the same config (two builds of one
/// config can differ by tens of percent from code placement alone).
int MatchingCandidate(int shape, engine::Flavor flavor, uint64_t blend) {
  for (int idx = 0; idx < 4; ++idx) {
    FlavorCandidate c = CandidateFor(shape, idx);
    if (c.flavor == flavor && c.blend == blend) return idx;
  }
  return -1;
}

/// The explorer's steady state: sweep once, then serve the recorded
/// winner. args: (shape). Counters carry the pick-quality evidence:
///   picked_flavor / picked_blend — what the explorer recorded
///   picked_ms                    — raw warm time of the picked config
///   best_pure_ms                 — raw warm time of the faster pure flavor
void BM_ExplorerPick(benchmark::State& state) {
  Harness& h = TheHarness();
  int shape = static_cast<int>(state.range(0));
  plan::Query q = ShapeQuery(shape);
  static std::unique_ptr<service::QueryService> svcs[2];
  auto& svc = svcs[shape];
  if (svc == nullptr) {
    service::ServiceOptions opts;
    opts.cache_dir = "";  // memory tier only; winner registry is in-memory
    opts.explore = true;
    svc = std::make_unique<service::QueryService>(h.db, opts);
    svc->Execute(q);  // first request runs the sweep and records the winner
  }
  for (auto _ : state) {
    service::ServiceResult r = svc->Execute(q);
    benchmark::DoNotOptimize(r.rows);
  }
  state.SetItemsProcessed(state.iterations());

  engine::Flavor wf = engine::Flavor::kDataCentric;
  uint64_t wb = 0;
  bool have = svc->WinnerFor(q, &wf, &wb);
  state.counters["have_winner"] = have ? 1.0 : 0.0;
  state.counters["picked_flavor"] = static_cast<double>(wf);
  state.counters["picked_blend"] = static_cast<double>(wb);
  if (have) {
    // Reuse the cached artifact when the pick matches a benchmark
    // candidate; only a never-benchmarked blend mask compiles fresh.
    std::unique_ptr<compile::CompiledQuery> fresh;
    compile::CompiledQuery* picked = nullptr;
    int match = MatchingCandidate(shape, wf, wb);
    if (match >= 0) {
      picked = Compiled(shape, match);
    } else {
      engine::EngineOptions eo;
      eo.flavor = wf;
      eo.blend = wb;
      std::string error;
      fresh = compile::TryCompileQuery(
          q, h.db, eo, "bflav_pick" + std::to_string(shape), &error);
      picked = fresh.get();
    }
    // Interleaved best-of-8 raw Run() times: alternating the three
    // configs inside one loop cancels machine drift between them.
    double dc_ms = 1e300, vec_ms = 1e300, picked_ms = 1e300;
    if (picked != nullptr) {
      for (int i = 0; i < 8; ++i) {
        dc_ms = std::min(dc_ms, Compiled(shape, 0)->Run().exec_ms);
        vec_ms = std::min(vec_ms, Compiled(shape, 1)->Run().exec_ms);
        picked_ms = std::min(picked_ms, picked->Run().exec_ms);
      }
    }
    state.counters["picked_ms"] = picked != nullptr ? picked_ms : -1.0;
    state.counters["best_pure_ms"] = std::min(dc_ms, vec_ms);
  }
}

BENCHMARK(BM_FlavorWarm)
    ->ArgsProduct({{0, 1}, {0, 1, 2, 3}})
    ->ArgNames({"shape", "flavor"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ExplorerPick)
    ->ArgNames({"shape"})
    ->DenseRange(0, 1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace lb2

BENCHMARK_MAIN();
