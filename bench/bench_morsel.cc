// Morsel execution benchmarks (ROADMAP item 5), two gated claims:
//
//   cold-start — a cold Q1-style request served with the mid-query switch
//     on (the interpreter answers off the shared dispenser while the JIT
//     builds in the background) must beat the switch-off cold path (client
//     waits for the external compiler) by >= 1.2x end to end. The gate
//     assumes interpreting the prefix is much cheaper than cc. At SF 0.01
//     the interpreter answers this plan in 15-35 ms beside cc, which takes
//     140-160 ms, so the switch-on path wins outright (4-10x on a
//     4-thread host; ROADMAP 6(b)).
//
//   work stealing — the same 8-thread artifact run off small morsels must
//     beat its static-split baseline, one morsel per thread (morsel_rows =
//     ceil(rows / 8), so whoever claims morsel 0 gets every hot row), by
//     >= 1.5x on a skew table whose selected (expensive) rows all land in
//     the first eighth. Only meaningful with >= 4 hardware threads; the CI
//     gate is vacuous below that (the JSON carries hardware_concurrency
//     so the gate can tell).
//
// Human-readable progress goes to stderr; stdout is a single JSON object,
// so CI runs `bench_morsel > BENCH_morsel.json` and gates on the fields.
//
// Scale factor: LB2_SF (default 0.02), as for the figure benchmarks.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "compile/lb2_compiler.h"
#include "engine/exec.h"
#include "engine/morsel.h"
#include "service/service.h"
#include "tpch/dbgen.h"
#include "util/time.h"
#include "volcano/volcano.h"

namespace lb2::bench {
namespace {

plan::Query Q1Style() {
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

/// One cold request end to end: fresh service (no disk tier, so the JIT is
/// always paid), one Execute, service torn down outside the timed region.
double ColdRequestMs(const rt::Database& db, const plan::Query& q,
                     bool midquery_switch, bool* switched, bool* interp_win) {
  service::ServiceOptions sopts;
  sopts.cache_dir = "";
  sopts.morsel_rows = 4096;
  sopts.midquery_switch = midquery_switch;
  service::QueryService svc(db, sopts);
  Stopwatch watch;
  service::ServiceResult r = svc.Execute(q);
  double ms = watch.ElapsedMs();
  if (r.status != service::ServiceResult::Status::kOk || r.rows < 0) {
    std::fprintf(stderr, "cold request failed\n");
    std::exit(1);
  }
  if (switched != nullptr) *switched |= r.switched_mid_query;
  if (interp_win != nullptr) {
    *interp_win |= r.path == service::ServiceResult::Path::kInterpreted;
  }
  return ms;  // destructor drains the background build un-timed
}

int Main() {
  rt::Database db;
  double gen_ms = tpch::Generate(ScaleFactor(), /*seed=*/20260705, &db);
  std::fprintf(stderr, "# TPC-H SF %.3f: lineitem=%lld (generate %.0f ms)\n",
               ScaleFactor(),
               static_cast<long long>(db.table("lineitem").num_rows()),
               gen_ms);
  plan::Query q1 = Q1Style();

  // -- Cold start: switch on vs off ----------------------------------------
  bool switched = false, interp_win = false;
  double on_ms = MedianMs([&] {
    return ColdRequestMs(db, q1, /*midquery_switch=*/true, &switched,
                         &interp_win);
  });
  double off_ms = MedianMs([&] {
    return ColdRequestMs(db, q1, /*midquery_switch=*/false, nullptr, nullptr);
  });
  double cold_ratio = on_ms > 0 ? off_ms / on_ms : 0.0;
  std::fprintf(stderr,
               "# cold Q1: switch-on %.2f ms (interp_win=%d switched=%d), "
               "switch-off %.2f ms, ratio %.2fx\n",
               on_ms, interp_win, switched, off_ms, cold_ratio);

  // -- Work stealing: skewed morsel costs ----------------------------------
  rt::Database skew_db;
  schema::Schema s{{"k", schema::FieldKind::kInt64},
                   {"a", schema::FieldKind::kDouble},
                   {"b", schema::FieldKind::kDouble}};
  rt::Table& t = skew_db.AddTable("skew", s);
  const int64_t kRows = 1 << 21;
  const int64_t kHot = kRows / 8;  // one thread's share under 8-way static
  for (int64_t i = 0; i < kRows; ++i) {
    t.column(0).AppendInt64(i < kHot ? 1 : 0);
    t.column(1).AppendDouble(static_cast<double>(i % 97) * 0.5);
    t.column(2).AppendDouble(static_cast<double>(i % 101) * 0.25);
    t.RowAppended();
  }
  t.Finalize();
  using namespace plan;  // NOLINT
  Query qs{{}, ScalarAggPlan(
                   Filter(Scan("skew"), Eq(Col("k"), I(1))),
                   {Sum(Mul(Mul(Col("a"), Col("b")), Add(Col("a"), Col("b"))),
                        "s1"),
                    Sum(Mul(Add(Col("a"), Col("b")), Add(Col("b"), D(1.0))),
                        "s2"),
                    Sum(Mul(Col("a"), Col("a")), "s3"),
                    Sum(Mul(Col("b"), Col("b")), "s4"), CountStar("n")})};
  engine::EngineOptions copts;
  copts.num_threads = 8;
  auto cq = compile::CompileQuery(qs, skew_db, copts, "bench_morsel_steal");
  std::string oracle = volcano::Execute(qs, skew_db);
  const int64_t split_rows = (kRows + 7) / 8;  // one morsel per thread
  auto run_split = [&] {
    engine::MorselRun split(split_rows);
    return cq.Run(nullptr, &split.source);
  };
  if (run_split().text != oracle) {
    std::fprintf(stderr, "skew static split result mismatch\n");
    return 1;
  }
  double static_ms = MedianMs([&] { return run_split().exec_ms; });
  double steal_ms = MedianMs([&] {
    engine::MorselRun run(4096);
    auto rr = cq.Run(nullptr, &run.source);
    if (rr.text != oracle) {
      std::fprintf(stderr, "skew steal result mismatch\n");
      std::exit(1);
    }
    return rr.exec_ms;
  });
  double steal_ratio = steal_ms > 0 ? static_ms / steal_ms : 0.0;
  unsigned hw = std::thread::hardware_concurrency();
  std::fprintf(stderr,
               "# skew 8 threads: static %.2f ms, steal %.2f ms, "
               "ratio %.2fx (hw=%u)\n",
               static_ms, steal_ms, steal_ratio, hw);

  std::printf(
      "{\n"
      "  \"cold_q1_switch_on_ms\": %.3f,\n"
      "  \"cold_q1_switch_off_ms\": %.3f,\n"
      "  \"cold_ratio\": %.3f,\n"
      "  \"cold_interp_win\": %s,\n"
      "  \"cold_switched\": %s,\n"
      "  \"steal_static_ms\": %.3f,\n"
      "  \"steal_morsel_ms\": %.3f,\n"
      "  \"steal_ratio\": %.3f,\n"
      "  \"hardware_concurrency\": %u\n"
      "}\n",
      on_ms, off_ms, cold_ratio, interp_win ? "true" : "false",
      switched ? "true" : "false", static_ms, steal_ms, steal_ratio, hw);
  return 0;
}

}  // namespace
}  // namespace lb2::bench

int main() { return lb2::bench::Main(); }
