// Figure 11 reproduction: parallel scaling of Q4, Q6, Q13, Q14, Q22 on
// 1, 2, 4, 8, 16 threads (the paper's query/thread grid).
//
// The generated code's threads claim spine-scan morsels from one shared
// dispenser, sized as the service sizes it (CompiledQuery::MorselRows: at
// most the default, and at least kMorselsPerLane morsels per thread), keep
// per-thread hash-table lanes and merge them (§4.5). NOTE: speedups require
// physical cores; on a single-core container the curves are flat (threads
// time-slice one CPU), which EXPERIMENTS.md discusses.
#include "bench_util.h"
#include "compile/lb2_compiler.h"
#include "tpch/queries.h"

int main() {
  using namespace lb2;
  rt::Database db;
  bench::SetupDatabase(&db, {});
  tpch::QueryOptions qo;
  qo.scale_factor = bench::ScaleFactor();
  const int kThreads[] = {1, 2, 4, 8, 16};

  std::printf("Figure 11: parallel scaling (ms, median of %d)\n",
              bench::Repeats());
  bench::Table t({"query", "t=1", "t=2", "t=4", "t=8", "t=16"});
  for (int qn : {4, 6, 13, 14, 22}) {
    std::vector<std::string> row = {"Q" + std::to_string(qn)};
    auto q = tpch::BuildQuery(qn, qo);
    for (int threads : kThreads) {
      engine::EngineOptions opts;
      opts.num_threads = threads;
      auto cq = compile::CompileQuery(
          q, db, opts,
          "f11_" + std::to_string(qn) + "_" + std::to_string(threads));
      row.push_back(bench::Ms(bench::MedianMs([&] {
        return cq.Run().exec_ms;
      })));
    }
    t.AddRow(row);
  }
  t.Print();
  return 0;
}
