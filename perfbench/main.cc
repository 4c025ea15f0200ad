// The lb2 benchmark program. One invocation measures one workload:
//
//   lb2_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans-out <path>] [--smoke]
//   lb2_perfbench --selftest
//
// --trace 0 sets the workload up at least three times (setup_s is the
// median), runs one timed window with no tracing, and prints the end-to-end
// metrics.
// --trace 1 repeats all four workloads with spans around every layer call
// and prints the per-layer metrics; it also measures the named workload
// once without tracing, to print the tracing overhead. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// The program must run with every LB2_* knob cleared except LB2_JIT_DIR,
// a private directory for generated code (perfbench/run.py arranges both).
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "stage/jit.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool smoke = false;
  bool selftest = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (k == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0.0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1" ? 1 : 0;
    } else if (k == "--spans-out") {
      a->spans_out = v;
    } else {
      return false;
    }
  }
  return a->selftest ||
         (!a->workload.empty() && a->seconds > 0.0 && a->trace >= 0);
}

/// Every LB2_* knob changes the measured program, so none may be set apart
/// from LB2_JIT_DIR, which keeps generated code inside the run's checkout.
bool EnvironmentPinned() {
  bool ok = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "LB2_", 4) == 0 &&
        std::strncmp(*e, "LB2_JIT_DIR=", 12) != 0) {
      std::fprintf(stderr, "refusing to run with %s set\n", *e);
      ok = false;
    }
  }
  if (std::getenv("LB2_JIT_DIR") == nullptr) {
    std::fprintf(stderr, "LB2_JIT_DIR must name a private directory\n");
    ok = false;
  }
  return ok;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Every metric but setup_s covers every request of the window.
std::vector<Metric> EndToEnd(const Window& w, const std::vector<double>& setup_s) {
  return {
      {"setup_s", Median(setup_s), "s"},
      {"qps", w.correct_per_s(), "1/s"},
      {"p50_ms", Quantile(w.latency_ms, 0.50), "ms"},
      {"p90_ms", Quantile(w.latency_ms, 0.90), "ms"},
      {"p99_ms", Quantile(w.latency_ms, 0.99), "ms"},
      {"ok_share",
       static_cast<double>(w.attempted - w.failed) /
           static_cast<double>(w.attempted),
       "ratio"},
      {"cpu_ms_per_req", w.cpu_ms / static_cast<double>(w.attempted), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

/// Per-call durations (µs) of spans named `name` from `workload`,
/// optionally only those labelled `label`.
std::vector<double> SpanUs(const std::vector<Span>& spans,
                           const std::string& workload,
                           const std::string& name,
                           const std::string& label = "") {
  std::vector<double> us;
  for (const Span& s : spans) {
    if (s.workload == workload && s.name == name &&
        (label.empty() || s.label == label)) {
      us.push_back(s.us());
    }
  }
  return us;
}

/// Per-layer metrics of one traced run. `own` is the traced window of the
/// workload the run was asked for; its counters give the ratios.
std::vector<Metric> PerLayer(const std::vector<Span>& spans,
                             const std::map<std::string, Window>& traced,
                             const Window& own,
                             const std::map<std::string, double>& probes,
                             const std::vector<double>& generate_ms) {
  const Window& cold = traced.at("tpch_cold");
  const Window& serve = traced.at("serve_mix");
  auto ratio = [](int64_t a, int64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  std::vector<Metric> m = {
      {"tpch.generate_ms", Median(generate_ms), "ms"},
      {"sql.parse_us", Median(SpanUs(spans, "serve_mix", "sql.parse")), "us"},
      {"service.parameterize_us",
       Median(SpanUs(spans, "serve_mix", "service.parameterize")), "us"},
      {"service.fingerprint_us",
       Median(SpanUs(spans, "serve_mix", "service.fingerprint")), "us"},
      {"service.execute_self_us",
       Median(serve.derived.at("service.execute_self_us")), "us"},
      {"service.hit_ratio", ratio(own.hits, own.requests), "ratio"},
      {"service.compiles_per_shape", ratio(own.compiles, own.shapes),
       "ratio"},
      {"service.interp_share", ratio(own.interp, own.requests), "ratio"},
      {"service.param_slowdown", probes.at("service.param_slowdown"), "x"},
      {"service.excluded_mismatches",
       probes.at("service.excluded_mismatches"), "count"},
      {"compile.stage_ms",
       Median(SpanUs(spans, "tpch_cold", "compile.stage")) / 1e3, "ms"},
  };
  const std::vector<double>& c_bytes = cold.derived.at("compile.c_bytes");
  double c_total = 0.0;
  for (double b : c_bytes) c_total += b;
  // Every pass covers each shape once, so this is the C of one pass.
  const double passes = static_cast<double>(cold.shapes) /
                        static_cast<double>(TimedQueries().size());
  m.push_back({"compile.c_kb", c_total / passes / 1024.0, "KB"});
  m.push_back({"compile.cc_ms",
               Median(SpanUs(spans, "tpch_cold", "compile.cc")) / 1e3, "ms"});
  m.push_back({"compile.cc_cpu_ms", Median(cold.derived.at("compile.cc_cpu_ms")),
               "ms"});
  m.push_back({"compile.cc_retries", static_cast<double>(cold.cc_retries),
               "count"});
  std::map<int, double> exec_ms;
  for (int q : TimedQueries()) {
    exec_ms[q] = Median(SpanUs(spans, "tpch_warm", "engine.run",
                               "q" + std::to_string(q))) / 1e3;
    m.push_back({"engine.exec_ms.q" + std::to_string(q), exec_ms[q], "ms"});
  }
  std::vector<double> speedups;
  for (int q : kParQueries) {
    double par = Median(SpanUs(spans, "tpch_par", "engine.run",
                               "q" + std::to_string(q))) / 1e3;
    m.push_back({"engine.par_exec_ms.q" + std::to_string(q), par, "ms"});
    speedups.push_back(exec_ms.at(q) / par);
  }
  m.push_back({"engine.par_speedup", Geomean(speedups), "x"});
  m.push_back({"engine.run_overhead_us",
               Median(serve.derived.at("engine.run_overhead_us")), "us"});
  for (int q : TimedQueries()) {
    m.push_back({"engine.interp_ms.q" + std::to_string(q),
                 Median(SpanUs(spans, "tpch_cold", "engine.interp",
                               "q" + std::to_string(q))) / 1e3,
                 "ms"});
  }
  m.push_back({"net.overhead_us", Median(serve.derived.at("net.overhead_us")),
               "us"});
  m.push_back({"net.encode_us", Median(SpanUs(spans, "serve_mix", "net.encode")),
               "us"});
  m.push_back({"net.resp_bytes", ratio(serve.resp_bytes, serve.responses), "B"});
  m.push_back({"net.backpressure_stalls", static_cast<double>(serve.stalls),
               "count"});
  return m;
}

void PrintResult(const std::vector<Metric>& metrics, int64_t attempted,
                 int64_t failed) {
  for (const Metric& x : metrics) {
    std::printf("  %-32s %16.6f %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

bool AllFinite(const std::vector<Metric>& metrics) {
  bool ok = true;
  for (const Metric& x : metrics) {
    if (!std::isfinite(x.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", x.name.c_str());
      ok = false;
    }
  }
  return ok;
}

void PrintWindow(const char* name, const Window& w) {
  std::printf("%s: %lld requests (%lld failed) in %.3f s, %.2f/s correct, "
              "p50 %.4f ms\n",
              name, static_cast<long long>(w.attempted),
              static_cast<long long>(w.failed), w.seconds, w.correct_per_s(),
              Quantile(w.latency_ms, 0.5));
}

int RunUntraced(const Args& a, const RunConfig& cfg) {
  std::unique_ptr<Workload> wl = MakeWorkload(a.workload, cfg);
  // Set-up is repeated and its median reported, so work moved into set-up
  // shows without one slow repetition deciding the figure: at least three
  // times, and cheap set-ups until three seconds are spent (at most nine).
  std::vector<double> setup_s;
  double spent = 0.0;
  do {
    if (!setup_s.empty()) wl->Teardown();
    setup_s.push_back(wl->Setup());
    spent += setup_s.back();
  } while (!a.smoke && setup_s.size() < 9 &&
           (setup_s.size() < 3 || spent < 3.0));
  Window w = wl->Measure(a.seconds, nullptr);
  wl->Teardown();
  PrintWindow(a.workload.c_str(), w);
  std::vector<Metric> m = EndToEnd(w, setup_s);
  if (!AllFinite(m)) return 1;
  PrintResult(m, w.attempted, w.failed);
  return 0;
}

int RunTraced(const Args& a, const RunConfig& cfg) {
  SpanLog log;
  std::map<std::string, Window> traced;
  std::map<std::string, double> probes;
  std::vector<double> generate_ms;
  Window untraced;
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const std::string& name : WorkloadNames()) {
    std::unique_ptr<Workload> wl = MakeWorkload(name, cfg);
    wl->Setup();
    // tpch_cold measures whole passes; a zero window is exactly one.
    const double len = name == "tpch_cold" ? 0.0 : a.seconds / 2;
    if (name == a.workload) {
      untraced = wl->Measure(len, nullptr);
      attempted += untraced.attempted;
      failed += untraced.failed;
    }
    traced[name] = wl->Measure(len, &log);
    attempted += traced[name].attempted;
    failed += traced[name].failed;
    PrintWindow((name + " (traced)").c_str(), traced[name]);
    wl->Probe(&probes);
    if (name != "serve_mix") {
      generate_ms.insert(generate_ms.end(), wl->generate_ms().begin(),
                         wl->generate_ms().end());
    }
    wl->Teardown();
  }
  const Window& t = traced.at(a.workload);
  const double qps_u = untraced.correct_per_s();
  const double qps_t = t.correct_per_s();
  const double p50_u = Quantile(untraced.latency_ms, 0.5);
  const double p50_t = Quantile(t.latency_ms, 0.5);
  std::printf("tracing overhead %s: qps %.3f untraced, %.3f traced "
              "(traced - untraced = %.3f); p50_ms %.4f untraced, %.4f traced "
              "(traced - untraced = %.4f)\n",
              a.workload.c_str(), qps_u, qps_t, qps_t - qps_u, p50_u, p50_t,
              p50_t - p50_u);
  std::vector<Span> spans = log.spans();
  if (!a.spans_out.empty()) {
    if (log.WriteJson(a.spans_out)) {
      std::printf("spans: %zu written to %s\n", spans.size(),
                  a.spans_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write spans to %s\n", a.spans_out.c_str());
      return 1;
    }
  }
  std::vector<Metric> m = PerLayer(spans, traced, t, probes, generate_ms);
  if (!AllFinite(m)) return 1;
  PrintResult(m, attempted, failed);
  return 0;
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9; }

int SelfTest() {
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  std::vector<std::string> errors;
  if (!Near(Quantile({3, 1, 2, 4}, 0.5), 2.5)) errors.push_back("median of 4");
  if (!Near(Quantile(hundred, 0.9), 90.1)) errors.push_back("p90 of 1..100");
  if (!Near(Quantile(hundred, 0.99), 99.01)) errors.push_back("p99 of 1..100");
  if (!Near(Quantile(hundred, 0.0), 1.0)) errors.push_back("p0 is the minimum");
  if (!Near(Quantile(hundred, 1.0), 100.0)) errors.push_back("p100 is the maximum");
  if (!Near(Quantile({7}, 0.99), 7.0)) errors.push_back("one sample");
  // 2^20 ns is the bucket bound a power-of-two histogram would report for
  // every sample in [2^19, 2^20); the exact quantile must not snap to it.
  if (!Near(Quantile({600000, 700000, 800000}, 0.5), 700000.0)) {
    errors.push_back("median snapped to a bucket bound");
  }
  if (!Near(Geomean({2, 8}), 4.0)) errors.push_back("geomean");
  std::string oracle = SelfTestOracle();
  if (!oracle.empty()) errors.push_back("oracle: " + oracle);
  for (const std::string& e : errors) std::printf("selftest FAILED: %s\n", e.c_str());
  if (!errors.empty()) return 1;
  std::printf("selftest ok: quantiles, geomean, oracle check\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  // Die with the wrapper that started us, so a killed run leaves nothing
  // behind.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-out <path>] [--smoke]\n"
                 "       %s --selftest\n",
                 argv[0], argv[0]);
    return 2;
  }
  if (!EnvironmentPinned()) return 2;
  if (a.selftest) return SelfTest();
  RunConfig cfg;
  cfg.seed = a.seed;
  cfg.smoke = a.smoke;
  const std::vector<std::string>& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  std::printf("config: workload=%s seed=%llu seconds=%g trace=%d nproc=%ld "
              "build=%s sf=%g serve_sf=%g%s\ncompiler: %s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace, sysconf(_SC_NPROCESSORS_ONLN),
              LB2_PERFBENCH_BUILD_TYPE, cfg.smoke ? kTpchSf / 5 : kTpchSf,
              cfg.smoke ? kServeSf / 2 : kServeSf, cfg.smoke ? " (smoke)" : "",
              lb2::stage::Jit::CompilerIdentity().c_str());
  std::fflush(stdout);
  return a.trace == 1 ? RunTraced(a, cfg) : RunUntraced(a, cfg);
}
