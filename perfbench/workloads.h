// The benchmark's four workloads. Each calls the layers' public entry
// points with default ServiceOptions (cache_dir pinned to ""), checks every
// answer against the Volcano oracle, and runs as a closed loop: lb2's
// clients (BlockingClient, sql_shell) wait for each reply before sending
// the next request.
#ifndef LB2_PERFBENCH_WORKLOADS_H_
#define LB2_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// TPC-H scale factors. The database seed is fixed, so every run serves
/// the same data; --seed drives the traffic (plan order, SQL literals).
inline constexpr double kTpchSf = 0.05;
inline constexpr double kServeSf = 0.01;

/// TPC-H plans left out of the timed mixes, because the service's answer
/// differs from the oracle in the default configuration. The traced run
/// still serves them warm (tpch_warm set-up) and cold (tpch_cold, leader
/// and interpreted follower), checks every answer, and reports the wrong
/// ones as service.excluded_mismatches. Q17 answers 0.0000 through the
/// service (ROADMAP item 1).
inline const std::vector<int> kExcludedQueries = {17};

/// The TPC-H plans of tpch_warm and tpch_cold: all but kExcludedQueries.
std::vector<int> TimedQueries();

/// Figure 11's plans, run by tpch_par at nproc threads.
inline const std::vector<int> kParQueries = {4, 6, 13, 14, 22};
inline constexpr int kParThreads = 4;

struct RunConfig {
  uint64_t seed = 1;
  /// Smaller databases and a single setup: the self-test's smoke run.
  bool smoke = false;
};

/// What one measured window of a workload produced.
struct Window {
  /// Client-observed latency of every request that got an answer.
  std::vector<double> latency_ms;
  int64_t attempted = 0;
  /// Wrong answers, ERROR/BUSY frames, protocol violations and missing
  /// responses.
  int64_t failed = 0;
  double seconds = 0.0;
  /// Process and reaped-children CPU spent during the window.
  double cpu_ms = 0.0;
  // QueryService::Stats() and NetServer::stats() deltas over the window.
  int64_t requests = 0;
  int64_t hits = 0;
  int64_t compiles = 0;
  int64_t interp = 0;
  int64_t cc_retries = 0;
  /// Distinct plan shapes served; tpch_cold counts each fresh service.
  int64_t shapes = 0;
  int64_t stalls = 0;
  int64_t responses = 0;
  int64_t resp_bytes = 0;
  /// Per-call values the traced window derives beyond span durations,
  /// keyed by per-layer metric name.
  std::map<std::string, std::vector<double>> derived;

  double correct_per_s() const {
    return static_cast<double>(attempted - failed) / seconds;
  }
  /// Adds `o`'s requests, counters and derived values; the window's
  /// seconds and CPU are left alone.
  void Merge(const Window& o);
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds what the timed window needs: the database, the service (and
  /// server), and warm-up requests with their compiles. Returns the
  /// seconds spent, not counting oracle answers, which are computed once,
  /// on the first call.
  virtual double Setup() = 0;
  /// Releases what Setup built.
  virtual void Teardown() = 0;
  /// One closed-loop window lasting at least `seconds` and made of whole
  /// rounds of the workload's mix. With a `log`, each request also gets a
  /// span, and the benchmark repeats the layer calls on its path on the
  /// same input, each in a sibling span under the request's id.
  virtual Window Measure(double seconds, SpanLog* log) = 0;
  /// Traced run only: per-layer values measured after the window. Counts
  /// add to what earlier workloads put under the same name.
  virtual void Probe(std::map<std::string, double>* out) {}
  /// tpch::Generate times of every Setup so far, in milliseconds.
  const std::vector<double>& generate_ms() const { return generate_ms_; }

 protected:
  std::vector<double> generate_ms_;
};

/// "tpch_warm", "tpch_par", "tpch_cold" or "serve_mix"; null otherwise.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunConfig& cfg);
const std::vector<std::string>& WorkloadNames();

/// Self-test of the oracle check on a tiny database: a correct answer
/// passes, a reordered unordered answer passes, and altered answers are
/// flagged. Returns an empty string on success.
std::string SelfTestOracle();

}  // namespace perfbench

#endif  // LB2_PERFBENCH_WORKLOADS_H_
