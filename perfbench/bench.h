// Shared pieces of the lb2 benchmark: exact quantiles over raw samples, the
// in-memory span log of the traced run, and the Volcano oracle check.
#ifndef LB2_PERFBENCH_BENCH_H_
#define LB2_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// The p-quantile (0 <= p <= 1) of raw samples, interpolating linearly
/// between the two closest order statistics. Never a bucket bound: the
/// answer always lies between two measured values. Empty input is a bug.
double Quantile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}
double Geomean(const std::vector<double>& values);

/// Process CPU (user+sys) including reaped children, in milliseconds. The
/// external C compiler runs as a child, so its cost shows up here.
double ProcessCpuMs();
/// Reaped children's CPU alone, in milliseconds.
double ChildCpuMs();

/// Restarts the process's peak-RSS mark from its current RSS, so work the
/// benchmark does for itself (the oracle answers) is not counted.
void ResetPeakRss();
/// Peak RSS since the last ResetPeakRss, in MB.
double PeakRssMb();

/// One timed interval of the traced run. Spans of one request share
/// `request`; `parent` indexes the enclosing span in the log (-1 = none).
struct Span {
  std::string workload;
  std::string name;   // "request" or the layer call, e.g. "compile.cc"
  std::string label;  // query or statement, e.g. "q4" or "s7"
  int64_t request = 0;
  int32_t parent = -1;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  double us() const { return static_cast<double>(end_ns - begin_ns) / 1e3; }
};

/// Spans stay in memory while the benchmark runs and are written out once
/// at the end, so recording costs a lock and a vector append.
class SpanLog {
 public:
  int64_t NewRequest();
  void Add(Span s);
  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const;
  /// Writes the log as a JSON array; false on an I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int64_t next_request_ = 1;
};

/// Expected answers from the Volcano iterator engine, the independent
/// reference every response is diffed against. A response byte-identical
/// to one already verified for the same key skips the diff; anything else
/// goes through tpch::DiffResults with the plan's order sensitivity.
class Oracle {
 public:
  void Expect(const std::string& key, std::string text, bool ordered);
  /// Empty when `got` matches the expected answer for `key`, else a
  /// description of the first difference. Thread-safe.
  std::string Check(const std::string& key, const std::string& got);

 private:
  struct Answer {
    std::string expected;
    bool ordered = false;
    std::vector<std::string> verified;
  };
  std::mutex mu_;
  std::map<std::string, Answer> answers_;
};

}  // namespace perfbench

#endif  // LB2_PERFBENCH_BENCH_H_
