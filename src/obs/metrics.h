// Lock-free metrics for the query service: log-bucketed latency histograms
// collected in a registry that renders Prometheus text or JSON, and the
// renderers for the stats lists (service.h's LB2_SERVICE_STATS, server.h's
// LB2_NET_STATS), where every counter and gauge is declared once.
//
// Design constraints, in order:
//   * The hot path (a warm cache hit) must pay at most a handful of relaxed
//     atomic adds — no mutex, no allocation, no string work. A histogram is
//     a fixed-size block of std::atomic fields; a stat is one std::atomic.
//   * Readers (the scrape path) never stop writers: snapshots are relaxed
//     loads, so a rendered view may be torn by a few in-flight increments —
//     the standard Prometheus contract, where adjacent scrapes converge.
//   * Histograms trade precision for constant cost: power-of-two buckets
//     (bucket i counts values in [2^i, 2^(i+1)-1]), so a reported
//     percentile is an upper bound at most 2x the true value — plenty for
//     latency work spanning nanoseconds to seconds.
#ifndef LB2_OBS_METRICS_H_
#define LB2_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace lb2::obs {

/// CAS-loop accumulate: std::atomic<double>::fetch_add is not guaranteed
/// before C++20 library support we don't assume, and contention on these
/// is negligible (compile-path only).
inline void AtomicAddDouble(std::atomic<double>* a, double d) {
  double cur = a->load(std::memory_order_relaxed);
  while (!a->compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

/// Log-bucketed histogram over non-negative int64 samples (latencies in
/// ns). Observe is wait-free: one bucket add, a count add, a sum add, and a
/// CAS-max. Percentiles are reconstructed from the buckets and report the
/// containing bucket's upper bound (<= 2x the true order statistic).
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  /// Bucket index for `v`: 0 for v <= 1, else floor(log2(v)).
  static int BucketIndex(int64_t v) {
    if (v <= 1) return 0;
    return std::bit_width(static_cast<uint64_t>(v)) - 1;
  }

  /// Largest value bucket `idx` counts (inclusive).
  static int64_t BucketUpperBound(int idx) {
    if (idx >= 62) return INT64_MAX;
    return (static_cast<int64_t>(1) << (idx + 1)) - 1;
  }

  void Observe(int64_t v) {
    if (v < 0) v = 0;
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur && !max_.compare_exchange_weak(cur, v,
                                                  std::memory_order_relaxed)) {
    }
  }

  /// Attaches an OpenMetrics exemplar: the trace id of a recently kept
  /// flight-recorder trace plus the observed value it annotates, so a
  /// latency spike in a dashboard links straight to the trace that paid
  /// it. Two relaxed atomics — a racing scrape may pair a fresh id with a
  /// stale value, which is fine for a debugging pointer. Ignored when
  /// trace_id is 0 (no trace context on this request).
  void SetExemplar(uint64_t trace_id, int64_t value) {
    if (trace_id == 0) return;
    ex_value_.store(value, std::memory_order_relaxed);
    ex_trace_.store(trace_id, std::memory_order_relaxed);
  }
  uint64_t ExemplarTrace() const {
    return ex_trace_.load(std::memory_order_relaxed);
  }
  int64_t ExemplarValue() const {
    return ex_value_.load(std::memory_order_relaxed);
  }

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t Max() const { return max_.load(std::memory_order_relaxed); }
  int64_t BucketCount(int idx) const {
    return buckets_[idx].load(std::memory_order_relaxed);
  }

  /// Value such that at least `p` (in [0,1]) of observed samples are <= it
  /// (the containing bucket's upper bound; the true max caps the top
  /// bucket). 0 when empty.
  int64_t Percentile(double p) const;

 private:
  std::atomic<int64_t> buckets_[kBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> max_{0};
  std::atomic<uint64_t> ex_trace_{0};
  std::atomic<int64_t> ex_value_{-1};
};

/// Prometheus-style label set; order is preserved in the rendering.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Named histograms with stable addresses. Registration (GetHistogram)
/// takes a mutex and is meant for setup paths; the returned pointers are
/// then updated lock-free for the registry's lifetime. The same name+labels
/// returns the same instance.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Histogram* GetHistogram(const std::string& name, const Labels& labels = {});

  /// Prometheus text exposition: per histogram a TYPE comment, cumulative
  /// `_bucket{le=...}`/`_sum`/`_count` lines and derived
  /// `_p50`/`_p95`/`_p99`/`_max` gauges.
  std::string RenderPrometheus() const;

  /// JSON array of histogram objects (name, labels, type, summary stats).
  std::string RenderJson() const;

 private:
  struct Entry {
    Histogram histogram;  // hot: ahead of the cold name and labels
    std::string name;
    Labels labels;
  };

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  // insertion order
};

/// One row of a stats list, as the renderers below see it.
struct Stat {
  const char* name;   // exported metric name, e.g. "lb2_requests_total"
  const char* type;   // Prometheus TYPE: "counter" or "gauge"
  const char* label;  // key in the one-line ToString rendering
  double value;
  bool integral;      // rendered as an integer (else %g, or %.0f in a line)
};

/// `label=value` pairs joined by spaces: the one-line rendering shells and
/// drivers print.
std::string RenderStatsLine(const std::vector<Stat>& stats);
/// `# TYPE name type` plus `name value`, one pair per stat.
std::string RenderStatsPrometheus(const std::vector<Stat>& stats);
/// A JSON object of `"name": value` members.
std::string RenderStatsJson(const std::vector<Stat>& stats);

}  // namespace lb2::obs

// Expanders for a stats list. A list is a macro that applies its argument
// to one row per field:
//
//   X(source, type, field, "lb2_name", counter|gauge, "label")
//
// `source` is `own` for a count the holder keeps itself, in a relaxed
// std::atomic<type> of its private stats block, or `pull` for one read at
// snapshot time from the component that already keeps it.
//
//   LB2_STAT_FIELD    declares the snapshot field `type field = 0;`.
//   LB2_STAT_ATOMIC   declares `std::atomic<type> field{0};` for own rows.
//   LB2_STAT_LOAD     copies an own row from `stats_` into the snapshot `s`.
//   LB2_STAT_ROW      renders the snapshot field as an obs::Stat
//                     initializer (followed by a comma).
#define LB2_STAT_FIELD(source, type, field, name, kind, label) type field = 0;
#define LB2_STAT_ATOMIC(source, type, field, name, kind, label) \
  LB2_STAT_ATOMIC_##source(type, field)
#define LB2_STAT_ATOMIC_own(type, field) std::atomic<type> field{0};
#define LB2_STAT_ATOMIC_pull(type, field)
#define LB2_STAT_LOAD(source, type, field, name, kind, label) \
  LB2_STAT_LOAD_##source(field)
#define LB2_STAT_LOAD_own(field) \
  s.field = stats_.field.load(std::memory_order_relaxed);
#define LB2_STAT_LOAD_pull(field)
#define LB2_STAT_ROW(source, type, field, name, kind, label)            \
  ::lb2::obs::Stat{name, #kind, label, static_cast<double>(field),      \
                   std::is_integral_v<type>},

#endif  // LB2_OBS_METRICS_H_
