#include "obs/metrics.h"

#include <cmath>

#include "util/str.h"

namespace lb2::obs {

int64_t Histogram::Percentile(double p) const {
  int64_t count = Count();
  if (count <= 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  int64_t rank = static_cast<int64_t>(std::ceil(p * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  int64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cum += BucketCount(i);
    if (cum >= rank) {
      int64_t bound = BucketUpperBound(i);
      int64_t max = Max();
      // The recorded max tightens the top occupied bucket (exact for p=1).
      return bound < max ? bound : max;
    }
  }
  return Max();
}

Histogram* Registry::GetHistogram(const std::string& name,
                                  const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& e : entries_) {
    if (e->name == name && e->labels == labels) return &e->histogram;
  }
  entries_.push_back(std::make_unique<Entry>());
  entries_.back()->name = name;
  entries_.back()->labels = labels;
  return &entries_.back()->histogram;
}

namespace {

/// `{a="b",c="d"}` with an optional extra label appended; "" when empty.
std::string RenderLabels(const Labels& labels, const std::string& extra_key,
                         const std::string& extra_val) {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + v + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += extra_key + "=\"" + extra_val + "\"";
  }
  out += "}";
  return out;
}

void EmitType(std::string* out, std::vector<std::string>* emitted,
              const std::string& name, const char* type) {
  for (const auto& n : *emitted) {
    if (n == name) return;
  }
  emitted->push_back(name);
  *out += "# TYPE " + name + " " + type + "\n";
}

std::string JsonLabels(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += "\"" + k + "\":\"" + v + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

std::string Registry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  std::vector<std::string> emitted;
  for (const auto& e : entries_) {
    const Histogram& h = e->histogram;
    EmitType(&out, &emitted, e->name, "histogram");
    // OpenMetrics exemplar: appended to the bucket containing the exemplar
    // value, linking that bucket to a kept trace id.
    const uint64_t ex_trace = h.ExemplarTrace();
    const int64_t ex_value = h.ExemplarValue();
    const int ex_bucket = (ex_trace != 0 && ex_value >= 0)
                              ? Histogram::BucketIndex(ex_value)
                              : -1;
    int64_t cum = 0;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      int64_t c = h.BucketCount(i);
      if (c == 0) continue;  // cumulative counts stay valid
      cum += c;
      out += e->name + "_bucket" +
             RenderLabels(e->labels, "le",
                          StrPrintf("%lld", static_cast<long long>(
                                                Histogram::BucketUpperBound(
                                                    i)))) +
             StrPrintf(" %lld", static_cast<long long>(cum));
      if (i == ex_bucket) {
        out += StrPrintf(" # {trace_id=\"%016llx\"} %lld",
                         static_cast<unsigned long long>(ex_trace),
                         static_cast<long long>(ex_value));
      }
      out += "\n";
    }
    out += e->name + "_bucket" + RenderLabels(e->labels, "le", "+Inf") +
           StrPrintf(" %lld\n", static_cast<long long>(h.Count()));
    out += e->name + "_sum" + RenderLabels(e->labels, "", "") +
           StrPrintf(" %lld\n", static_cast<long long>(h.Sum()));
    out += e->name + "_count" + RenderLabels(e->labels, "", "") +
           StrPrintf(" %lld\n", static_cast<long long>(h.Count()));
    struct { const char* suffix; double p; } quantiles[] = {
        {"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}};
    for (const auto& q : quantiles) {
      EmitType(&out, &emitted, e->name + q.suffix, "gauge");
      out += e->name + q.suffix + RenderLabels(e->labels, "", "") +
             StrPrintf(" %lld\n", static_cast<long long>(h.Percentile(q.p)));
    }
    EmitType(&out, &emitted, e->name + "_max", "gauge");
    out += e->name + "_max" + RenderLabels(e->labels, "", "") +
           StrPrintf(" %lld\n", static_cast<long long>(h.Max()));
  }
  return out;
}

std::string Registry::RenderJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "[";
  bool first = true;
  for (const auto& e : entries_) {
    if (!first) out += ",";
    first = false;
    const Histogram& h = e->histogram;
    out += "\n  {\"name\":\"" + e->name + "\",\"labels\":" +
           JsonLabels(e->labels) +
           StrPrintf(",\"type\":\"histogram\",\"count\":%lld,\"sum\":%lld,"
                     "\"max\":%lld,\"p50\":%lld,\"p95\":%lld,\"p99\":%lld}",
                     static_cast<long long>(h.Count()),
                     static_cast<long long>(h.Sum()),
                     static_cast<long long>(h.Max()),
                     static_cast<long long>(h.Percentile(0.50)),
                     static_cast<long long>(h.Percentile(0.95)),
                     static_cast<long long>(h.Percentile(0.99)));
  }
  out += "\n]\n";
  return out;
}

namespace {

std::string StatValue(const Stat& st, const char* real_format) {
  return st.integral ? StrPrintf("%lld", static_cast<long long>(st.value))
                     : StrPrintf(real_format, st.value);
}

}  // namespace

std::string RenderStatsLine(const std::vector<Stat>& stats) {
  std::string out;
  for (const Stat& st : stats) {
    if (!out.empty()) out += ' ';
    out += std::string(st.label) + "=" + StatValue(st, "%.0f");
  }
  return out;
}

std::string RenderStatsPrometheus(const std::vector<Stat>& stats) {
  std::string out;
  for (const Stat& st : stats) {
    out += StrPrintf("# TYPE %s %s\n", st.name, st.type);
    out += std::string(st.name) + " " + StatValue(st, "%g") + "\n";
  }
  return out;
}

std::string RenderStatsJson(const std::vector<Stat>& stats) {
  std::string out = "{";
  for (const Stat& st : stats) {
    if (out.size() > 1) out += ", ";
    out += "\"" + std::string(st.name) + "\": " + StatValue(st, "%g");
  }
  return out + "}";
}

}  // namespace lb2::obs
