#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "tpch/answers.h"
#include "util/check.h"

namespace perfbench {

double Quantile(std::vector<double> samples, double p) {
  LB2_CHECK_MSG(!samples.empty(), "quantile of an empty sample");
  std::sort(samples.begin(), samples.end());
  const double h = p * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(h));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (h - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double Geomean(const std::vector<double>& values) {
  LB2_CHECK_MSG(!values.empty(), "geomean of nothing");
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

namespace {

double RusageCpuMs(int who) {
  rusage ru{};
  getrusage(who, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

double ProcessCpuMs() {
  return RusageCpuMs(RUSAGE_SELF) + RusageCpuMs(RUSAGE_CHILDREN);
}

double ChildCpuMs() { return RusageCpuMs(RUSAGE_CHILDREN); }

void ResetPeakRss() {
  // Linux: "5" resets the mm's high-water mark (VmHWM) to the current RSS.
  // getrusage's ru_maxrss cannot be used after it: exited threads fold the
  // old mark into it.
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  LB2_CHECK_MSG(f != nullptr, "cannot read /proc/self/status");
  char line[256];
  long kb = -1;
  while (kb < 0 && std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) != 1) kb = -1;
  }
  std::fclose(f);
  LB2_CHECK_MSG(kb >= 0, "no VmHWM in /proc/self/status");
  return static_cast<double>(kb) / 1024.0;
}

int64_t SpanLog::NewRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_request_++;
}

void SpanLog::Add(Span s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string line;
  std::fputs("[\n", f);
  std::vector<Span> all = spans();
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    line = "{\"workload\":";
    AppendJsonString(&line, s.workload);
    line += ",\"name\":";
    AppendJsonString(&line, s.name);
    line += ",\"label\":";
    AppendJsonString(&line, s.label);
    line += ",\"request\":" + std::to_string(s.request) +
            ",\"parent\":" + std::to_string(s.parent) +
            ",\"begin_ns\":" + std::to_string(s.begin_ns) +
            ",\"end_ns\":" + std::to_string(s.end_ns) + "}";
    if (i + 1 < all.size()) line += ",";
    line += "\n";
    std::fputs(line.c_str(), f);
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

void Oracle::Expect(const std::string& key, std::string text, bool ordered) {
  std::lock_guard<std::mutex> lock(mu_);
  Answer& a = answers_[key];
  a.expected = std::move(text);
  a.ordered = ordered;
  a.verified.clear();
}

std::string Oracle::Check(const std::string& key, const std::string& got) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = answers_.find(key);
  if (it == answers_.end()) return "no oracle answer for " + key;
  Answer& a = it->second;
  for (const std::string& v : a.verified) {
    if (v == got) return "";
  }
  std::string diff = lb2::tpch::DiffResults(a.expected, got, a.ordered);
  // Two engines may print an unordered result in different row orders, so
  // a key can collect a few verified spellings; cap the list so a stream
  // of distinct (but correct) orders cannot grow it without bound.
  if (diff.empty() && a.verified.size() < 4) a.verified.push_back(got);
  return diff;
}

}  // namespace perfbench
