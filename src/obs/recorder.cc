#include "obs/recorder.h"

#include <algorithm>
#include <limits>

#include "util/knob.h"
#include "util/str.h"

namespace lb2::obs {

FlightRecorder::Options FlightRecorder::OptionsFromEnv(int workers) {
  Options o;
  o.workers = workers;
  o.ring = EnvNumber<size_t>("LB2_TRACE_RING", o.ring, 0);
  const double slow_ms =
      EnvNumber("LB2_SLOW_MS", static_cast<double>(o.slow_ns) / 1e6,
                -std::numeric_limits<double>::infinity());
  o.slow_ns = slow_ms <= 0 ? 0 : static_cast<int64_t>(slow_ms * 1e6);
  o.sample_every =
      EnvNumber<uint64_t>("LB2_TRACE_SAMPLE", o.sample_every, 0);
  return o;
}

FlightRecorder::FlightRecorder(Options opts) : opts_(opts) {
  if (opts_.workers < 1) opts_.workers = 1;
  if (opts_.ring > 0) {
    rings_.reserve(static_cast<size_t>(opts_.workers));
    for (int i = 0; i < opts_.workers; ++i) {
      auto ring = std::make_unique<Ring>();
      ring->slots.resize(opts_.ring);
      rings_.push_back(std::move(ring));
    }
  }
}

bool FlightRecorder::Record(int worker, RecordedTrace&& t) {
  if (opts_.ring == 0) return false;
  uint64_t tick = ticks_.fetch_add(1, std::memory_order_relaxed);
  const char* keep = nullptr;
  if (t.status == "error") {
    keep = "error";
  } else if (t.status == "busy") {
    keep = "busy";
  } else if (t.breaker) {
    keep = "breaker";
  } else if (t.fault) {
    keep = "fault";
  } else if (t.switched) {
    // Mid-query interpreted→compiled handoffs are rare (one per cold shape
    // at most) and exactly the traces an operator wants to see: the span
    // tree shows the interp prefix overlapping the background build.
    keep = "switch";
  } else if (opts_.slow_ns > 0 && t.end_ns - t.begin_ns >= opts_.slow_ns) {
    keep = "slow";
  } else if (opts_.sample_every > 0 &&
             SplitMix64(opts_.seed + tick) % opts_.sample_every == 0) {
    keep = "sampled";
  }
  if (keep == nullptr) return false;
  t.keep = keep;
  if (worker < 0 || worker >= opts_.workers) worker = 0;
  t.worker = worker;
  const uint64_t trace_id = t.trace_id;
  Ring& ring = *rings_[static_cast<size_t>(worker)];
  {
    std::lock_guard<std::mutex> lock(ring.mu);
    ring.slots[ring.next % ring.slots.size()] = std::move(t);
    ++ring.next;
  }
  kept_.fetch_add(1, std::memory_order_relaxed);
  last_kept_.store(trace_id, std::memory_order_relaxed);
  return true;
}

std::vector<RecordedTrace> FlightRecorder::Snapshot() const {
  std::vector<RecordedTrace> out;
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> lock(ring->mu);
    uint64_t n = std::min<uint64_t>(ring->next, ring->slots.size());
    for (uint64_t i = ring->next - n; i < ring->next; ++i) {
      out.push_back(ring->slots[i % ring->slots.size()]);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const RecordedTrace& a, const RecordedTrace& b) {
                     return a.end_ns < b.end_ns;
                   });
  return out;
}

std::string TracesJson(const std::vector<RecordedTrace>& traces) {
  std::string out = "[";
  bool first_t = true;
  for (const RecordedTrace& t : traces) {
    out += first_t ? "\n" : ",\n";
    first_t = false;
    out += StrPrintf(
        " {\"trace_id\": \"%016llx\", \"request_id\": %llu, \"worker\": %d, "
        "\"name\": \"%s\", \"status\": \"%s\", \"keep\": \"%s\", "
        "\"latency_ms\": %.3f, \"fault\": %s, \"breaker\": %s, "
        "\"switched\": %s",
        static_cast<unsigned long long>(t.trace_id),
        static_cast<unsigned long long>(t.request_id), t.worker,
        JsonEscape(t.name).c_str(), JsonEscape(t.status).c_str(),
        JsonEscape(t.keep).c_str(),
        static_cast<double>(t.end_ns - t.begin_ns) / 1e6,
        t.fault ? "true" : "false", t.breaker ? "true" : "false",
        t.switched ? "true" : "false");
    if (!t.flavor.empty()) {
      out += ", \"flavor\": \"" + JsonEscape(t.flavor) + "\"";
    }
    if (!t.params.empty()) {
      out += ", \"params\": \"" + JsonEscape(t.params) + "\"";
    }
    if (!t.sql.empty()) out += ", \"sql\": \"" + JsonEscape(t.sql) + "\"";
    out += ", \"spans\": [";
    bool first_s = true;
    for (const Span& s : t.spans) {
      out += StrPrintf(
          "%s{\"name\": \"%s\", \"parent\": %d, \"begin_us\": %.3f, "
          "\"dur_us\": %.3f}",
          first_s ? "" : ", ", JsonEscape(s.name).c_str(), s.parent,
          static_cast<double>(s.begin_ns - t.begin_ns) / 1e3,
          static_cast<double>(SpanNs(s)) / 1e3);
      first_s = false;
    }
    out += "]";
    if (!t.profile.empty()) {
      out += ", \"profile\": \"" + JsonEscape(t.profile) + "\"";
    }
    out += "}";
  }
  out += "\n]\n";
  return out;
}

std::string TracesChrome(const std::vector<RecordedTrace>& traces) {
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  auto emit = [&](const std::string& name, int tid, int64_t ts_ns,
                  int64_t dur_ns) {
    out += StrPrintf(
        "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
        "\"ts\": %.3f, \"dur\": %.3f}",
        first ? "" : ",\n", JsonEscape(name).c_str(), tid,
        static_cast<double>(ts_ns) / 1e3, static_cast<double>(dur_ns) / 1e3);
    first = false;
  };
  for (const RecordedTrace& t : traces) {
    for (const Span& s : t.spans) emit(s.name, t.worker, s.begin_ns, SpanNs(s));
    // Traces whose span list lacks a root (e.g. recorded before any stage
    // instrumented) still get their enclosing slice.
    if (t.spans.empty()) emit(t.name, t.worker, t.begin_ns, t.end_ns - t.begin_ns);
  }
  out += "\n]}\n";
  return out;
}

std::string RenderSlowQuery(const RecordedTrace& t) {
  std::string out = StrPrintf(
      "trace %016llx: %s %.3fms status=%s keep=%s worker=%d req=%llu",
      static_cast<unsigned long long>(t.trace_id), t.name.c_str(),
      static_cast<double>(t.end_ns - t.begin_ns) / 1e6, t.status.c_str(),
      t.keep.c_str(), t.worker,
      static_cast<unsigned long long>(t.request_id));
  if (!t.flavor.empty()) out += " flavor=" + t.flavor;
  if (t.fault) out += " fault=1";
  if (t.breaker) out += " breaker=1";
  out += "\n";
  if (!t.sql.empty()) out += "  sql: " + t.sql + "\n";
  if (!t.params.empty()) out += "  params: " + t.params + "\n";
  out += RenderSpanTree(t.spans);
  if (!t.profile.empty()) {
    // The per-operator join: the profiled engine counters rendered under
    // the span tree, so one log entry answers both "which stage" and
    // "which operator".
    out += "  operators (rows, inclusive time):\n";
    size_t pos = 0;
    while (pos < t.profile.size()) {
      size_t nl = t.profile.find('\n', pos);
      if (nl == std::string::npos) nl = t.profile.size();
      out += "    " + t.profile.substr(pos, nl - pos) + "\n";
      pos = nl + 1;
    }
  }
  return out;
}

}  // namespace lb2::obs
