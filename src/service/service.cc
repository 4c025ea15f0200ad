#include "service/service.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <thread>
#include <utility>

#ifdef __linux__
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "compile/lb2_compiler.h"
#include "engine/morsel.h"
#include "engine/parallel.h"
#include "obs/log.h"
#include "sql/sql.h"
#include "stage/jit.h"
#include "testing/faults.h"
#include "util/knob.h"
#include "util/str.h"
#include "util/time.h"

namespace lb2::service {

size_t DefaultCacheCapacity() {
  return EnvNumber<size_t>("LB2_CACHE_CAPACITY", 64, 1);
}

int DefaultMaxInflight() { return EnvNumber("LB2_MAX_INFLIGHT", 0, 0); }

double DefaultQueueTimeoutMs() {
  return EnvNumber("LB2_QUEUE_TIMEOUT_MS", 100.0, 0.0);
}

std::string DefaultCacheDir() {
  const char* env = std::getenv("LB2_CACHE_DIR");
  return env != nullptr ? std::string(env) : std::string();
}

int64_t DefaultCacheDiskBytes() {
  return EnvNumber<int64_t>("LB2_CACHE_DISK_BYTES", 0, 0);
}

bool DefaultMetricsEnabled() { return EnvFlag("LB2_METRICS", true); }

int DefaultCcRetries() { return EnvNumber("LB2_CC_RETRIES", 2, 0); }

int DefaultBreakerFailures() {
  return EnvNumber("LB2_BREAKER_FAILURES", 3, 0);
}

double DefaultDiskCooldownMs() {
  return EnvNumber("LB2_DISK_COOLDOWN_MS", 1000.0, 0.0);
}

bool DefaultParamsEnabled() { return EnvFlag("LB2_PARAMS", true); }

bool DefaultExploreEnabled() { return EnvFlag("LB2_EXPLORE", false); }

int DefaultProfSampleEvery() { return EnvNumber("LB2_PROF_SAMPLE", 0, 0); }

int64_t DefaultMorselRows() {
  return EnvNumber<int64_t>("LB2_MORSEL_ROWS", engine::kDefaultMorselRows, 1);
}

bool DefaultMidquerySwitch() { return EnvFlag("LB2_MIDQUERY_SWITCH", false); }

bool ParseFlavorSpec(const std::string& spec, engine::Flavor* flavor,
                     uint64_t* blend) {
  if (spec == "data" || spec == "data-centric" || spec == "datacentric") {
    *flavor = engine::Flavor::kDataCentric;
    *blend = 0;
    return true;
  }
  if (spec == "vec" || spec == "vectorized") {
    *flavor = engine::Flavor::kVectorized;
    *blend = 0;
    return true;
  }
  if (spec.rfind("blend:", 0) == 0) {
    const std::string mask = spec.substr(6);
    if (mask.empty()) return false;
    char* end = nullptr;
    unsigned long long v = std::strtoull(mask.c_str(), &end, 0);
    if (end == nullptr || *end != '\0') return false;
    *flavor = engine::Flavor::kBlended;
    *blend = static_cast<uint64_t>(v);
    return true;
  }
  return false;
}

std::string FlavorSpecString(engine::Flavor flavor, uint64_t blend) {
  switch (flavor) {
    case engine::Flavor::kDataCentric: return "data";
    case engine::Flavor::kVectorized: return "vec";
    case engine::Flavor::kBlended:
      return StrPrintf("blend:0x%llx", static_cast<unsigned long long>(blend));
  }
  return "data";
}

engine::EngineOptions DefaultEngineOptions() {
  engine::EngineOptions e;
  const char* env = std::getenv("LB2_FLAVOR");
  if (env != nullptr && !ParseFlavorSpec(env, &e.flavor, &e.blend)) {
    LB2_LOG(Warn, "[lb2-service] unrecognized LB2_FLAVOR=%s ignored "
            "(want data | vec | blend:<mask>)", env);
  }
  return e;
}

const char* PathName(ServiceResult::Path p) {
  switch (p) {
    case ServiceResult::Path::kCompiledCold: return "compiled-cold";
    case ServiceResult::Path::kCompiledCached: return "compiled-cached";
    case ServiceResult::Path::kInterpreted: return "interpreted";
    case ServiceResult::Path::kCompiledDisk: return "compiled-disk";
  }
  return "?";
}

const char* StatusName(ServiceResult::Status s) {
  switch (s) {
    case ServiceResult::Status::kOk: return "ok";
    case ServiceResult::Status::kBusy: return "busy";
  }
  return "?";
}

std::vector<obs::Stat> ServiceStats::List() const {
  return {LB2_SERVICE_STATS(LB2_STAT_ROW)};
}

QueryService::QueryService(const rt::Database& db, ServiceOptions opts)
    : db_(db),
      opts_(opts),
      cache_(opts.cache_capacity),
      gate_(opts.max_inflight, opts.queue_timeout_ms) {
  LB2_CHECK_MSG(opts_.morsel_rows > 0,
                "ServiceOptions::morsel_rows must be > 0");
  if (!opts_.cache_dir.empty()) {
    store_ = std::make_unique<ArtifactStore>(opts_.cache_dir,
                                             opts_.cache_disk_bytes,
                                             opts_.disk_cooldown_ms);
  }
  if (opts_.metrics) {
    // Label values mirror PathName() with '-' swapped for '_' (Prometheus
    // label values may contain '-', but '_' matches the metric-name style).
    static constexpr const char* kPathLabel[] = {
        "compiled_cold", "compiled_cached", "interpreted", "compiled_disk"};
    for (int i = 0; i < 4; ++i) {
      lat_hist_[i] = metrics_.GetHistogram("lb2_request_latency_ns",
                                           {{"path", kPathLabel[i]}});
    }
    queue_wait_hist_ = metrics_.GetHistogram("lb2_admission_wait_ns");
    gate_.set_wait_histogram(queue_wait_hist_);
    if (store_ != nullptr) {
      store_->set_histograms(metrics_.GetHistogram("lb2_disk_probe_ns"),
                             metrics_.GetHistogram("lb2_disk_write_ns"));
    }
  }
}

QueryService::~QueryService() { DrainBackground(); }

compile::CompiledQuery::RunResult QueryService::RunEntry(
    const compile::CompiledQuery& query, const plan::ParamVec* params) const {
  // A fresh dispenser (no seed, no claim counters) per execution: the spine
  // of a parallel plan pulls morsels, so one slow core cannot strand a
  // skewed range, and a small spine still spreads over every thread.
  stage::MorselSource morsels;
  morsels.morsel_rows = query.MorselRows(opts_.morsel_rows);
  return query.Run(params, &morsels);
}

ServiceResult QueryService::RunCompiled(const CacheEntryPtr& entry,
                                        ServiceResult::Path path,
                                        const Fingerprint& fp,
                                        const plan::ParamVec* params,
                                        obs::SpanList* spans) {
  int64_t nparams =
      params != nullptr ? static_cast<int64_t>(params->size()) : 0;
  if (nparams > 0) {
    stats_.param_bindings_total.fetch_add(nparams, std::memory_order_relaxed);
    // The per-shape economics: a cached artifact (either tier) just served
    // a request whose literals were bound at Run() instead of compiled in.
    if (path == ServiceResult::Path::kCompiledCached ||
        path == ServiceResult::Path::kCompiledDisk) {
      stats_.param_cache_hits.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // No run lock: entries are reentrant (each Run() builds a private
  // execution context), so same-entry executions overlap freely.
  int64_t t0 = spans != nullptr ? NowNs() : 0;
  compile::CompiledQuery::RunResult rr = RunEntry(entry->query, params);
  if (spans != nullptr) spans->push_back({"exec", t0, NowNs()});
  ServiceResult r;
  if (!rr.prof.empty() && opts_.metrics) {
    // This was a profiled build (prof_sample_every, or the caller asked):
    // fold its per-operator inclusive times into the lb2_op_ns histograms
    // and hand the counters up so a kept trace can render the EXPLAIN
    // ANALYZE operator tree.
    stats_.prof_samples.fetch_add(1, std::memory_order_relaxed);
    ObserveOpProfile(entry->query.prof_nodes(), rr.prof);
    r.prof_nodes = entry->query.prof_nodes();
    r.prof = rr.prof;
  }
  r.path = path;
  r.text = std::move(rr.text);
  r.rows = rr.rows;
  r.exec_ms = rr.exec_ms;
  r.compile_ms = entry->codegen_ms + entry->compile_ms;
  r.fingerprint = fp;
  return r;
}

ServiceResult QueryService::RunInterp(const plan::Query& q,
                                      const engine::EngineOptions& eopts,
                                      const Fingerprint& fp,
                                      const plan::ParamVec* params,
                                      std::string compile_error,
                                      obs::SpanList* spans) {
  if (params != nullptr && !params->empty()) {
    stats_.param_bindings_total.fetch_add(
        static_cast<int64_t>(params->size()), std::memory_order_relaxed);
  }
  // The interpreter shares the engine (and therefore the results) with the
  // compiled path; only num_threads is pinned — parallel pipelines are a
  // compiled-code feature.
  engine::EngineOptions iopts = eopts;
  iopts.num_threads = 1;
  int64_t t0 = spans != nullptr ? NowNs() : 0;
  engine::InterpResult ir = engine::ExecuteInterp(q, db_, iopts, params);
  if (spans != nullptr) spans->push_back({"exec", t0, NowNs()});
  ServiceResult r;
  if (!ir.prof.empty() && opts_.metrics) {
    stats_.prof_samples.fetch_add(1, std::memory_order_relaxed);
    ObserveOpProfile(ir.prof_nodes, ir.prof);
    r.prof_nodes = ir.prof_nodes;
    r.prof = ir.prof;
  }
  r.path = ServiceResult::Path::kInterpreted;
  r.text = std::move(ir.text);
  r.rows = ir.rows;
  r.exec_ms = ir.exec_ms;
  r.fingerprint = fp;
  r.compile_error = std::move(compile_error);
  return r;
}

ServiceResult QueryService::Execute(const plan::Query& q) {
  return Execute(q, opts_.engine);
}

ServiceResult QueryService::Execute(const plan::Query& q,
                                    const engine::EngineOptions& eopts,
                                    uint64_t trace_id) {
  const bool rec = opts_.metrics;
  obs::SpanList spans;
  int64_t t_start = rec ? NowNs() : 0;
  // Canonicalize before fingerprinting: hoisting the plan's literals into
  // parameter slots makes the fingerprint key the query *family* (shape),
  // so one cached artifact serves every literal combination. The extracted
  // vector lives on this frame until the request completes; everything
  // below binds it instead of the baked values. LB2_PARAMS=0 (or
  // ServiceOptions::parameterize=false) restores per-literal keys.
  ParameterizedQuery pq;
  const plan::Query* run_q = &q;
  const plan::ParamVec* params = nullptr;
  if (opts_.parameterize) {
    pq = ParameterizeQuery(q, eopts.use_dict);
    run_q = &pq.query;
    if (!pq.params.empty()) params = &pq.params;
    if (pq.guard_fallbacks > 0) {
      stats_.param_guard_fallbacks.fetch_add(pq.guard_fallbacks,
                                             std::memory_order_relaxed);
    }
  }
  // Codegen-flavor pick: when the explorer has recorded a winner for this
  // plan's flavor-neutral shape, serve under that winner instead of the
  // caller's default. With exploration enabled, the first request of an
  // unknown shape pays the sweep (single-flighted per shape; concurrent
  // losers serve with the caller's flavor this once and pick the winner up
  // next time). The extra neutral-shape hash is skipped entirely when the
  // explorer has never been used and no sidecars can exist.
  engine::EngineOptions run_opts = eopts;
  if (opts_.explore || store_ != nullptr ||
      winners_present_.load(std::memory_order_relaxed)) {
    uint64_t nshape = NeutralShape(*run_q, eopts);
    FlavorWinner w;
    bool have = LookupWinner(nshape, &w);
    if (!have && opts_.explore &&
        !draining_.load(std::memory_order_relaxed)) {
      bool claim = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        claim = exploring_.insert(nshape).second;
      }
      if (claim) {
        ExploreOutcome eo = ExploreShape(*run_q, eopts, nshape, params);
        if (eo.ran) {
          w.flavor = eo.flavor;
          w.blend = eo.blend;
          w.best_ms = eo.best_ms;
          have = true;
          // Re-arm the claim so an explicit ExploreFlavors can re-sweep; a
          // failed sweep stays claimed (no per-request retry storm).
          std::lock_guard<std::mutex> lock(mu_);
          exploring_.erase(nshape);
        }
      }
    }
    if (have && (w.flavor != run_opts.flavor || w.blend != run_opts.blend)) {
      run_opts.flavor = w.flavor;
      run_opts.blend = w.blend;
      stats_.flavor_overrides.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Per-operator latency sampling: every Nth request runs a profiled build
  // of its query (distinct fingerprint, so the instrumented artifact lives
  // beside the plain one) and RunCompiled/RunInterp fold the counters into
  // the lb2_op_ns histograms.
  if (opts_.prof_sample_every > 0 && rec) {
    int64_t n = prof_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n % opts_.prof_sample_every == 0) run_opts.profile = true;
  }
  const std::string flavor_spec =
      FlavorSpecString(run_opts.flavor, run_opts.blend);

  Fingerprint fp = FingerprintQuery(*run_q, run_opts, db_);
  if (rec) spans.push_back({"fingerprint", t_start, NowNs()});
  stats_.requests.fetch_add(1, std::memory_order_relaxed);

  // Rendered bindings for the slow-query log (metrics-gated: it is string
  // work the hot path should not pay when observability is off).
  std::string param_summary;
  if (rec && params != nullptr) {
    for (size_t i = 0; i < params->size(); ++i) {
      const plan::ParamValue& p = (*params)[i];
      if (!param_summary.empty()) param_summary += ' ';
      switch (p.kind) {
        case plan::ParamKind::kDouble:
          param_summary += StrPrintf("$%zu=%g", i, p.f64);
          break;
        case plan::ParamKind::kStr:
          param_summary += StrPrintf("$%zu='%s'", i, p.str.c_str());
          break;
        default:
          param_summary += StrPrintf("$%zu=%lld", i,
                                     static_cast<long long>(p.i64));
      }
    }
  }

  // Draining: the owner has announced shutdown, so shed before queueing —
  // a draining server wants the admission queue empty, not refilling.
  if (draining_.load(std::memory_order_relaxed)) {
    stats_.drain_sheds.fetch_add(1, std::memory_order_relaxed);
    ServiceResult r;
    r.status = ServiceResult::Status::kBusy;
    r.fingerprint = fp;
    r.spans = std::move(spans);
    r.flavor = flavor_spec;
    r.trace_id = trace_id;
    r.params = std::move(param_summary);
    return r;
  }

  // Admission: hold an execution slot for the whole request (compile
  // included — a leader mid-JIT is real work the cap should count). A
  // request that cannot get a slot within the queue timeout is shed with
  // the documented busy status instead of stacking another thread.
  int64_t t_adm = rec ? NowNs() : 0;
  AdmissionSlot slot(&gate_);
  if (rec) spans.push_back({"admission", t_adm, NowNs()});
  if (!slot.admitted()) {
    ServiceResult r;
    r.status = ServiceResult::Status::kBusy;
    r.fingerprint = fp;
    r.spans = std::move(spans);
    r.flavor = flavor_spec;
    r.trace_id = trace_id;
    r.params = std::move(param_summary);
    return r;
  }
  ServiceResult r =
      ExecuteAdmitted(*run_q, run_opts, fp, params, rec ? &spans : nullptr);
  if (rec) {
    lat_hist_[static_cast<int>(r.path)]->Observe(NowNs() - t_start);
    r.spans = std::move(spans);
  }
  r.flavor = flavor_spec;
  r.trace_id = trace_id;
  r.params = std::move(param_summary);
  return r;
}

ServiceResult QueryService::ExecuteAdmitted(const plan::Query& q,
                                            const engine::EngineOptions& eopts,
                                            const Fingerprint& fp,
                                            const plan::ParamVec* params,
                                            obs::SpanList* spans) {
  // Warm path: no codegen, no external compiler, no dlopen — and no stats
  // mutex: two relaxed atomic adds are the whole bookkeeping cost.
  if (CacheEntryPtr entry = cache_.Get(fp)) {
    stats_.hits.fetch_add(1, std::memory_order_relaxed);
    obs::AtomicAddDouble(&stats_.compile_ms_saved,
                         entry->codegen_ms + entry->compile_ms);
    return RunCompiled(entry, ServiceResult::Path::kCompiledCached, fp,
                       params, spans);
  }

  // Cold path: join or start the flight for this fingerprint. A shape
  // cached under a *different* database identity (drift) or an open
  // circuit breaker turns the flight into a background repair: this request
  // is served interpreted either way.
  std::shared_ptr<InFlight> flight;
  bool started = false;
  bool drift = false;
  bool breaker = false;
  uint64_t stale_key = 0;
  CacheEntryPtr rechecked;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Re-check the cache under mu_: a leader may have finished between the
    // miss above and here, in which case its flight is already gone and we
    // must not start a second compile.
    rechecked = cache_.Get(fp);
    if (rechecked == nullptr) {
      // Circuit breaker open for this fingerprint: the compile keeps
      // failing, so stop burning foreground cc attempts on it.
      breaker = breaker_open_.count(fp.hash) != 0;
      auto sit = shape_to_key_.find(fp.shape);
      // Database-identity drift: the shape index still points at the old
      // key until the repair lands, so every drifted request funnels here
      // (interpreted) instead of blocking on a foreground cc.
      drift = !breaker && sit != shape_to_key_.end() &&
              sit->second != fp.hash;
      if (drift) stale_key = sit->second;
      // Join or start the flight, unless that would start a repair in a
      // draining service.
      if (!(breaker || drift) || !draining_.load(std::memory_order_relaxed)) {
        flight = JoinOrStartLocked(fp, &started);
      }
    }
  }
  if (rechecked != nullptr) {
    stats_.hits.fetch_add(1, std::memory_order_relaxed);
    obs::AtomicAddDouble(&stats_.compile_ms_saved,
                         rechecked->codegen_ms + rechecked->compile_ms);
    return RunCompiled(rechecked, ServiceResult::Path::kCompiledCached, fp,
                       params, spans);
  }

  if (breaker || drift) {
    if (drift) {
      // Retire the stale entry so it can never serve drifted data (harmless
      // if a concurrent drifted request already did; in-flight executions
      // of it finish on their own shared_ptrs).
      Fingerprint stale;
      stale.hash = stale_key;
      cache_.Erase(stale);
    }
    if (started) {
      // The first successful repair closes the breaker or ends the drift.
      BuildInBackground(q, eopts, fp, flight, /*repair=*/true);
      (breaker ? stats_.breaker_rebuilds : stats_.drift_recompiles)
          .fetch_add(1, std::memory_order_relaxed);
    }
    (breaker ? stats_.breaker_served : stats_.interp_while_compiling)
        .fetch_add(1, std::memory_order_relaxed);
    ServiceResult r = RunInterp(q, eopts, fp, params, "", spans);
    r.breaker_degraded = breaker;
    return r;
  }

  if (!started) {
    // Follower: another thread is building this fingerprint; the
    // interpreter answers now instead of stalling behind a cc invocation.
    stats_.interp_while_compiling.fetch_add(1, std::memory_order_relaxed);
    return RunInterp(q, eopts, fp, params, "", spans);
  }

  stats_.misses.fetch_add(1, std::memory_order_relaxed);
  if (opts_.midquery_switch && !eopts.profile && engine::HasSpine(q)) {
    // Hybrid cold start: interpret over the shared morsel dispenser now,
    // JIT in the background, hand off at a morsel boundary if the
    // compiled entry lands mid-query.
    return RunMorselSwitch(q, eopts, fp, params, spans, flight);
  }
  std::string error;
  bool from_disk = false;
  CacheEntryPtr entry = BuildEntry(q, eopts, fp, &error, &from_disk, spans);
  Publish(fp, flight, entry, error, from_disk, {});
  if (entry == nullptr) {
    stats_.interp_fallbacks.fetch_add(1, std::memory_order_relaxed);
    return RunInterp(q, eopts, fp, params, std::move(error), spans);
  }
  return RunCompiled(entry,
                     from_disk ? ServiceResult::Path::kCompiledDisk
                               : ServiceResult::Path::kCompiledCold,
                     fp, params, spans);
}

ServiceResult QueryService::RunMorselSwitch(
    const plan::Query& q, const engine::EngineOptions& eopts,
    const Fingerprint& fp, const plan::ParamVec* params, obs::SpanList* spans,
    const std::shared_ptr<InFlight>& flight) {
  // Forced-switch mode for the differential harness: LB2_SWITCH_AT=<k>
  // builds inline (the switch point must not race the compiler) and stops
  // the interpreter at exactly morsel boundary k — sweeping k over every
  // boundary of a shape exercises every possible handoff state. A failed
  // build raises no `ready`, so the interpreter then runs to the end.
  const int64_t switch_at = EnvNumber<int64_t>("LB2_SWITCH_AT", -1, 0);
  if (switch_at >= 0) {
    std::string error;
    bool from_disk = false;
    CacheEntryPtr entry = BuildEntry(q, eopts, fp, &error, &from_disk, spans);
    Publish(fp, flight, std::move(entry), std::move(error), from_disk, {});
  } else {
    BuildInBackground(q, eopts, fp, flight, /*repair=*/false);
  }

  // The interpreted prefix: single-threaded (the seed export reads lane 0)
  // over the shared dispenser, sized for the compiled suffix's threads. The
  // stop poll runs once per morsel boundary.
  engine::MorselRun run(std::min(
      opts_.morsel_rows, engine::LaneMorselCap(q, db_, eopts.num_threads)));
  if (switch_at >= 0) {
    run.stop_poll = [&run, &flight, switch_at] {
      return run.claimed >= switch_at &&
             flight->ready.load(std::memory_order_acquire);
    };
  } else {
    run.stop_poll = [&flight] {
      return flight->ready.load(std::memory_order_acquire) ||
             testing::CheckFault(testing::FaultPoint::kMidquerySwitch).fail;
    };
  }
  engine::EngineOptions iopts = eopts;
  iopts.num_threads = 1;
  int64_t t0 = spans != nullptr ? NowNs() : 0;
  engine::InterpResult ir = engine::ExecuteInterp(q, db_, iopts, params, &run);
  int64_t t1 = spans != nullptr ? NowNs() : 0;

  int64_t nparams =
      params != nullptr ? static_cast<int64_t>(params->size()) : 0;

  if (!run.stopped) {
    // The interpreter crossed the finish line before the JIT: serve its
    // answer now. A build still running warms the cache behind this reply
    // — the next request of this shape runs compiled. One that already
    // failed makes this a fallback instead of a win.
    if (spans != nullptr) spans->push_back({"exec", t0, t1});
    ServiceResult r;
    bool failed = false;
    {
      std::lock_guard<std::mutex> flock(flight->mu);
      failed = flight->done && flight->entry == nullptr;
      if (failed) r.compile_error = flight->error;
    }
    (failed ? stats_.interp_fallbacks : stats_.midquery_interp_wins)
        .fetch_add(1, std::memory_order_relaxed);
    if (nparams > 0) {
      stats_.param_bindings_total.fetch_add(nparams,
                                            std::memory_order_relaxed);
    }
    r.path = ServiceResult::Path::kInterpreted;
    r.text = std::move(ir.text);
    r.rows = ir.rows;
    r.exec_ms = ir.exec_ms;
    r.fingerprint = fp;
    return r;
  }

  // Stopped at a morsel boundary: the sink exported its partial aggregate
  // state as seed rows instead of emitting results.
  if (spans != nullptr) spans->push_back({"interp-prefix", t0, t1});
  CacheEntryPtr entry;
  std::string error;
  bool from_disk = false;
  {
    // An injected fault may have forced the stop before the build landed:
    // wait — the dispenser's remaining morsels need an executor.
    int64_t tw = spans != nullptr ? NowNs() : 0;
    std::unique_lock<std::mutex> flock(flight->mu);
    if (!flight->done) {
      flight->cv.wait(flock, [&] { return flight->done; });
      if (spans != nullptr) spans->push_back({"switch-wait", tw, NowNs()});
    }
    entry = flight->entry;
    error = flight->error;
    from_disk = flight->from_disk;
    if (spans != nullptr && !flight->build_spans.empty()) {
      obs::GraftSpans(spans, flight->build_spans, -1);
    }
  }
  if (entry == nullptr) {
    // A fault stopped the prefix and then the build failed: partial
    // aggregate state has no compiled consumer, so rerun the whole query
    // interpreted. Wasted prefix work, but this corner must still answer,
    // and answer the same rows.
    stats_.interp_fallbacks.fetch_add(1, std::memory_order_relaxed);
    return RunInterp(q, eopts, fp, params, std::move(error), spans);
  }

  // The handoff: publish the seed rows on the dispenser and let the
  // compiled entry fold them in and finish the remaining morsels. The
  // cursor is never reset — every morsel executes exactly once across the
  // two engines.
  run.SealSeed();
  int64_t t2 = spans != nullptr ? NowNs() : 0;
  compile::CompiledQuery::RunResult rr = entry->query.Run(params, &run.source);
  if (spans != nullptr) spans->push_back({"compiled-suffix", t2, NowNs()});
  stats_.midquery_switches.fetch_add(1, std::memory_order_relaxed);
  if (nparams > 0) {
    stats_.param_bindings_total.fetch_add(nparams, std::memory_order_relaxed);
  }
  ServiceResult r;
  r.path = from_disk ? ServiceResult::Path::kCompiledDisk
                     : ServiceResult::Path::kCompiledCold;
  r.switched_mid_query = true;
  r.text = std::move(rr.text);
  r.rows = rr.rows;
  r.exec_ms = ir.exec_ms + rr.exec_ms;
  r.compile_ms = entry->codegen_ms + entry->compile_ms;
  r.fingerprint = fp;
  return r;
}

CacheEntryPtr QueryService::BuildEntry(const plan::Query& q,
                                       const engine::EngineOptions& eopts,
                                       const Fingerprint& fp,
                                       std::string* error, bool* from_disk,
                                       obs::SpanList* spans) {
  *from_disk = false;
  // Enclosing "build" span: stage / disk-probe / dlopen / cc are recorded
  // as its children (index-based parent links), so the trace renders the
  // JIT pipeline as one subtree under the request.
  int32_t build_idx = -1;
  if (spans != nullptr) {
    build_idx = static_cast<int32_t>(spans->size());
    int64_t now = NowNs();
    spans->push_back({"build", now, now});
  }
  const std::string tag = fp.ToString().substr(3);
  std::unique_ptr<compile::CompiledQuery> cq;
  double saved_compile_ms = 0.0;  // sidecar cc cost a disk hit avoided
  double restage_ms = 0.0;        // staging actually paid on the disk path
  double orig_codegen_ms = 0.0;   // sidecar codegen cost (hit credit basis)

  // Transient-failure policy for the external compiler: jitter is seeded
  // by the fingerprint, so a given query retries on a reproducible
  // schedule.
  compile::RetryPolicy retry;
  retry.retries = opts_.cc_retries;
  retry.backoff_ms = opts_.cc_retry_backoff_ms;
  retry.jitter_seed = fp.hash;

  if (store_ != nullptr) {
    // Re-stage: cheap, and unavoidable — the env layout binds process-local
    // pointers — but it also yields the source hash that proves a disk
    // artifact matches what this emitter would generate today.
    int64_t t0 = spans != nullptr ? NowNs() : 0;
    compile::StagedQuery staged = compile::StageQuery(q, db_, eopts);
    if (spans != nullptr) spans->push_back({"stage", t0, NowNs(), build_idx});
    restage_ms = staged.codegen_ms;
    const std::string compiler = stage::Jit::CompilerIdentity();
    ArtifactMeta want;
    want.fp_hash = fp.hash;
    want.fp_shape = fp.shape;
    want.fp_db = fp.db;
    want.compiler = compiler;
    want.prelude_hash = PreludeHash();
    want.source_hash = FnvHash(staged.source);
    const uint64_t key = DiskArtifactKey(fp, compiler, want.prelude_hash);

    std::string so_path;
    ArtifactMeta got;
    t0 = spans != nullptr ? NowNs() : 0;
    ArtifactStore::Probe probe = store_->Lookup(key, want, &so_path, &got);
    if (spans != nullptr) spans->push_back({"disk-probe", t0, NowNs(), build_idx});
    if (probe == ArtifactStore::Probe::kHit) {
      std::string load_error;
      t0 = spans != nullptr ? NowNs() : 0;
      cq = compile::TryLoadStaged(staged, db_, so_path, &load_error);
      if (spans != nullptr) spans->push_back({"dlopen", t0, NowNs(), build_idx});
      if (cq != nullptr) {
        *from_disk = true;
        saved_compile_ms = got.compile_ms;
        orig_codegen_ms = got.codegen_ms;
      } else {
        // Verified-looking artifact that dlopen still rejects: poison it
        // and fall through to a fresh compile.
        store_->Invalidate(key);
        if (opts_.log_compile_errors) {
          LB2_LOG(Warn,
                  "[lb2-service] %s: cached artifact unloadable, "
                  "recompiling: %s",
                  fp.ToString().c_str(), load_error.c_str());
        }
      }
    }
    if (cq == nullptr) {
      t0 = spans != nullptr ? NowNs() : 0;
      int attempts = 1;
      cq = compile::TryCompileStagedRetry(staged, db_, tag, error, retry,
                                          &attempts);
      if (spans != nullptr) spans->push_back({"cc", t0, NowNs(), build_idx});
      if (attempts > 1) {
        stats_.cc_retries.fetch_add(attempts - 1, std::memory_order_relaxed);
      }
      if (cq != nullptr) {
        want.so_bytes = cq->so_bytes();
        want.codegen_ms = cq->codegen_ms();
        want.compile_ms = cq->compile_ms();
        want.created_unix = static_cast<int64_t>(std::time(nullptr));
        store_->Put(key, want, cq->so_path());
      }
    }
  } else {
    // No disk tier: stage once, then cc + dlopen under the retry policy
    // (re-staging on retry would be wasted work — staging is deterministic
    // and never transiently fails).
    int64_t t0 = spans != nullptr ? NowNs() : 0;
    compile::StagedQuery staged = compile::StageQuery(q, db_, eopts);
    if (spans != nullptr) spans->push_back({"stage", t0, NowNs(), build_idx});
    t0 = spans != nullptr ? NowNs() : 0;
    int attempts = 1;
    cq = compile::TryCompileStagedRetry(staged, db_, tag, error, retry,
                                        &attempts);
    if (spans != nullptr) spans->push_back({"cc", t0, NowNs(), build_idx});
    if (attempts > 1) {
      stats_.cc_retries.fetch_add(attempts - 1, std::memory_order_relaxed);
    }
  }

  CacheEntryPtr entry;
  if (cq != nullptr) {
    entry = std::make_shared<CacheEntry>();
    entry->fingerprint = fp;
    // A disk-loaded entry amortizes the *original* build cost on every
    // future hit — that is the cost the artifact keeps anyone from paying.
    entry->codegen_ms = *from_disk ? orig_codegen_ms : cq->codegen_ms();
    entry->compile_ms = *from_disk ? saved_compile_ms : cq->compile_ms();
    entry->bytes =
        cq->so_bytes() + static_cast<int64_t>(cq->source().size());
    entry->query = std::move(*cq);
    cache_.Put(entry);
  }
  if (entry != nullptr) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shape_to_key_[fp.shape] = fp.hash;
      // A successful build (any path) heals the fingerprint: the failure
      // streak restarts and an open breaker closes.
      cc_fail_streak_.erase(fp.hash);
      breaker_open_.erase(fp.hash);
    }
    if (*from_disk) {
      // The cc was skipped entirely: pay only the re-stage, credit the
      // avoided compiler time. `compiles` deliberately stays untouched.
      obs::AtomicAddDouble(&stats_.compile_ms_paid, restage_ms);
      obs::AtomicAddDouble(&stats_.compile_ms_saved, saved_compile_ms);
    } else {
      stats_.compiles.fetch_add(1, std::memory_order_relaxed);
      obs::AtomicAddDouble(&stats_.compile_ms_paid,
                           entry->codegen_ms + entry->compile_ms);
    }
  } else {
    stats_.compile_failures.fetch_add(1, std::memory_order_relaxed);
    // Retries were already exhausted inside the attempt above, so this is
    // one consecutive hard failure toward the breaker threshold. Every
    // build lands here, background repairs included, which is what keeps
    // the breaker open while the fault persists.
    if (opts_.breaker_failures > 0) {
      bool tripped = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        int streak = ++cc_fail_streak_[fp.hash];
        if (streak >= opts_.breaker_failures) {
          tripped = breaker_open_.insert(fp.hash).second;
        }
      }
      if (tripped) {
        stats_.breaker_trips.fetch_add(1, std::memory_order_relaxed);
        if (opts_.log_compile_errors) {
          LB2_LOG(Warn,
                  "[lb2-service] %s: circuit breaker open after %d "
                  "consecutive compile failures; serving interpreted",
                  fp.ToString().c_str(), opts_.breaker_failures);
        }
      }
    }
  }
  if (build_idx >= 0) (*spans)[static_cast<size_t>(build_idx)].end_ns = NowNs();
  return entry;
}

std::shared_ptr<QueryService::InFlight> QueryService::JoinOrStartLocked(
    const Fingerprint& fp, bool* started) {
  std::shared_ptr<InFlight>& flight = inflight_[fp.hash];
  *started = flight == nullptr;
  if (*started) flight = std::make_shared<InFlight>();
  return flight;
}

void QueryService::Publish(const Fingerprint& fp,
                           const std::shared_ptr<InFlight>& flight,
                           CacheEntryPtr entry, std::string error,
                           bool from_disk, obs::SpanList spans) {
  // The cache already holds a built entry (BuildEntry put it), so a request
  // that misses the retired flight hits the cache instead.
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(fp.hash);
  }
  const bool built = entry != nullptr;
  if (!built && opts_.log_compile_errors) {
    LB2_LOG(Warn, "[lb2-service] %s: JIT failed, serving interpreted:\n%s",
            fp.ToString().c_str(), error.c_str());
  }
  {
    std::lock_guard<std::mutex> flock(flight->mu);
    flight->done = true;
    flight->entry = std::move(entry);
    flight->error = std::move(error);
    flight->from_disk = from_disk;
    flight->build_spans = std::move(spans);
  }
  // Stored last (release), so a reader that observes it also observes the
  // entry; a failed build leaves an interpreted prefix running to the end.
  if (built) flight->ready.store(true, std::memory_order_release);
  flight->cv.notify_all();
}

void QueryService::BuildInBackground(const plan::Query& q,
                                     const engine::EngineOptions& eopts,
                                     const Fingerprint& fp,
                                     std::shared_ptr<InFlight> flight,
                                     bool repair) {
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    ++bg_builds_;
  }
  // Copies, not references: the build outlives the request that started
  // it whenever that request is served interpreted.
  std::thread([this, q, eopts, fp, flight = std::move(flight),
               repair]() mutable {
    std::string error;
    bool from_disk = false;
    CacheEntryPtr entry;
    obs::SpanList spans;
#ifdef __linux__
    // Repairs compete with foreground execution for cores; the steady
    // state can wait a little longer, clients cannot.
    if (repair) {
      setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)), 10);
    }
#endif
    // Injection point for the background repair path: a `fail` here behaves
    // exactly like a failed rebuild (requests stay interpreted; the next
    // drifted or breaker-served request starts another), and chaos-mode
    // delays stretch the window in which they serve interpreted.
    if (repair &&
        testing::CheckFault(testing::FaultPoint::kDriftRebuild).fail) {
      error = "injected drift_rebuild fault";
    } else {
      entry = BuildEntry(q, eopts, fp, &error, &from_disk,
                         opts_.metrics ? &spans : nullptr);
    }
    Publish(fp, flight, std::move(entry), std::move(error), from_disk,
            std::move(spans));
    // Drop this thread's hold on the entry while the build is still
    // counted, so none of it (dlopen handle, JIT files) outlives the
    // destructor's outwait.
    flight.reset();
    // Decrement and notify under the lock: once a waiter can see zero, the
    // service (and this cv) may be gone.
    std::lock_guard<std::mutex> lock(bg_mu_);
    --bg_builds_;
    bg_cv_.notify_all();
  }).detach();
}

void QueryService::DrainBackground() {
  std::unique_lock<std::mutex> lock(bg_mu_);
  bg_cv_.wait(lock, [&] { return bg_builds_ == 0; });
}

uint64_t QueryService::NeutralShape(const plan::Query& q,
                                    const engine::EngineOptions& eopts) const {
  // Pin the per-request degrees of freedom (flavor, blend, profiling) so
  // every emission variant of one plan shares one winner slot.
  engine::EngineOptions n = eopts;
  n.flavor = engine::Flavor::kDataCentric;
  n.blend = 0;
  n.profile = false;
  return FingerprintQuery(q, n, db_).shape;
}

std::string QueryService::WinnerSidecarPath(uint64_t nshape) const {
  return StrPrintf("%s/flavor_%016llx.winner", opts_.cache_dir.c_str(),
                   static_cast<unsigned long long>(nshape));
}

bool QueryService::LookupWinner(uint64_t nshape, FlavorWinner* w) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = winners_.find(nshape);
    if (it != winners_.end()) {
      *w = it->second;
      return true;
    }
    // Probe the sidecar at most once per shape per process (negative
    // result included) — a missing file must not cost a stat() per request.
    if (store_ == nullptr || !winner_probed_.insert(nshape).second) {
      return false;
    }
  }
  std::FILE* f = std::fopen(WinnerSidecarPath(nshape).c_str(), "r");
  if (f == nullptr) return false;
  int flavor = 0;
  unsigned long long blend = 0;
  double ms = 0.0;
  bool ok = std::fscanf(f, "v1 flavor=%d blend=%llx ms=%lf", &flavor, &blend,
                        &ms) == 3 &&
            flavor >= 0 && flavor <= 2;
  std::fclose(f);
  if (!ok) return false;
  FlavorWinner got;
  got.flavor = static_cast<engine::Flavor>(flavor);
  got.blend = static_cast<uint64_t>(blend);
  got.best_ms = ms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    winners_[nshape] = got;
  }
  winners_present_.store(true, std::memory_order_relaxed);
  *w = got;
  return true;
}

void QueryService::RecordWinner(uint64_t nshape, const FlavorWinner& w) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    winners_[nshape] = w;
    winner_probed_.insert(nshape);
  }
  winners_present_.store(true, std::memory_order_relaxed);
  if (store_ == nullptr) return;
  // Best-effort persistence next to the artifacts (temp + rename, so a
  // concurrent reader never sees a torn sidecar). A failed write just means
  // the next process re-explores.
  const std::string path = WinnerSidecarPath(nshape);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return;
  bool ok = std::fprintf(f, "v1 flavor=%d blend=%llx ms=%.6f\n",
                         static_cast<int>(w.flavor),
                         static_cast<unsigned long long>(w.blend),
                         w.best_ms) > 0;
  ok = (std::fclose(f) == 0) && ok;
  if (ok) ok = std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) std::remove(tmp.c_str());
}

QueryService::ExploreOutcome QueryService::ExploreShape(
    const plan::Query& q, const engine::EngineOptions& eopts, uint64_t nshape,
    const plan::ParamVec* params) {
  ExploreOutcome out;
  out.sites = engine::CountVecSites(q, db_, eopts);
  stats_.explore_runs.fetch_add(1, std::memory_order_relaxed);

  // Candidate set: both pure flavors, plus the interior blend masks when
  // the shape has more than one eligible site (the full mask generates the
  // same bytes as pure vectorized and the empty mask the same as pure
  // data-centric, so neither is re-timed). Beyond four sites the sweep
  // covers single-site masks only — 2^n builds would out-price any win.
  std::vector<std::pair<engine::Flavor, uint64_t>> cands;
  cands.emplace_back(engine::Flavor::kDataCentric, uint64_t{0});
  if (out.sites > 0) cands.emplace_back(engine::Flavor::kVectorized,
                                        uint64_t{0});
  if (out.sites > 1 && out.sites <= 4) {
    const uint64_t full = (uint64_t{1} << out.sites) - 1;
    for (uint64_t m = 1; m < full; ++m) {
      cands.emplace_back(engine::Flavor::kBlended, m);
    }
  } else if (out.sites > 4) {
    for (int i = 0; i < out.sites && i < 64; ++i) {
      cands.emplace_back(engine::Flavor::kBlended, uint64_t{1} << i);
    }
  }

  double best = 0.0;
  for (const auto& cand : cands) {
    engine::EngineOptions c = eopts;
    c.flavor = cand.first;
    c.blend = cand.second;
    c.profile = false;
    const std::string spec = FlavorSpecString(c.flavor, c.blend);
    Fingerprint fp = FingerprintQuery(q, c, db_);
    CacheEntryPtr entry;
    std::shared_ptr<InFlight> flight;
    bool started = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      entry = cache_.Get(fp);
      if (entry == nullptr) flight = JoinOrStartLocked(fp, &started);
    }
    if (started) {
      std::string error;
      bool from_disk = false;
      entry = BuildEntry(q, c, fp, &error, &from_disk, /*spans=*/nullptr);
      Publish(fp, flight, entry, std::move(error), from_disk, {});
    } else if (flight != nullptr) {
      // A request (or another sweep) is already building this candidate:
      // time its entry rather than compile a second copy.
      std::unique_lock<std::mutex> flock(flight->mu);
      flight->cv.wait(flock, [&] { return flight->done; });
      entry = flight->entry;
    }
    if (entry == nullptr) {
      out.report += StrPrintf("  %-12s build failed\n", spec.c_str());
      continue;
    }
    stats_.explore_candidates.fetch_add(1, std::memory_order_relaxed);
    // One warm-up run, then best-of-3 over the generated code's own timed
    // region: the explorer prices steady state, not first touch.
    (void)RunEntry(entry->query, params);
    double ms = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      double m = RunEntry(entry->query, params).exec_ms;
      if (rep == 0 || m < ms) ms = m;
    }
    out.report += StrPrintf("  %-12s %10.3f ms\n", spec.c_str(), ms);
    ++out.candidates;
    if (!out.ran || ms < best) {
      out.ran = true;
      best = ms;
      out.flavor = c.flavor;
      out.blend = c.blend;
      out.best_ms = ms;
    }
  }
  if (out.ran) {
    FlavorWinner w;
    w.flavor = out.flavor;
    w.blend = out.blend;
    w.best_ms = out.best_ms;
    RecordWinner(nshape, w);
  }
  return out;
}

QueryService::ExploreOutcome QueryService::ExploreFlavors(
    const plan::Query& q) {
  const engine::EngineOptions& eopts = opts_.engine;
  ParameterizedQuery pq;
  const plan::Query* run_q = &q;
  const plan::ParamVec* params = nullptr;
  if (opts_.parameterize) {
    pq = ParameterizeQuery(q, eopts.use_dict);
    run_q = &pq.query;
    if (!pq.params.empty()) params = &pq.params;
  }
  const uint64_t nshape = NeutralShape(*run_q, eopts);
  bool claim = false;
  {
    // An explicit sweep always re-runs (candidate builds are cached, so a
    // re-sweep is mostly re-timing) — but never concurrently with another
    // sweep of the same shape.
    std::lock_guard<std::mutex> lock(mu_);
    exploring_.erase(nshape);
    claim = exploring_.insert(nshape).second;
  }
  if (!claim) {
    ExploreOutcome out;
    FlavorWinner w;
    if (LookupWinner(nshape, &w)) {
      out.ran = true;
      out.flavor = w.flavor;
      out.blend = w.blend;
      out.best_ms = w.best_ms;
      out.report = "  sweep already in flight; recorded winner shown\n";
    } else {
      out.report = "  sweep already in flight\n";
    }
    return out;
  }
  ExploreOutcome out = ExploreShape(*run_q, eopts, nshape, params);
  {
    std::lock_guard<std::mutex> lock(mu_);
    exploring_.erase(nshape);
  }
  return out;
}

bool QueryService::WinnerFor(const plan::Query& q, engine::Flavor* flavor,
                             uint64_t* blend) {
  const engine::EngineOptions& eopts = opts_.engine;
  uint64_t nshape = 0;
  if (opts_.parameterize) {
    nshape = NeutralShape(ParameterizeQuery(q, eopts.use_dict).query, eopts);
  } else {
    nshape = NeutralShape(q, eopts);
  }
  FlavorWinner w;
  if (!LookupWinner(nshape, &w)) return false;
  *flavor = w.flavor;
  *blend = w.blend;
  return true;
}

void QueryService::ObserveOpProfile(
    const std::vector<engine::ProfOpMeta>& nodes,
    const std::vector<int64_t>& counters) {
  for (size_t i = 0; i < nodes.size() && 2 * i + 1 < counters.size(); ++i) {
    // Key by operator type, not instance: the label's leading token
    // ("Scan lineitem" -> "Scan") keeps the cardinality bounded by the
    // operator vocabulary. Registration takes the registry mutex, but this
    // path only runs for sampled profiled requests.
    const std::string& label = nodes[i].label;
    std::string op = label.substr(0, label.find(' '));
    metrics_.GetHistogram("lb2_op_ns", {{"op", std::move(op)}})
        ->Observe(engine::ProfNs(counters, i));
  }
}

bool QueryService::ExecuteSql(const std::string& sql, ServiceResult* result,
                              std::string* error, uint64_t trace_id) {
  plan::Query q;
  int64_t t0 = opts_.metrics ? NowNs() : 0;
  if (!sql::ParseQueryOrError(sql, db_, &q, error)) return false;
  int64_t t1 = opts_.metrics ? NowNs() : 0;
  *result = Execute(q, opts_.engine, trace_id);
  if (opts_.metrics) {
    // Appended, not prepended: span parent links are indexes into the
    // list, so insertion at the front would shift every link Execute
    // recorded. Renderers order by begin timestamp, so parse still shows
    // first.
    result->spans.push_back({"parse", t0, t1});
  }
  return true;
}

void QueryService::AttachExemplar(ServiceResult::Path path, uint64_t trace_id,
                                  int64_t latency_ns) {
  if (!opts_.metrics || trace_id == 0) return;
  lat_hist_[static_cast<int>(path)]->SetExemplar(trace_id, latency_ns);
}

ServiceStats QueryService::Stats() const {
  ServiceStats s;
  LB2_SERVICE_STATS(LB2_STAT_LOAD)
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.in_flight = static_cast<int64_t>(inflight_.size());
    s.breaker_open = static_cast<int64_t>(breaker_open_.size());
  }
  s.exec_in_flight = gate_.in_flight();
  s.admitted = gate_.admitted_total();
  s.queued_waits = gate_.queued_total();
  s.busy_rejections = gate_.timed_out_total();
  s.cache_entries = static_cast<int64_t>(cache_.size());
  s.cache_bytes = cache_.bytes();
  s.evictions = cache_.evictions();
  if (store_ != nullptr) {
    s.disk_hits = store_->hits();
    s.disk_misses = store_->misses();
    s.disk_writes = store_->writes();
    s.disk_evictions = store_->evictions();
    s.disk_corrupt = store_->corrupt();
    s.disk_write_failures = store_->write_failures();
    s.disk_cooldowns = store_->cooldowns();
  }
  s.faults_injected = lb2::testing::FaultsFiredTotal();
  return s;
}

std::string QueryService::MetricsPrometheus() const {
  return metrics_.RenderPrometheus() +
         obs::RenderStatsPrometheus(Stats().List());
}

std::string QueryService::MetricsJson() const {
  return "{\"metrics\": " + metrics_.RenderJson() +
         ", \"stats\": " + obs::RenderStatsJson(Stats().List()) + "}";
}

}  // namespace lb2::service
