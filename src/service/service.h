// The query service: the concurrency layer that makes the Futamura
// pipeline servable. Figure 10 of the paper prices each compiled query at
// generation + external-cc + dlopen; a server replaying the same plan
// shapes must pay that once, not per request. The service:
//
//   * keys requests by structural fingerprint (plan + engine options +
//     database identity — see fingerprint.h),
//   * serves warm requests straight from the compiled-query cache (no
//     codegen, no cc, no dlopen),
//   * single-flights every build: each compile is a *flight* in one table,
//     so N concurrent clients submitting the same plan trigger exactly one
//     JIT compilation; the leader builds and the rest run the data-centric
//     interpreter immediately (hybrid dispatch, the Kashuba & Mühleisen
//     interpret-while-compiling scheme),
//   * degrades to the interpreted path when generated code fails to
//     compile (captured compiler stderr is logged, the process survives),
//   * bounds concurrency with a FIFO admission gate (admission.h): at most
//     `max_inflight` requests execute at once, the rest queue up to
//     `queue_timeout_ms` and are then shed with ServiceResult::Status::kBusy,
//   * optionally persists compiled artifacts across processes
//     (artifact_store.h, `cache_dir` / LB2_CACHE_DIR): a memory miss probes
//     the disk tier first — a verified hit is re-stage + dlopen
//     (milliseconds) instead of an external-compiler invocation (seconds),
//     so a restarted process serves its warm set without paying the JIT
//     again; misses write the artifact back atomically,
//   * recompiles in the background on database drift: when a request's
//     plan+options match a cached entry but the database-identity component
//     of the key moved (data growth, new index), the request is served
//     interpreted as usual and exactly one background JIT (a flight in the
//     same table, built on a niced background thread, off the admission
//     path) starts for the new key — the steady state returns to compiled
//     execution without any client eating the compile latency, and the
//     stale entry is retired so it can never serve drifted data,
//   * rides out transient external-compiler failures with bounded retry
//     (`cc_retries`, deterministic jittered exponential backoff), and trips
//     a per-fingerprint circuit breaker after `breaker_failures`
//     consecutive compile failures: while the breaker is open, requests for
//     that fingerprint are served interpreted immediately (no foreground cc
//     attempts) and a niced background rebuild flies the same way; the
//     first successful build closes the breaker and the steady state
//     returns to compiled execution,
//   * disables the disk tier for a cooldown window (`disk_cooldown_ms`)
//     after a write failure (full disk, short write), so degraded storage
//     costs at most one failed I/O per window — requests themselves never
//     fail on an artifact-store problem.
//
// Every degrade decision is counted (ServiceStats: cc_retries,
// breaker_trips/served/rebuilds, disk_write_failures, disk_cooldowns,
// faults_injected). Each ServiceStats field is one row of the
// LB2_SERVICE_STATS list below, which generates the snapshot struct, the
// service's own atomics, their loads in Stats(), ToString and the stats
// block of MetricsPrometheus()/MetricsJson(). Fault injection for all of
// these paths lives in testing/faults.h.
//
// Thread-safety: every public method may be called from any thread.
// Compiled entries are reentrant (each execution gets a private
// lb2_exec_ctx), so any number of threads may run the *same* cached entry
// concurrently; interpreter runs and compilations also proceed in parallel.
#ifndef LB2_SERVICE_SERVICE_H_
#define LB2_SERVICE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/exec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "runtime/database.h"
#include "service/admission.h"
#include "service/artifact_store.h"
#include "service/fingerprint.h"
#include "service/query_cache.h"

namespace lb2::service {

/// Default entry capacity: LB2_CACHE_CAPACITY env var, else 64.
size_t DefaultCacheCapacity();

/// Default admission cap: LB2_MAX_INFLIGHT env var, else 0 (unlimited).
int DefaultMaxInflight();

/// Default queue wait before shedding: LB2_QUEUE_TIMEOUT_MS env var,
/// else 100 ms (only meaningful when max_inflight > 0).
double DefaultQueueTimeoutMs();

/// Default persistent artifact directory: LB2_CACHE_DIR env var, else ""
/// (disk tier off).
std::string DefaultCacheDir();

/// Default disk-tier byte budget: LB2_CACHE_DISK_BYTES env var, else 0
/// (unlimited).
int64_t DefaultCacheDiskBytes();

/// Default for ServiceOptions::metrics: LB2_METRICS env var (0/false = off),
/// else on.
bool DefaultMetricsEnabled();

/// Default extra external-compiler attempts after a failure:
/// LB2_CC_RETRIES env var, else 2.
int DefaultCcRetries();

/// Default consecutive compile failures that trip the per-fingerprint
/// circuit breaker: LB2_BREAKER_FAILURES env var, else 3 (0 disables the
/// breaker).
int DefaultBreakerFailures();

/// Default disk-tier cooldown after a write failure:
/// LB2_DISK_COOLDOWN_MS env var, else 1000 ms (0 disables the cooldown).
double DefaultDiskCooldownMs();

/// Default for ServiceOptions::parameterize: LB2_PARAMS env var
/// (0/false = off), else on.
bool DefaultParamsEnabled();

/// Default for ServiceOptions::explore: LB2_EXPLORE env var (1/true = on),
/// else off.
bool DefaultExploreEnabled();

/// Default for ServiceOptions::prof_sample_every: LB2_PROF_SAMPLE env var,
/// else 0 (per-operator sampling off).
int DefaultProfSampleEvery();

/// Default morsel size in rows: LB2_MORSEL_ROWS env var when it is > 0,
/// else engine::kDefaultMorselRows.
int64_t DefaultMorselRows();

/// Default for ServiceOptions::midquery_switch: LB2_MIDQUERY_SWITCH env var
/// (1/true = on), else off.
bool DefaultMidquerySwitch();

/// Parses a codegen-flavor spec: "data" | "vec" | "blend:<hex-mask>"
/// (e.g. "blend:0x5" vectorizes eligible sites 0 and 2). Returns false
/// (outputs untouched) on anything else.
bool ParseFlavorSpec(const std::string& spec, engine::Flavor* flavor,
                     uint64_t* blend);

/// Inverse of ParseFlavorSpec: "data", "vec", or "blend:0x<mask>".
std::string FlavorSpecString(engine::Flavor flavor, uint64_t blend);

/// Engine options with the LB2_FLAVOR env var applied (see
/// ParseFlavorSpec); everything else default-constructed.
engine::EngineOptions DefaultEngineOptions();

struct ServiceOptions {
  /// Max cached compiled queries (>= 1).
  size_t cache_capacity = DefaultCacheCapacity();
  /// Engine knobs baked into compiled entries (part of the cache key).
  /// The default applies the LB2_FLAVOR spec ("data" | "vec" |
  /// "blend:<hex-mask>") so shells and servers pick up the flavor knob
  /// without code changes.
  engine::EngineOptions engine = DefaultEngineOptions();
  /// Log compile failures (captured compiler stderr) to stderr.
  bool log_compile_errors = true;
  /// Max requests executing at once; 0 = unlimited (gate disabled).
  int max_inflight = DefaultMaxInflight();
  /// Max milliseconds a request queues for an execution slot before being
  /// shed with Status::kBusy; 0 = shed immediately when saturated.
  double queue_timeout_ms = DefaultQueueTimeoutMs();
  /// Persistent artifact directory shared across processes; "" = disk tier
  /// off. Artifacts are keyed by fingerprint × compiler identity × prelude
  /// hash, verified against their metadata sidecar before every load.
  std::string cache_dir = DefaultCacheDir();
  /// Disk-tier byte budget over .so sizes (LRU-by-mtime eviction);
  /// 0 = unlimited.
  int64_t cache_disk_bytes = DefaultCacheDiskBytes();
  /// Extra external-compiler attempts after a failed one (transient cc
  /// failures: OOM-killed compiler, tmpfs contention). 0 = single attempt.
  /// Backoff between attempts is exponential from `cc_retry_backoff_ms`
  /// with a deterministic jitter seeded by the query fingerprint.
  int cc_retries = DefaultCcRetries();
  double cc_retry_backoff_ms = 10.0;
  /// Consecutive compile failures (per fingerprint, retries exhausted) that
  /// open the circuit breaker for that fingerprint; 0 disables the breaker.
  int breaker_failures = DefaultBreakerFailures();
  /// How long a disk-tier write failure keeps the tier offline; 0 = no
  /// cooldown (every Put hits the disk again).
  double disk_cooldown_ms = DefaultDiskCooldownMs();
  /// Canonicalize each request before fingerprinting: plan literals are
  /// hoisted into execution-context parameter slots and bound at Run(), so
  /// one compiled artifact (memory tier and disk tier alike) serves the
  /// whole same-shape query family instead of one artifact per literal
  /// combination. Guard predicates keep value-specialized literals baked
  /// (see fingerprint.h ParameterizeQuery). The LB2_PARAMS=0 escape hatch
  /// (or setting this false) restores per-literal fingerprints.
  bool parameterize = DefaultParamsEnabled();
  /// Record per-request latency histograms and trace spans (obs/metrics.h,
  /// obs/trace.h). The counters in ServiceStats are always maintained; this
  /// gates only the timestamped extras, so benchmarks can price their cost
  /// (LB2_METRICS=0). Off also empties MetricsPrometheus()'s histogram
  /// section.
  bool metrics = DefaultMetricsEnabled();
  /// Flavor explorer: on the first request of each plan shape, sweep the
  /// codegen-flavor candidates (data-centric, vectorized, and the blend
  /// masks over the shape's eligible scan→filter sites), time each warm,
  /// record the winner next to the artifact (cache_dir sidecar), and serve
  /// that shape with the winning flavor from then on. Off by default — the
  /// sweep pays several JIT compiles up front; it can also be triggered
  /// explicitly via ExploreFlavors() (`\explore` in the shell, `/explore`
  /// on the admin endpoint) with this flag off. Recorded winners are
  /// auto-applied either way.
  bool explore = DefaultExploreEnabled();
  /// When > 0 (and metrics are on), every Nth request is served by a
  /// profiled build of its query: the generated code carries per-operator
  /// (rows, ns) counters, and the service folds the inclusive ns of each
  /// operator into the `lb2_op_ns{op=...}` histogram family — per-operator
  /// latency distributions in MetricsPrometheus()/MetricsJson() for the
  /// price of one extra artifact per shape and a sampled profiled run.
  /// Profiled runs are sequential (EngineOptions::profile contract).
  int prof_sample_every = DefaultProfSampleEvery();
  /// Morsel size in rows; must be > 0 (checked at construction). Every
  /// execution of a plan with a spine (engine::HasSpine) pulls fixed-size
  /// row ranges from a fresh shared atomic dispenser of this size — work
  /// stealing across threads for free — and the mid-query switch below
  /// hands one dispenser from the interpreter to the compiled code. A
  /// parallel run shrinks it to engine::LaneMorselCap, so a spine smaller
  /// than kMorselsPerLane morsels per thread still spreads over every lane.
  int64_t morsel_rows = DefaultMorselRows();
  /// Mid-query interpreted→compiled switch: a cold leader starts its
  /// request on the interpreter immediately, pulling morsels from the
  /// shared dispenser, while the JIT runs on a background thread. If the
  /// interpreter finishes first, its answer is served without waiting for
  /// the compiler. If the compiled entry lands first, the interpreter stops
  /// at the next morsel boundary, exports its partial aggregate state as
  /// seed rows, and the compiled code — handed the *same* dispenser —
  /// finishes the remaining morsels (ServiceResult::switched_mid_query).
  /// Only plans with a spine (aggregate-rooted pipelines, see
  /// engine::HasSpine) take this path; everything else keeps the plain
  /// cold-leader behavior. Off by default:
  /// the interpreted prefix costs one core that a saturated server may not
  /// want to spend on already-answered work.
  bool midquery_switch = DefaultMidquerySwitch();
};

// Every ServiceStats field, one row each, in exposition order:
//   X(own|pull, type, field, "lb2_name", counter|gauge, "ToString label")
// `own` rows are relaxed atomics the service bumps itself; `pull` rows are
// read in Stats() from the component that keeps the count (the cache, the
// admission gate, the artifact store, the fault registry, or the flight and
// breaker tables under mu_). The expanders live in obs/metrics.h.
#define LB2_SERVICE_STATS(X)                                                  \
  X(own, int64_t, requests, "lb2_requests_total", counter, "requests")        \
  /* served from the compiled-query cache */                                  \
  X(own, int64_t, hits, "lb2_cache_hits_total", counter, "hits")              \
  /* leader compiles (cold paths) */                                          \
  X(own, int64_t, misses, "lb2_cache_misses_total", counter, "misses")        \
  /* successful JIT compilations */                                           \
  X(own, int64_t, compiles, "lb2_compiles_total", counter, "compiles")        \
  X(own, int64_t, compile_failures, "lb2_compile_failures_total", counter,    \
    "failures")                                                               \
  /* hybrid followers served interpreted */                                   \
  X(own, int64_t, interp_while_compiling, "lb2_interp_while_compiling_total", \
    counter, "interp-while-compiling")                                        \
  /* compile failed -> interpreted */                                         \
  X(own, int64_t, interp_fallbacks, "lb2_interp_fallbacks_total", counter,    \
    "interp-fallbacks")                                                       \
  /* builds (flights) running right now */                                    \
  X(pull, int64_t, in_flight, "lb2_compiles_in_flight", gauge, "in-flight")   \
  /* admitted requests executing right now */                                 \
  X(pull, int64_t, exec_in_flight, "lb2_exec_in_flight", gauge,               \
    "exec-in-flight")                                                         \
  /* requests granted an execution slot */                                    \
  X(pull, int64_t, admitted, "lb2_admitted_total", counter, "admitted")       \
  /* admissions that waited in line first */                                  \
  X(pull, int64_t, queued_waits, "lb2_queued_waits_total", counter, "queued") \
  /* requests shed after queue timeout */                                     \
  X(pull, int64_t, busy_rejections, "lb2_busy_rejections_total", counter,     \
    "busy")                                                                   \
  /* codegen+cc ms amortized by cache hits */                                 \
  X(own, double, compile_ms_saved, "lb2_compile_ms_saved_total", counter,     \
    "compile-ms saved")                                                       \
  /* codegen+cc ms actually spent */                                          \
  X(own, double, compile_ms_paid, "lb2_compile_ms_paid_total", counter,       \
    "paid")                                                                   \
  X(pull, int64_t, cache_entries, "lb2_cache_entries", gauge, "entries")      \
  X(pull, int64_t, cache_bytes, "lb2_cache_bytes", gauge, "bytes")            \
  X(pull, int64_t, evictions, "lb2_cache_evictions_total", counter,           \
    "evictions")                                                              \
  /* Disk tier (all zero when the tier is off). */                            \
  /* artifact verified + loaded (no cc paid) */                               \
  X(pull, int64_t, disk_hits, "lb2_disk_hits_total", counter, "disk-hits")    \
  /* probes that found nothing usable */                                      \
  X(pull, int64_t, disk_misses, "lb2_disk_misses_total", counter,             \
    "disk-misses")                                                            \
  /* artifacts written back after a compile */                                \
  X(pull, int64_t, disk_writes, "lb2_disk_writes_total", counter,             \
    "disk-writes")                                                            \
  /* artifacts deleted under the byte budget */                               \
  X(pull, int64_t, disk_evictions, "lb2_disk_evictions_total", counter,       \
    "disk-evictions")                                                         \
  /* corrupt/truncated/stale artifacts deleted */                             \
  X(pull, int64_t, disk_corrupt, "lb2_disk_corrupt_total", counter,           \
    "disk-corrupt")                                                           \
  /* background recompiles started for database-identity drift */             \
  X(own, int64_t, drift_recompiles, "lb2_drift_recompiles_total", counter,    \
    "drift-recompiles")                                                       \
  /* Degrade paths (fault tolerance). */                                      \
  /* extra compiler attempts after a failure */                               \
  X(own, int64_t, cc_retries, "lb2_cc_retries_total", counter, "cc-retries")  \
  /* fingerprints whose breaker opened */                                     \
  X(own, int64_t, breaker_trips, "lb2_breaker_trips_total", counter,          \
    "breaker trips")                                                          \
  /* breakers open right now */                                               \
  X(pull, int64_t, breaker_open, "lb2_breaker_open", gauge, "open")           \
  /* requests served interpreted by the breaker */                            \
  X(own, int64_t, breaker_served, "lb2_breaker_served_total", counter,        \
    "served")                                                                 \
  /* background rebuilds the breaker started */                               \
  X(own, int64_t, breaker_rebuilds, "lb2_breaker_rebuilds_total", counter,    \
    "rebuilds")                                                               \
  /* Puts that failed or were torn */                                         \
  X(pull, int64_t, disk_write_failures, "lb2_disk_write_failures_total",      \
    counter, "disk-write-failures")                                           \
  /* cooldown windows entered */                                              \
  X(pull, int64_t, disk_cooldowns, "lb2_disk_cooldowns_total", counter,       \
    "disk-cooldowns")                                                         \
  /* injected faults fired (testing/faults.h) */                              \
  X(pull, int64_t, faults_injected, "lb2_faults_injected_total", counter,     \
    "faults-injected")                                                        \
  /* requests shed because BeginDrain() ran */                                \
  X(own, int64_t, drain_sheds, "lb2_drain_sheds_total", counter,              \
    "drain-sheds")                                                            \
  /* Parameterized-plan cache economics (ServiceOptions::parameterize). */    \
  /* cached-artifact runs with bound params */                                \
  X(own, int64_t, param_cache_hits, "lb2_param_cache_hits_total", counter,    \
    "param-hits")                                                             \
  /* individual literals bound at Run() */                                    \
  X(own, int64_t, param_bindings_total, "lb2_param_bindings_total", counter,  \
    "param-bindings")                                                         \
  /* literals kept baked by a guard */                                        \
  X(own, int64_t, param_guard_fallbacks, "lb2_param_guard_fallbacks_total",   \
    counter, "param-guard-fallbacks")                                         \
  /* Codegen-flavor explorer (ServiceOptions::explore / ExploreFlavors()). */ \
  /* per-shape sweeps performed */                                            \
  X(own, int64_t, explore_runs, "lb2_explore_runs_total", counter,            \
    "explore-runs")                                                           \
  /* candidate flavors built + timed */                                       \
  X(own, int64_t, explore_candidates, "lb2_explore_candidates_total",         \
    counter, "explore-candidates")                                            \
  /* requests served under a recorded winner */                               \
  X(own, int64_t, flavor_overrides, "lb2_flavor_overrides_total", counter,    \
    "flavor-overrides")                                                       \
  /* profiled runs folded into lb2_op_ns (prof_sample_every) */               \
  X(own, int64_t, prof_samples, "lb2_prof_samples_total", counter,            \
    "prof-samples")                                                           \
  /* cold requests whose interpreted prefix handed off to the compiled */     \
  /* entry at a morsel boundary (ServiceOptions::midquery_switch) */          \
  X(own, int64_t, midquery_switches, "lb2_midquery_switches_total", counter,  \
    "midquery-switches")                                                      \
  /* cold requests whose interpreter finished before the background JIT, */  \
  /* served without waiting for the compiler at all */                        \
  X(own, int64_t, midquery_interp_wins, "lb2_midquery_interp_wins_total",     \
    counter, "midquery-interp-wins")

/// Point-in-time counters. `Snapshot`-style value type, filled by
/// QueryService::Stats() from relaxed atomic loads: the snapshot is
/// internally consistent only to within the few increments in flight while
/// it was taken (e.g. `requests` may momentarily exceed the sum of
/// per-path outcomes). Totals converge as soon as the service quiesces —
/// the standard monitoring contract, bought by keeping the request hot
/// path free of any stats mutex.
struct ServiceStats {
  LB2_SERVICE_STATS(LB2_STAT_FIELD)

  /// Every field as an obs::Stat, in list order: what ToString,
  /// QueryService::MetricsPrometheus() and MetricsJson() render.
  std::vector<obs::Stat> List() const;
  /// One-line human-readable rendering for shells and drivers.
  std::string ToString() const { return obs::RenderStatsLine(List()); }
};

struct ServiceResult {
  /// Which engine produced the answer. kCompiledDisk is a process-cold
  /// request served by loading a persisted artifact — no external compiler
  /// ran, only re-stage + dlopen.
  enum class Path { kCompiledCold, kCompiledCached, kInterpreted,
                    kCompiledDisk };
  /// Whether the request was served at all. kBusy is the documented
  /// load-shedding outcome: the admission queue timed out, no engine ran,
  /// text is empty and rows is 0 — the client should retry later.
  enum class Status { kOk, kBusy };
  Path path = Path::kInterpreted;
  Status status = Status::kOk;
  std::string text;
  int64_t rows = 0;
  /// Generated/interpreted code's own timed region, milliseconds.
  double exec_ms = 0.0;
  /// Codegen+cc cost of the compiled entry serving this request: paid now
  /// on kCompiledCold, amortized on kCompiledCached, 0 on kInterpreted.
  double compile_ms = 0.0;
  Fingerprint fingerprint;
  /// Captured compiler diagnostics when a compile failure degraded this
  /// request to the interpreter; empty otherwise.
  std::string compile_error;
  /// Where this request spent its time: a span tree with real begin/end
  /// timestamps and parent links (fingerprint, admission, build{stage, cc,
  /// dlopen}, exec, ...). Populated only when ServiceOptions::metrics is
  /// on; render with obs::RenderSpans / obs::RenderSpanTree.
  obs::SpanList spans;
  /// Codegen-flavor spec the request was actually served under (see
  /// FlavorSpecString) — differs from the caller's engine options when a
  /// recorded explorer winner was auto-applied.
  std::string flavor;
  /// Trace context the caller passed to Execute, echoed back (0 = none).
  uint64_t trace_id = 0;
  /// True when an open circuit breaker served this request interpreted —
  /// the flight recorder always keeps such traces.
  bool breaker_degraded = false;
  /// True when this request started on the interpreter and handed off to
  /// the freshly-compiled entry at a morsel boundary
  /// (ServiceOptions::midquery_switch). The flight recorder always keeps
  /// such traces; the span tree shows interp-prefix / compiled-suffix.
  bool switched_mid_query = false;
  /// Rendered parameter bindings ("$0=24 $1='AIR'") when request
  /// canonicalization extracted literals and metrics are on; the slow-query
  /// log joins this into its EXPLAIN ANALYZE header.
  std::string params;
  /// Per-operator profile when this request happened to be a sampled
  /// profiled run (ServiceOptions::prof_sample_every): pre-order operator
  /// metadata plus (rows, inclusive ns) counter pairs — render with
  /// engine::RenderProfile. Empty otherwise.
  std::vector<engine::ProfOpMeta> prof_nodes;
  std::vector<int64_t> prof;
};

const char* PathName(ServiceResult::Path p);
const char* StatusName(ServiceResult::Status s);

class QueryService {
 public:
  /// The database must outlive the service and must not be mutated while
  /// the service runs (compiled entries bind column pointers).
  explicit QueryService(const rt::Database& db, ServiceOptions opts = {});

  /// Executes `q` with the service's default engine options.
  ServiceResult Execute(const plan::Query& q);
  /// Executes `q` with explicit engine options (distinct cache key).
  /// `trace_id` is the caller's trace context (a network front end passes
  /// the wire-level id here); it is echoed on the result so the span tree,
  /// the flight recorder entry and the OpenMetrics exemplars all name the
  /// same trace. 0 = no context.
  ServiceResult Execute(const plan::Query& q,
                        const engine::EngineOptions& eopts,
                        uint64_t trace_id = 0);

  /// Parses `sql` against the catalog and executes. Returns false (and
  /// fills *error) on a parse/bind error; execution itself cannot fail —
  /// the interpreter is the fallback of last resort.
  bool ExecuteSql(const std::string& sql, ServiceResult* result,
                  std::string* error, uint64_t trace_id = 0);

  /// Attaches `trace_id` as the OpenMetrics exemplar on the request-latency
  /// histogram for `path` (no-op when metrics are off). Called by serving
  /// front ends after the flight recorder decides a trace is *kept*, so the
  /// exemplar a scrape sees always points at a retrievable trace.
  void AttachExemplar(ServiceResult::Path path, uint64_t trace_id,
                      int64_t latency_ns);

  /// Cache key a query would be served under (tests, EXPLAIN-style tools).
  /// Canonicalizes exactly like Execute when ServiceOptions::parameterize
  /// is on, so the prediction matches the key requests actually use.
  Fingerprint FingerprintFor(const plan::Query& q) const {
    return FingerprintFor(q, opts_.engine);
  }
  Fingerprint FingerprintFor(const plan::Query& q,
                             const engine::EngineOptions& eopts) const {
    if (!opts_.parameterize) return FingerprintQuery(q, eopts, db_);
    return FingerprintQuery(ParameterizeQuery(q, eopts.use_dict).query,
                            eopts, db_);
  }

  ServiceStats Stats() const;

  /// One swept codegen-flavor sweep (see ServiceOptions::explore).
  struct ExploreOutcome {
    bool ran = false;  // false: every candidate build failed (no winner)
    engine::Flavor flavor = engine::Flavor::kDataCentric;
    uint64_t blend = 0;
    double best_ms = 0.0;  // winner's warm exec time
    int sites = 0;         // vectorizable scan→filter sites in the shape
    int candidates = 0;    // flavors built + timed
    std::string report;    // one line per candidate, for shells/admin
  };

  /// Sweeps the codegen-flavor candidates for `q`'s shape with the
  /// service's default engine options, records the winner (memory +
  /// cache_dir sidecar), and returns the sweep. Subsequent Execute calls
  /// for the same shape are served under the winner automatically. Safe
  /// from any thread; concurrent sweeps of the same shape single-flight.
  ExploreOutcome ExploreFlavors(const plan::Query& q);

  /// The recorded winner for `q`'s shape, if any (memory or sidecar).
  bool WinnerFor(const plan::Query& q, engine::Flavor* flavor,
                 uint64_t* blend);

  /// Prometheus text exposition: the service's histogram registry (request
  /// latency by path, admission wait, disk-tier I/O — present when
  /// ServiceOptions::metrics is on) followed by every ServiceStats counter
  /// as an `lb2_*` metric. Safe to call from any thread at any time.
  std::string MetricsPrometheus() const;
  /// Same data as a JSON object: {"metrics": [...], "stats": {...}}.
  std::string MetricsJson() const;

  /// Blocks until no background build (switch build or repair) is running
  /// (tests; graceful drains). Returns immediately when none is.
  void DrainBackground();

  /// Irreversibly puts the service into drain mode: every subsequent
  /// Execute sheds immediately with Status::kBusy (counted as drain_sheds)
  /// and no new background rebuilds are accepted; requests already past
  /// admission finish normally. A network front end calls this when it
  /// stops reading new work, then DrainBackground(), then destroys the
  /// service — nothing in flight is ever abandoned.
  void BeginDrain() { draining_.store(true, std::memory_order_relaxed); }
  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  const QueryCache& cache() const { return cache_; }
  /// The persistent artifact tier, or null when `cache_dir` is empty.
  const ArtifactStore* artifact_store() const { return store_.get(); }
  const rt::Database& db() const { return db_; }
  const ServiceOptions& options() const { return opts_; }
  /// The execution-slot gate. Exposed so callers (tests, drainers) can
  /// occupy or inspect slots deterministically; normal requests go through
  /// Execute, which admits and releases around the whole request.
  AdmissionGate* admission() { return &gate_; }

  ~QueryService();

 private:
  /// One build in flight: every compile of a fingerprint — a cold leader's,
  /// a switch build, an explorer candidate, a drift or breaker repair — is
  /// one of these in `inflight_`. JoinOrStartLocked is the only place one
  /// starts and Publish the only place one ends; whoever joins instead
  /// serves interpreted, or (the explorer, a faulted switch) waits on `cv`.
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    CacheEntryPtr entry;  // null if the build failed
    std::string error;
    /// Lock-free "an entry landed" flag, set (release) after entry is
    /// written and never on failure: the morsel interpreter's stop poll
    /// reads it before every claim, and a mutex there would serialize the
    /// whole prefix.
    std::atomic<bool> ready{false};
    /// Build span subtree recorded by a background build thread; grafted
    /// into the request's span list when the request actually switches.
    obs::SpanList build_spans;
    bool from_disk = false;
  };

  /// `params` (nullable) is the literal vector extracted by request
  /// canonicalization; it is bound into the execution context (compiled) or
  /// the interpreter backend and must outlive the call — Execute keeps it
  /// on its own stack frame.
  ServiceResult RunCompiled(const CacheEntryPtr& entry,
                            ServiceResult::Path path, const Fingerprint& fp,
                            const plan::ParamVec* params,
                            obs::SpanList* spans);
  /// One compiled execution off a fresh dispenser of at most morsel_rows
  /// rows per morsel (CompiledQuery::MorselRows) — what every compiled
  /// request, and every explorer timing, runs.
  compile::CompiledQuery::RunResult RunEntry(
      const compile::CompiledQuery& query, const plan::ParamVec* params) const;
  ServiceResult RunInterp(const plan::Query& q,
                          const engine::EngineOptions& eopts,
                          const Fingerprint& fp,
                          const plan::ParamVec* params,
                          std::string compile_error, obs::SpanList* spans);
  /// The cold-leader body under ServiceOptions::midquery_switch for a plan
  /// with a spine: builds `flight` in the background, runs the interpreted
  /// prefix over the shared dispenser, and either returns the interpreter's
  /// complete answer (the build keeps running; the cache warms behind the
  /// reply) or seals the seed and finishes on the compiled entry.
  /// LB2_SWITCH_AT=<k> is the differential harness's forced mode: build
  /// inline, then stop the interpreter at exactly morsel boundary k — if
  /// the build produced an entry.
  ServiceResult RunMorselSwitch(const plan::Query& q,
                                const engine::EngineOptions& eopts,
                                const Fingerprint& fp,
                                const plan::ParamVec* params,
                                obs::SpanList* spans,
                                const std::shared_ptr<InFlight>& flight);
  ServiceResult ExecuteAdmitted(const plan::Query& q,
                                const engine::EngineOptions& eopts,
                                const Fingerprint& fp,
                                const plan::ParamVec* params,
                                obs::SpanList* spans);

  /// Produces (and caches, and persists) the compiled entry for `fp`: with
  /// the disk tier on, stages the query, probes the artifact store, and
  /// either loads the verified artifact (fast path) or compiles and writes
  /// it back; without the disk tier, plain JIT. Returns null (with *error)
  /// on compile failure. Runs only inside a flight its caller started;
  /// updates compile/disk stats, the shape index and the breaker.
  CacheEntryPtr BuildEntry(const plan::Query& q,
                           const engine::EngineOptions& eopts,
                           const Fingerprint& fp, std::string* error,
                           bool* from_disk, obs::SpanList* spans);

  /// Called with mu_ held: the flight building `fp`, started when none is.
  /// *started = true hands the caller the duty to build it and end it with
  /// Publish.
  std::shared_ptr<InFlight> JoinOrStartLocked(const Fingerprint& fp,
                                              bool* started);
  /// Ends `flight`: retires it from the table, records the outcome, raises
  /// `ready` when there is an entry and wakes every waiter. `spans` is a
  /// background build's subtree, kept for a switching request to graft.
  void Publish(const Fingerprint& fp, const std::shared_ptr<InFlight>& flight,
               CacheEntryPtr entry, std::string error, bool from_disk,
               obs::SpanList spans);
  /// Builds and publishes `flight` on a detached thread that no request
  /// waits on, counted in bg_builds_. A repair (drift or breaker) runs at
  /// nice 10 and first passes the drift_rebuild fault point.
  void BuildInBackground(const plan::Query& q,
                         const engine::EngineOptions& eopts,
                         const Fingerprint& fp,
                         std::shared_ptr<InFlight> flight, bool repair);

  /// A recorded explorer winner for one plan shape.
  struct FlavorWinner {
    engine::Flavor flavor = engine::Flavor::kDataCentric;
    uint64_t blend = 0;
    double best_ms = 0.0;
  };

  /// Flavor-neutral shape key: the fingerprint shape with flavor/blend
  /// pinned to data-centric, so every flavor of one plan shares one winner
  /// slot.
  uint64_t NeutralShape(const plan::Query& q,
                        const engine::EngineOptions& eopts) const;
  /// Winner lookup: memory first, then (once per shape) the cache_dir
  /// sidecar.
  bool LookupWinner(uint64_t nshape, FlavorWinner* w);
  /// Records `w` in memory and best-effort persists the sidecar.
  void RecordWinner(uint64_t nshape, const FlavorWinner& w);
  std::string WinnerSidecarPath(uint64_t nshape) const;
  /// The sweep body behind ExploreFlavors and explore-on-first-compile.
  ExploreOutcome ExploreShape(const plan::Query& q,
                              const engine::EngineOptions& eopts,
                              uint64_t nshape, const plan::ParamVec* params);
  /// Folds one profiled run's per-operator counters into the lb2_op_ns
  /// histogram family (S1: per-operator latency distributions).
  void ObserveOpProfile(const std::vector<engine::ProfOpMeta>& nodes,
                        const std::vector<int64_t>& counters);

  const rt::Database& db_;
  const ServiceOptions opts_;
  QueryCache cache_;
  AdmissionGate gate_;
  std::unique_ptr<ArtifactStore> store_;  // null = disk tier off

  mutable std::mutex mu_;  // guards inflight_, shape_to_key_, breaker state
  /// The single-flight table: fingerprint hash -> its build in flight.
  std::unordered_map<uint64_t, std::shared_ptr<InFlight>> inflight_;
  /// shape component -> combined key of the entry last built for it. A
  /// miss whose shape is present under a different key is database drift.
  std::unordered_map<uint64_t, uint64_t> shape_to_key_;
  /// Consecutive compile failures per fingerprint (retries already
  /// exhausted when this bumps); reset by the first successful build.
  std::unordered_map<uint64_t, int> cc_fail_streak_;
  /// Fingerprints whose circuit breaker is open: requests are served
  /// interpreted without attempting a foreground compile, while a
  /// background repair retries.
  std::unordered_set<uint64_t> breaker_open_;
  /// Explorer state, all guarded by mu_: recorded winners by neutral shape,
  /// shapes whose sidecar was already probed (negative caching), and shapes
  /// with a sweep in flight (single-flight; losers serve their request with
  /// the caller's flavor and pick the winner up next time).
  std::unordered_map<uint64_t, FlavorWinner> winners_;
  std::unordered_set<uint64_t> winner_probed_;
  std::unordered_set<uint64_t> exploring_;

  /// The `own` rows of LB2_SERVICE_STATS. Mutations are relaxed atomic adds
  /// off every mutex — the warm hit path touches no lock for stats; Stats()
  /// loads these and reads the `pull` rows from their owners.
  struct StatCounters {
    LB2_SERVICE_STATS(LB2_STAT_ATOMIC)
  };
  StatCounters stats_;
  std::atomic<bool> draining_{false};
  /// Request counter driving prof_sample_every's "every Nth" selection.
  std::atomic<int64_t> prof_tick_{0};
  /// True once any winner is recorded — lets Execute skip the neutral-shape
  /// hash and mu_ hop entirely when the explorer has never been used.
  std::atomic<bool> winners_present_{false};

  /// Per-service metric registry (per-service so tests that spin up many
  /// services keep isolated counters). Histograms are registered in the
  /// constructor when opts_.metrics is on; the pointers below are stable
  /// for the service's lifetime and null when metrics are off.
  obs::Registry metrics_;
  obs::Histogram* lat_hist_[4] = {};  // indexed by ServiceResult::Path
  obs::Histogram* queue_wait_hist_ = nullptr;

  // Background builds running on detached threads. Each owns copies of its
  // inputs but touches the cache, the store and the stats, so the
  // destructor (and DrainBackground) must outwait them.
  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  int bg_builds_ = 0;
};

}  // namespace lb2::service

#endif  // LB2_SERVICE_SERVICE_H_
