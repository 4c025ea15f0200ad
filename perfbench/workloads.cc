#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <mutex>
#include <set>
#include <thread>

#include "compile/lb2_compiler.h"
#include "engine/exec.h"
#include "engine/morsel.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "service/fingerprint.h"
#include "service/service.h"
#include "sql/sql.h"
#include "tpch/answers.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/str.h"
#include "util/time.h"
#include "volcano/volcano.h"

namespace perfbench {

namespace compile = lb2::compile;
namespace engine = lb2::engine;
namespace net = lb2::net;
namespace plan = lb2::plan;
namespace rt = lb2::rt;
namespace service = lb2::service;
using lb2::NowNs;

void Window::Merge(const Window& o) {
  latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                    o.latency_ms.end());
  attempted += o.attempted;
  failed += o.failed;
  requests += o.requests;
  hits += o.hits;
  compiles += o.compiles;
  interp += o.interp;
  cc_retries += o.cc_retries;
  shapes += o.shapes;
  stalls += o.stalls;
  responses += o.responses;
  resp_bytes += o.resp_bytes;
  for (const auto& [k, v] : o.derived) {
    derived[k].insert(derived[k].end(), v.begin(), v.end());
  }
}

namespace {

constexpr uint64_t kDbSeed = 42;

std::string QLabel(int q) { return "q" + std::to_string(q); }

double MsSince(int64_t t0) { return static_cast<double>(NowNs() - t0) / 1e6; }

/// Each workload draws from its own stream of the run's seed.
lb2::Rng WorkloadRng(uint64_t seed, const std::string& workload, int stream) {
  return lb2::Rng(seed * 0x100000001b3ULL ^ service::FnvHash(workload) ^
                  static_cast<uint64_t>(stream));
}

template <typename T>
void Shuffle(std::vector<T>* v, lb2::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    size_t j = static_cast<size_t>(rng->Uniform(0, static_cast<int64_t>(i) - 1));
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

/// fn(0..n-1) on up to four threads (set-up work only; never timed per
/// call).
void ParallelFor(int n, const std::function<void(int)>& fn) {
  std::atomic<int> next{0};
  int threads = std::min(n, 4);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (int i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

/// Default options with the disk tier pinned off. The caller has cleared
/// every LB2_* knob, so the rest are the code defaults.
service::ServiceOptions PinnedOptions() {
  service::ServiceOptions o;
  o.cache_dir = "";
  return o;
}

/// Prints the first few failures of a run, naming workload and query.
void ReportFailure(const char* workload, const std::string& what,
                   const std::string& detail) {
  static std::atomic<int> printed{0};
  if (printed.fetch_add(1) < 10) {
    std::printf("FAILED %s %s: %s\n", workload, what.c_str(), detail.c_str());
  }
}

/// Books one service response: latency, status and the oracle verdict.
void Record(Window* w, const char* workload, const std::string& label,
            Oracle* oracle, const service::ServiceResult& r, int64_t begin,
            int64_t end) {
  ++w->attempted;
  w->latency_ms.push_back(static_cast<double>(end - begin) / 1e6);
  std::string diff = r.status == service::ServiceResult::Status::kOk
                         ? oracle->Check(label, r.text)
                         : "BUSY";
  if (!diff.empty()) {
    ++w->failed;
    ReportFailure(workload, label, diff);
  }
}

/// Wall time and process CPU of one window, from construction to Stop.
class WindowClock {
 public:
  WindowClock() : t0_(NowNs()), cpu0_(ProcessCpuMs()) {}
  double elapsed_s() const {
    return static_cast<double>(NowNs() - t0_) / 1e9;
  }
  void Stop(Window* w) const {
    w->seconds = elapsed_s();
    w->cpu_ms = ProcessCpuMs() - cpu0_;
  }

 private:
  int64_t t0_;
  double cpu0_;
};

void AddStats(Window* w, const service::ServiceStats& before,
              const service::ServiceStats& after) {
  w->requests += after.requests - before.requests;
  w->hits += after.hits - before.hits;
  w->compiles += after.compiles - before.compiles;
  w->interp += after.interp_while_compiling - before.interp_while_compiling;
  w->cc_retries += after.cc_retries - before.cc_retries;
}

/// The compiled entry the service serves `fp` from. QueryService exposes
/// its cache read-only; Get only bumps the LRU order, under the cache's
/// own lock.
service::CacheEntryPtr CachedEntry(const service::QueryService& svc,
                                   const service::Fingerprint& fp) {
  return const_cast<service::QueryCache&>(svc.cache()).Get(fp);
}

/// CompiledQuery::Run with the arguments QueryService passes: bound params
/// (or none) and a fresh morsel dispenser when morsels are on.
compile::CompiledQuery::RunResult RunLikeService(
    const compile::CompiledQuery& cq, const plan::ParamVec* params,
    int64_t morsel_rows) {
  if (morsel_rows > 0) {
    engine::MorselRun run(morsel_rows);
    return cq.Run(params, &run.source);
  }
  return cq.Run(params);
}

/// Sibling spans of one traced request: each layer call the benchmark
/// repeats on the request's input gets a span under the request's id.
struct RequestTrace {
  SpanLog* log;
  const char* workload;
  std::string label;
  int64_t request;

  double End(const char* name, int64_t begin) const {
    Span s{workload, name, label, request, -1, begin, NowNs()};
    double us = s.us();
    log->Add(std::move(s));
    return us;
  }
};

/// The literals a request's plan binds, as QueryService::Execute passes
/// them: null when canonicalization hoisted nothing.
const plan::ParamVec* BoundParams(const service::ParameterizedQuery& pq) {
  return pq.params.empty() ? nullptr : &pq.params;
}

// --- TPC-H ---------------------------------------------------------------

class TpchBase : public Workload {
 protected:
  /// `ids`: every plan the workload runs, each checked by the oracle.
  TpchBase(const RunConfig& cfg, std::vector<int> ids)
      : cfg_(cfg), ids_(std::move(ids)) {}

  double sf() const { return cfg_.smoke ? kTpchSf / 5 : kTpchSf; }
  const plan::Query& plan(int q) const {
    return plans_[static_cast<size_t>(q - 1)];
  }

  /// Generates the database; returns the seconds it took. The first call
  /// also builds the plans and computes the oracle answers, untimed.
  double Generate() {
    db_ = std::make_unique<rt::Database>();
    int64_t t0 = NowNs();
    lb2::tpch::Generate(sf(), kDbSeed, db_.get());
    double ms = MsSince(t0);
    generate_ms_.push_back(ms);
    if (plans_.empty()) {
      lb2::tpch::QueryOptions qo;
      qo.scale_factor = sf();
      for (int q = 1; q <= lb2::tpch::NumQueries(); ++q) {
        plans_.push_back(lb2::tpch::BuildQuery(q, qo));
      }
      std::vector<std::string> answers(ids_.size());
      ParallelFor(static_cast<int>(ids_.size()), [&](int i) {
        answers[static_cast<size_t>(i)] =
            lb2::volcano::Execute(plan(ids_[static_cast<size_t>(i)]), *db_);
      });
      for (size_t i = 0; i < ids_.size(); ++i) {
        int q = ids_[i];
        oracle_.Expect(QLabel(q), std::move(answers[i]),
                       lb2::tpch::OrderSensitive(plan(q)));
      }
      ResetPeakRss();
    }
    return ms / 1e3;
  }

  RunConfig cfg_;
  std::vector<int> ids_;
  std::unique_ptr<rt::Database> db_;
  std::vector<plan::Query> plans_;
  Oracle oracle_;
};

bool Excluded(int q) {
  return std::find(kExcludedQueries.begin(), kExcludedQueries.end(), q) !=
         kExcludedQueries.end();
}

std::vector<int> AllQueries() {
  std::vector<int> v;
  for (int q = 1; q <= lb2::tpch::NumQueries(); ++q) v.push_back(q);
  return v;
}

/// tpch_warm and tpch_par: one client walks seeded permutations of the
/// mix through a warm QueryService, so every request is a cache hit. Set-up
/// compiles every plan in `warm_ids`, which may hold plans kept out of the
/// mix.
class TpchWarm : public TpchBase {
 public:
  TpchWarm(const RunConfig& cfg, const char* name, std::vector<int> warm_ids,
           std::vector<int> mix, int threads)
      : TpchBase(cfg, std::move(warm_ids)),
        name_(name),
        mix_(std::move(mix)),
        threads_(threads),
        rng_(WorkloadRng(cfg.seed, name, 0)) {}

  double Setup() override {
    double seconds = Generate();
    int64_t t0 = NowNs();
    service::ServiceOptions opts = PinnedOptions();
    opts.engine.num_threads = threads_;
    svc_ = std::make_unique<service::QueryService>(*db_, opts);
    // Warm-up compiles run side by side: each plan is its own shape, so
    // every request here is a leader paying stage + cc + dlopen.
    std::vector<service::ServiceResult> res(ids_.size());
    ParallelFor(static_cast<int>(ids_.size()), [&](int i) {
      res[static_cast<size_t>(i)] =
          svc_->Execute(plan(ids_[static_cast<size_t>(i)]));
    });
    // One sequential pass more, so the timed window does not pay each
    // artifact's first-run page faults.
    for (int q : mix_) svc_->Execute(plan(q));
    seconds += MsSince(t0) / 1e3;
    excluded_mismatches_ = 0;
    for (size_t i = 0; i < ids_.size(); ++i) {
      int q = ids_[i];
      std::string diff = oracle_.Check(QLabel(q), res[i].text);
      if (Excluded(q) && !diff.empty()) {
        ++excluded_mismatches_;
        std::printf("note: %s Q%d is kept out of the timed mix; the service "
                    "still answers it wrong: %s\n",
                    name_, q, diff.c_str());
      } else if (Excluded(q)) {
        std::printf("note: %s Q%d now matches the oracle and can rejoin the "
                    "timed mix\n", name_, q);
      } else if (!diff.empty()) {
        std::printf("warm-up: %s Q%d differs from the oracle: %s\n", name_,
                    q, diff.c_str());
      }
    }
    return seconds;
  }

  void Teardown() override {
    svc_.reset();
    db_.reset();
  }

  Window Measure(double seconds, SpanLog* log) override {
    Window w;
    std::vector<int> order = mix_;
    const service::ServiceStats before = svc_->Stats();
    const WindowClock clock;
    do {
      Shuffle(&order, &rng_);
      for (int q : order) {
        int64_t b = NowNs();
        service::ServiceResult r = svc_->Execute(plan(q));
        int64_t e = NowNs();
        Record(&w, name_, QLabel(q), &oracle_, r, b, e);
        if (log != nullptr) Trace(log, q, b, e);
      }
    } while (clock.elapsed_s() < seconds);
    clock.Stop(&w);
    AddStats(&w, before, svc_->Stats());
    w.shapes = static_cast<int64_t>(mix_.size());
    return w;
  }

  void Probe(std::map<std::string, double>* out) override {
    (*out)["service.excluded_mismatches"] +=
        static_cast<double>(excluded_mismatches_);
    if (std::string(name_) == "tpch_warm") {
      (*out)["service.param_slowdown"] = ParamSlowdown();
    }
  }

 private:
  /// Repeats the request's path: canonicalize, fingerprint, then Run the
  /// entry the service just served with the same bound params.
  void Trace(SpanLog* log, int q, int64_t begin, int64_t end) {
    RequestTrace t{log, name_, QLabel(q), log->NewRequest()};
    log->Add({name_, "request", t.label, t.request, -1, begin, end});
    const engine::EngineOptions& eopts = svc_->options().engine;
    int64_t b = NowNs();
    service::ParameterizedQuery pq =
        service::ParameterizeQuery(plan(q), eopts.use_dict);
    t.End("service.parameterize", b);
    b = NowNs();
    service::Fingerprint fp = service::FingerprintQuery(pq.query, eopts, *db_);
    t.End("service.fingerprint", b);
    service::CacheEntryPtr entry = CachedEntry(*svc_, fp);
    LB2_CHECK_MSG(entry != nullptr, "traced request's entry is not cached");
    b = NowNs();
    RunLikeService(entry->query, BoundParams(pq), svc_->options().morsel_rows);
    t.End("engine.run", b);
  }

  /// Geomean over the timed mix of Run time with the service's
  /// parameterized artifact and bound params, divided by Run time of a
  /// build with the literals baked in. Runs alternate, five each.
  double ParamSlowdown() {
    const engine::EngineOptions& eopts = svc_->options().engine;
    const int64_t morsel_rows = svc_->options().morsel_rows;
    std::vector<std::unique_ptr<compile::CompiledQuery>> baked(mix_.size());
    ParallelFor(static_cast<int>(mix_.size()), [&](int i) {
      const plan::Query& q = plan(mix_[static_cast<size_t>(i)]);
      std::string error;
      baked[static_cast<size_t>(i)] = compile::TryCompileStaged(
          compile::StageQuery(q, *db_, eopts), *db_, "perfbench_baked",
          &error);
      LB2_CHECK_MSG(baked[static_cast<size_t>(i)] != nullptr, error.c_str());
    });
    std::vector<double> ratios;
    for (size_t i = 0; i < mix_.size(); ++i) {
      service::ParameterizedQuery pq =
          service::ParameterizeQuery(plan(mix_[i]), eopts.use_dict);
      service::CacheEntryPtr entry =
          CachedEntry(*svc_, service::FingerprintQuery(pq.query, eopts, *db_));
      LB2_CHECK_MSG(entry != nullptr, "warm entry missing from the cache");
      std::vector<double> with_params, with_literals;
      for (int k = 0; k < 5; ++k) {
        int64_t b = NowNs();
        RunLikeService(entry->query, BoundParams(pq), morsel_rows);
        with_params.push_back(MsSince(b));
        b = NowNs();
        RunLikeService(*baked[i], nullptr, morsel_rows);
        with_literals.push_back(MsSince(b));
      }
      ratios.push_back(Median(with_params) / Median(with_literals));
    }
    return Geomean(ratios);
  }

  const char* name_;
  std::vector<int> mix_;
  int threads_;
  lb2::Rng rng_;
  std::unique_ptr<service::QueryService> svc_;
  int64_t excluded_mismatches_ = 0;
};

/// Two client threads that send one request to a service together, as
/// tpch_cold's clients do for each shape: one leads the compile, the other
/// follows it.
class ClientPair {
 public:
  struct Reply {
    service::ServiceResult r;
    int64_t begin = 0;
    int64_t end = 0;
  };
  /// Runs on a client's thread once its reply is in.
  using After = std::function<void(int client, const service::ServiceResult&)>;

  ClientPair() {
    for (int c = 0; c < 2; ++c) {
      threads_[c] = std::thread([this, c] { Loop(c); });
    }
  }
  ~ClientPair() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  ClientPair(const ClientPair&) = delete;
  ClientPair& operator=(const ClientPair&) = delete;

  /// Releases both clients with `q` on `svc`; returns once both replied.
  void Serve(service::QueryService* svc, const plan::Query& q, After after) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      svc_ = svc;
      query_ = &q;
      after_ = std::move(after);
      done_ = 0;
      ++generation_;
    }
    cv_.notify_all();
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_ == 2; });
  }
  const Reply& reply(int c) const { return reply_[c]; }

 private:
  void Loop(int c) {
    int64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
      }
      Reply& out = reply_[c];
      out.begin = NowNs();
      out.r = svc_->Execute(*query_);
      out.end = NowNs();
      if (after_) after_(c, out.r);
      std::lock_guard<std::mutex> lock(mu_);
      ++done_;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  int64_t generation_ = 0;
  int done_ = 0;
  bool stop_ = false;
  service::QueryService* svc_ = nullptr;
  const plan::Query* query_ = nullptr;
  After after_;
  Reply reply_[2];
  std::thread threads_[2];
};

/// tpch_cold: every request is the first of its shape in a fresh service.
/// Two clients are released together per shape: the leader pays stage, cc
/// and dlopen; under WhileCompiling::kInterpret the follower is answered
/// by the interpreter meanwhile.
class TpchCold : public TpchBase {
 public:
  explicit TpchCold(const RunConfig& cfg)
      : TpchBase(cfg, AllQueries()),
        rng_(WorkloadRng(cfg.seed, "tpch_cold", 0)) {}

  double Setup() override { return Generate(); }

  void Teardown() override { db_.reset(); }

  Window Measure(double seconds, SpanLog* log) override {
    Window w;
    Window traced[2];
    int64_t request[2] = {0, 0};
    ClientPair clients;
    std::vector<int> order = TimedQueries();
    const WindowClock clock;
    // A window is whole passes over the shapes, which differ too much in
    // cost for part of a pass to compare. One pass outlasts a 10 s window;
    // a zero-length window (the traced run) is exactly one pass.
    do {
      Shuffle(&order, &rng_);
      for (int q : order) {
        service::QueryService svc(*db_, PinnedOptions());
        if (log != nullptr) {
          request[0] = log->NewRequest();
          request[1] = log->NewRequest();
        }
        clients.Serve(&svc, plan(q),
                      [&](int c, const service::ServiceResult& r) {
                        if (log != nullptr) {
                          Trace(log, q, request[c], r.path, &traced[c]);
                        }
                      });
        for (int c = 0; c < 2; ++c) {
          const ClientPair::Reply& rep = clients.reply(c);
          Record(&w, "tpch_cold", QLabel(q), &oracle_, rep.r, rep.begin,
                 rep.end);
          if (log != nullptr) {
            log->Add({"tpch_cold", "request", QLabel(q), request[c], -1,
                      rep.begin, rep.end});
          }
        }
        AddStats(&w, service::ServiceStats(), svc.Stats());
        ++w.shapes;
      }
    } while (clock.elapsed_s() < seconds);
    clock.Stop(&w);
    w.Merge(traced[0]);
    w.Merge(traced[1]);
    return w;
  }

  /// Serves each plan kept out of the timed mix the way Measure serves a
  /// shape, and counts the answers that differ from the oracle: the
  /// leader's compiled one and the follower's interpreted one.
  void Probe(std::map<std::string, double>* out) override {
    ClientPair clients;
    int64_t mismatches = 0;
    for (int q : kExcludedQueries) {
      service::QueryService svc(*db_, PinnedOptions());
      clients.Serve(&svc, plan(q), nullptr);
      for (int c = 0; c < 2; ++c) {
        const service::ServiceResult& r = clients.reply(c).r;
        std::string diff = oracle_.Check(QLabel(q), r.text);
        if (diff.empty()) continue;
        ++mismatches;
        std::printf("note: tpch_cold Q%d is kept out of the timed mix; its "
                    "%s answer is still wrong: %s\n",
                    q, service::PathName(r.path), diff.c_str());
      }
    }
    (*out)["service.excluded_mismatches"] += static_cast<double>(mismatches);
  }

 private:
  /// Repeats the request's path on its input: canonicalize and
  /// fingerprint, then stage + cc for the leader, or the interpreter for a
  /// follower. Both clients do this at once, as their requests ran.
  void Trace(SpanLog* log, int q, int64_t request, service::ServiceResult::Path path,
             Window* w) {
    RequestTrace t{log, "tpch_cold", QLabel(q), request};
    const engine::EngineOptions eopts = PinnedOptions().engine;
    int64_t b = NowNs();
    service::ParameterizedQuery pq =
        service::ParameterizeQuery(plan(q), eopts.use_dict);
    t.End("service.parameterize", b);
    b = NowNs();
    service::FingerprintQuery(pq.query, eopts, *db_);
    t.End("service.fingerprint", b);
    if (path == service::ServiceResult::Path::kCompiledCold) {
      b = NowNs();
      compile::StagedQuery staged = compile::StageQuery(pq.query, *db_, eopts);
      t.End("compile.stage", b);
      w->derived["compile.c_bytes"].push_back(
          static_cast<double>(staged.source.size()));
      std::string error;
      const double child0 = ChildCpuMs();
      b = NowNs();
      auto cq = compile::TryCompileStaged(staged, *db_, "perfbench_cold", &error);
      t.End("compile.cc", b);
      w->derived["compile.cc_cpu_ms"].push_back(ChildCpuMs() - child0);
      LB2_CHECK_MSG(cq != nullptr, error.c_str());
    } else if (path == service::ServiceResult::Path::kInterpreted) {
      engine::EngineOptions iopts = eopts;
      iopts.num_threads = 1;
      b = NowNs();
      engine::ExecuteInterp(pq.query, *db_, iopts, BoundParams(pq));
      t.End("engine.interp", b);
    }
  }

  lb2::Rng rng_;
};

// --- serve_mix -----------------------------------------------------------

/// The serve_mix statements follow bench/bench_net_load.cc's mix: its
/// four short lineitem scans and aggregates, the supplier-nation group-by,
/// and an 8-member same-shape family (one artifact serves it) whose
/// literals are drawn from the seed within the ranges bench_net_load uses.
/// The 25-row nation lookup takes the place of its orders group-by, so one
/// statement is almost all fixed per-request cost.
std::vector<std::string> ServeStatements(uint64_t seed) {
  std::vector<std::string> s = {
      "select l_returnflag, count(*) as n, sum(l_extendedprice) as rev "
      "from lineitem where l_returnflag = 'A' group by l_returnflag",
      "select l_returnflag, count(*) as n, sum(l_extendedprice) as rev "
      "from lineitem where l_returnflag = 'R' group by l_returnflag",
      "select sum(l_extendedprice * l_discount) as rev from lineitem "
      "where l_quantity < 24",
      "select sum(l_extendedprice * l_discount) as rev from lineitem "
      "where l_quantity < 45",
      "select n_name, count(*) as suppliers from supplier, nation "
      "where s_nationkey = n_nationkey group by n_name "
      "order by suppliers desc, n_name",
      "select n_nationkey, n_name, n_regionkey from nation "
      "order by n_nationkey",
  };
  lb2::Rng rng = WorkloadRng(seed, "serve_mix", 0);
  for (int i = 0; i < 8; ++i) {
    s.push_back(lb2::StrPrintf(
        "select count(*) as n, sum(l_extendedprice) as rev from lineitem "
        "where l_quantity < %d and l_discount < %.2f",
        static_cast<int>(rng.Uniform(7, 42)),
        static_cast<double>(rng.Uniform(1, 8)) / 100.0));
  }
  return s;
}

/// serve_mix: an in-process NetServer with two workers on loopback. Two
/// BlockingClient connections each keep one request outstanding, and each
/// request is one of the statements, drawn uniformly.
class ServeMix : public Workload {
 public:
  explicit ServeMix(const RunConfig& cfg)
      : cfg_(cfg), statements_(ServeStatements(cfg.seed)) {}

  double Setup() override {
    db_ = std::make_unique<rt::Database>();
    int64_t t0 = NowNs();
    lb2::tpch::Generate(cfg_.smoke ? kServeSf / 2 : kServeSf, kDbSeed,
                        db_.get());
    generate_ms_.push_back(MsSince(t0));
    double seconds = generate_ms_.back() / 1e3;
    if (!have_oracle_) {
      // Each statement is parsed once, here, and its plan answered by
      // Volcano.
      std::vector<plan::Query> plans(statements_.size());
      for (size_t i = 0; i < statements_.size(); ++i) {
        std::string error;
        LB2_CHECK_MSG(lb2::sql::ParseQueryOrError(statements_[i], *db_,
                                                  &plans[i], &error),
                      error.c_str());
      }
      std::vector<std::string> answers(plans.size());
      ParallelFor(static_cast<int>(plans.size()), [&](int i) {
        answers[static_cast<size_t>(i)] =
            lb2::volcano::Execute(plans[static_cast<size_t>(i)], *db_);
      });
      std::set<uint64_t> shapes;
      for (size_t i = 0; i < plans.size(); ++i) {
        oracle_.Expect(Label(i), std::move(answers[i]),
                       lb2::tpch::OrderSensitive(plans[i]));
        const engine::EngineOptions eopts = PinnedOptions().engine;
        shapes.insert(service::FingerprintQuery(
                          service::ParameterizeQuery(plans[i], eopts.use_dict)
                              .query,
                          eopts, *db_)
                          .shape);
      }
      shapes_ = static_cast<int64_t>(shapes.size());
      have_oracle_ = true;
      ResetPeakRss();
    }
    t0 = NowNs();
    svc_ = std::make_unique<service::QueryService>(*db_, PinnedOptions());
    net::NetOptions nopts;
    nopts.num_workers = 2;
    server_ = std::make_unique<net::NetServer>(svc_.get(), nopts);
    std::string error;
    LB2_CHECK_MSG(server_->Start(&error), error.c_str());
    for (net::BlockingClient& c : clients_) {
      LB2_CHECK_MSG(c.Connect(nopts.host, server_->port(), &error),
                    error.c_str());
    }
    // Warm-up: every statement once, split over both connections, so the
    // timed window sees only cache hits.
    Window warm[2];
    std::thread t([&] { WarmUp(1, &warm[1]); });
    WarmUp(0, &warm[0]);
    t.join();
    seconds += MsSince(t0) / 1e3;
    const int64_t failed = warm[0].failed + warm[1].failed;
    if (failed > 0) {
      std::printf("warm-up: serve_mix had %lld failed requests\n",
                  static_cast<long long>(failed));
    }
    return seconds;
  }

  void Teardown() override {
    for (net::BlockingClient& c : clients_) c.Close();
    server_.reset();  // drains, then joins its threads
    svc_.reset();
    db_.reset();
  }

  Window Measure(double seconds, SpanLog* log) override {
    Window w;
    Window part[2];
    const service::ServiceStats before = svc_->Stats();
    const net::NetStats nbefore = server_->stats();
    const WindowClock clock;
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    // Each window draws fresh statement streams, one per connection.
    const int stream = 1 + 2 * windows_++;
    std::thread other([&] { Client(1, stream + 1, deadline, log, &part[1]); });
    Client(0, stream, deadline, log, &part[0]);
    other.join();
    clock.Stop(&w);
    w.Merge(part[0]);
    w.Merge(part[1]);
    AddStats(&w, before, svc_->Stats());
    w.stalls = server_->stats().backpressure_stalls - nbefore.backpressure_stalls;
    w.shapes = shapes_;
    return w;
  }

 private:
  static std::string Label(size_t i) { return "s" + std::to_string(i); }

  /// When one request was sent and answered, as its client saw it.
  struct Sent {
    int64_t begin_ns = 0;
    int64_t end_ns = 0;
    bool ok = false;
  };

  /// One round trip, booked in *w: the attempt, its latency and response
  /// bytes when an answer came, and the oracle's verdict. The RESULT
  /// payload lands in *rp when one came.
  Sent RoundTrip(int c, size_t stmt, Window* w, net::ResultPayload* rp,
                 net::Frame* f) {
    net::BlockingClient& client = clients_[static_cast<size_t>(c)];
    const uint64_t id = ++next_id_[c];
    Sent out;
    out.begin_ns = NowNs();
    std::string failure;
    net::BlockingClient::ReadStatus st = net::BlockingClient::ReadStatus::kError;
    if (client.SendQuery(id, statements_[stmt])) st = client.ReadFrame(f, 30000);
    out.end_ns = NowNs();
    ++w->attempted;
    if (st != net::BlockingClient::ReadStatus::kFrame) {
      failure = "no response: " + client.error();
    } else {
      w->latency_ms.push_back(static_cast<double>(out.end_ns - out.begin_ns) /
                              1e6);
      ++w->responses;
      w->resp_bytes += static_cast<int64_t>(net::FrameHeaderBytes(f->version) +
                                            f->payload.size());
      if (f->request_id != id) {
        failure = "response for another request id";
      } else if (f->type != net::FrameType::kResult) {
        failure = std::string(net::FrameTypeName(f->type)) + " frame: " +
                  f->payload;
      } else if (!net::DecodeResultPayload(f->payload, rp)) {
        failure = "malformed RESULT payload";
      } else {
        failure = oracle_.Check(Label(stmt), rp->text);
      }
    }
    out.ok = failure.empty();
    if (!out.ok) {
      ++w->failed;
      ReportFailure("serve_mix", Label(stmt), failure);
    }
    return out;
  }

  /// Sends every other statement once.
  void WarmUp(int c, Window* w) {
    for (size_t s = static_cast<size_t>(c); s < statements_.size(); s += 2) {
      net::ResultPayload rp;
      net::Frame f;
      RoundTrip(c, s, w, &rp, &f);
    }
  }

  void Client(int c, int stream, int64_t deadline, SpanLog* log, Window* w) {
    lb2::Rng rng = WorkloadRng(cfg_.seed, "serve_mix", stream);
    const int64_t last = static_cast<int64_t>(statements_.size()) - 1;
    while (NowNs() < deadline) {
      const size_t stmt = static_cast<size_t>(rng.Uniform(0, last));
      net::ResultPayload rp;
      net::Frame f;
      const Sent sent = RoundTrip(c, stmt, w, &rp, &f);
      if (!clients_[static_cast<size_t>(c)].connected()) return;
      if (log != nullptr && sent.ok) Trace(log, stmt, sent, rp, f, w);
    }
  }

  /// Repeats the request's path in process: parse, canonicalize,
  /// fingerprint, ExecuteSql, Run of the cached entry, and the response
  /// encoding.
  void Trace(SpanLog* log, size_t stmt, const Sent& sent,
             const net::ResultPayload& rp, const net::Frame& f, Window* w) {
    RequestTrace t{log, "serve_mix", Label(stmt), log->NewRequest()};
    const double request_us =
        static_cast<double>(sent.end_ns - sent.begin_ns) / 1e3;
    log->Add({"serve_mix", "request", t.label, t.request, -1, sent.begin_ns,
              sent.end_ns});
    const engine::EngineOptions& eopts = svc_->options().engine;
    const std::string& sql = statements_[stmt];
    std::string error;
    plan::Query q;
    int64_t b = NowNs();
    LB2_CHECK_MSG(lb2::sql::ParseQueryOrError(sql, *db_, &q, &error),
                  error.c_str());
    const double parse_us = t.End("sql.parse", b);
    b = NowNs();
    service::ParameterizedQuery pq =
        service::ParameterizeQuery(q, eopts.use_dict);
    const double param_us = t.End("service.parameterize", b);
    b = NowNs();
    service::Fingerprint fp = service::FingerprintQuery(pq.query, eopts, *db_);
    const double fp_us = t.End("service.fingerprint", b);
    service::ServiceResult r;
    b = NowNs();
    svc_->ExecuteSql(sql, &r, &error);
    const double execute_us = t.End("service.execute_sql", b);
    service::CacheEntryPtr entry = CachedEntry(*svc_, fp);
    LB2_CHECK_MSG(entry != nullptr, "traced statement's entry is not cached");
    b = NowNs();
    compile::CompiledQuery::RunResult rr = RunLikeService(
        entry->query, BoundParams(pq), svc_->options().morsel_rows);
    const double run_us = t.End("engine.run", b);
    b = NowNs();
    net::EncodeFrame(net::FrameType::kResult, 0,
                     net::EncodeResultPayload(rp.path, rp.rows, rp.text),
                     f.trace_id, f.version);
    t.End("net.encode", b);
    w->derived["engine.run_overhead_us"].push_back(run_us - rr.exec_ms * 1e3);
    w->derived["service.execute_self_us"].push_back(execute_us - parse_us -
                                                     param_us - fp_us - run_us);
    w->derived["net.overhead_us"].push_back(request_us - execute_us);
  }

  RunConfig cfg_;
  std::vector<std::string> statements_;
  Oracle oracle_;
  bool have_oracle_ = false;
  std::unique_ptr<rt::Database> db_;
  std::unique_ptr<service::QueryService> svc_;
  std::unique_ptr<net::NetServer> server_;
  net::BlockingClient clients_[2];
  uint64_t next_id_[2] = {0, 0};
  int windows_ = 0;
  /// Distinct plan shapes among the statements (one artifact each).
  int64_t shapes_ = 0;
};

}  // namespace

std::vector<int> TimedQueries() {
  std::vector<int> v;
  for (int q : AllQueries()) {
    if (!Excluded(q)) v.push_back(q);
  }
  return v;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"tpch_warm", "tpch_par",
                                                 "tpch_cold", "serve_mix"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const RunConfig& cfg) {
  if (name == "tpch_warm") {
    return std::make_unique<TpchWarm>(cfg, "tpch_warm", AllQueries(),
                                      TimedQueries(), 1);
  }
  if (name == "tpch_par") {
    return std::make_unique<TpchWarm>(cfg, "tpch_par", kParQueries,
                                      kParQueries, kParThreads);
  }
  if (name == "tpch_cold") return std::make_unique<TpchCold>(cfg);
  if (name == "serve_mix") return std::make_unique<ServeMix>(cfg);
  return nullptr;
}

std::string SelfTestOracle() {
  rt::Database db;
  lb2::tpch::Generate(0.002, kDbSeed, &db);
  Oracle oracle;
  // Ordered: TPC-H Q1 sorts its groups.
  plan::Query q1 = lb2::tpch::BuildQuery(1);
  std::string a1 = lb2::volcano::Execute(q1, db);
  oracle.Expect("q1", a1, lb2::tpch::OrderSensitive(q1));
  // Unordered: a group-by without ORDER BY.
  plan::Query g = lb2::sql::ParseQuery(
      "select l_returnflag, count(*) as n from lineitem group by "
      "l_returnflag",
      db);
  std::string ag = lb2::volcano::Execute(g, db);
  oracle.Expect("g", ag, lb2::tpch::OrderSensitive(g));

  std::vector<std::string> rows = lb2::SplitString(a1, '\n');
  if (!rows.empty() && rows.back().empty()) rows.pop_back();
  std::vector<std::string> grows = lb2::SplitString(ag, '\n');
  if (!grows.empty() && grows.back().empty()) grows.pop_back();
  if (rows.size() < 2 || grows.size() < 2) return "self-test answers too small";
  auto join = [](std::vector<std::string> v) {
    return lb2::JoinStrings(v, "\n") + "\n";
  };

  if (!oracle.Check("q1", a1).empty()) return "correct Q1 answer flagged";
  if (!oracle.Check("q1", a1).empty()) return "verified Q1 answer flagged";
  std::string altered = a1;
  size_t digit = altered.find_first_of("123456789");
  altered[digit] = altered[digit] == '9' ? '1' : static_cast<char>(altered[digit] + 1);
  if (oracle.Check("q1", altered).empty()) return "altered Q1 value not flagged";
  std::vector<std::string> dropped(rows.begin(), rows.end() - 1);
  if (oracle.Check("q1", join(dropped)).empty()) return "dropped Q1 row not flagged";
  std::vector<std::string> swapped = rows;
  std::swap(swapped[0], swapped[1]);
  if (oracle.Check("q1", join(swapped)).empty()) {
    return "reordered rows of ordered Q1 not flagged";
  }
  std::vector<std::string> greversed(grows.rbegin(), grows.rend());
  if (!oracle.Check("g", join(greversed)).empty()) {
    return "reordered rows of an unordered result flagged";
  }
  if (oracle.Check("missing", a1).empty()) return "unknown key not flagged";
  return "";
}

}  // namespace perfbench
