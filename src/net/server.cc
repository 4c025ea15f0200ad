#include "net/server.h"

#include <signal.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "engine/profile.h"
#include "net/admin.h"
#include "net/listener.h"
#include "obs/log.h"
#include "service/service.h"
#include "sql/sql.h"
#include "testing/faults.h"
#include "util/knob.h"
#include "util/str.h"
#include "util/time.h"

namespace lb2::net {

namespace {

// epoll tags below the first connection id.
constexpr uint64_t kListenTag = 1;
constexpr uint64_t kAdminListenTag = 2;
constexpr uint64_t kWakeTag = 3;

std::atomic<NetServer*> g_signal_server{nullptr};

void DrainSignalHandler(int /*sig*/) {
  // Async-signal-safe: BeginDrain is two relaxed atomic stores and a
  // write() to an eventfd.
  NetServer* s = g_signal_server.load(std::memory_order_relaxed);
  if (s != nullptr) s->BeginDrain();
}

}  // namespace

int DefaultPort() { return EnvNumber("LB2_PORT", 7878, 0, 65535); }
int DefaultAdminPort() { return EnvNumber("LB2_ADMIN_PORT", 7879, 0, 65535); }
int DefaultNetThreads() { return EnvNumber("LB2_NET_THREADS", 4, 1); }

double DefaultDrainTimeoutMs() {
  return EnvNumber("LB2_DRAIN_TIMEOUT_MS", 5000.0, 0.0);
}

std::vector<obs::Stat> NetStats::List() const {
  return {LB2_NET_STATS(LB2_STAT_ROW)};
}

NetServer::NetServer(service::QueryService* svc, NetOptions opts)
    : svc_(svc),
      opts_(std::move(opts)),
      recorder_(obs::FlightRecorder::OptionsFromEnv(
          opts_.num_workers >= 1 ? opts_.num_workers : 1)) {
  if (svc_->options().metrics) {
    accept_hist_ = metrics_.GetHistogram("lb2_net_accept_ns");
    read_hist_ = metrics_.GetHistogram("lb2_net_read_ns");
    write_hist_ = metrics_.GetHistogram("lb2_net_write_ns");
    request_hist_ = metrics_.GetHistogram("lb2_net_request_ns");
  }
}

NetServer::~NetServer() {
  NetServer* self = this;
  g_signal_server.compare_exchange_strong(self, nullptr);
  if (started_) {
    BeginDrain();
    Wait();
  }
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (wake_fd_ >= 0) close(wake_fd_);
  if (listen_fd_ >= 0) close(listen_fd_);
  if (admin_listen_fd_ >= 0) close(admin_listen_fd_);
}

void NetServer::InstallSignalHandlers(NetServer* s) {
  g_signal_server.store(s, std::memory_order_relaxed);
  if (s == nullptr) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = DrainSignalHandler;
  sa.sa_flags = SA_RESTART;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

bool NetServer::Start(std::string* error) {
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (wake_fd_ < 0 || epoll_fd_ < 0) {
    *error = StrPrintf("eventfd/epoll_create1: %s", std::strerror(errno));
    return false;
  }
  listen_fd_ = ListenTcp(opts_.host, opts_.port, error);
  if (listen_fd_ < 0) return false;
  port_ = LocalPort(listen_fd_);
  if (opts_.admin_port >= 0) {
    admin_listen_fd_ = ListenTcp(opts_.host, opts_.admin_port, error);
    if (admin_listen_fd_ < 0) {
      close(listen_fd_);
      listen_fd_ = -1;
      return false;
    }
    admin_port_ = LocalPort(admin_listen_fd_);
  }
  auto add = [&](int fd, uint64_t tag) {
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = tag;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  };
  add(wake_fd_, kWakeTag);
  add(listen_fd_, kListenTag);
  if (admin_listen_fd_ >= 0) add(admin_listen_fd_, kAdminListenTag);

  int workers = opts_.num_workers >= 1 ? opts_.num_workers : 1;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back(&NetServer::WorkerThread, this, i);
  }
  loop_thread_ = std::thread(&NetServer::LoopThread, this);
  started_ = true;
  return true;
}

void NetServer::BeginDrain() {
  draining_public_.store(true, std::memory_order_relaxed);
  drain_requested_.store(true, std::memory_order_release);
  WakeLoop();
}

void NetServer::WakeLoop() {
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
}

void NetServer::Wait() {
  std::lock_guard<std::mutex> wlock(wait_mu_);
  if (!started_ || waited_) return;
  loop_thread_.join();
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    workers_stop_ = true;
  }
  jobs_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  // Every connection is gone by now; completions still parked in the
  // queue (work finished after its connection died) can only be dropped.
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    if (!done_.empty()) {
      stats_.responses_dropped.fetch_add(static_cast<int64_t>(done_.size()),
                                         std::memory_order_relaxed);
      done_.clear();
    }
  }
  waited_ = true;
}

void NetServer::UpdateEpoll(Connection* c) {
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = (c->reading ? EPOLLIN : 0u) |
              (c->has_pending_output() ? EPOLLOUT : 0u);
  ev.data.u64 = c->id();
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd(), &ev);
}

void NetServer::CloseConn(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  conns_.erase(it);  // Connection dtor closes the fd (epoll auto-removes)
  stats_.closed.fetch_add(1, std::memory_order_relaxed);
  stats_.active.fetch_add(-1, std::memory_order_relaxed);
}

void NetServer::AcceptReady(bool admin) {
  int lfd = admin ? admin_listen_fd_ : listen_fd_;
  if (lfd < 0) return;
  for (;;) {
    int64_t t0 = accept_hist_ != nullptr ? NowNs() : 0;
    int fd = accept4(lfd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (accept_hist_ != nullptr) accept_hist_->Observe(NowNs() - t0);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: wait for epoll
    }
    if (!admin) SetTcpNoDelay(fd);
    uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(
        id, fd, admin ? Connection::Kind::kAdmin : Connection::Kind::kData);
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_[id] = std::move(conn);
    stats_.accepted.fetch_add(1, std::memory_order_relaxed);
    stats_.active.fetch_add(1, std::memory_order_relaxed);
  }
}

uint64_t NetServer::AssignTraceId() {
  // Hash a counter rather than handing out sequential ids: exemplar and
  // log greps for one trace id should never partially match another's.
  uint64_t id =
      obs::SplitMix64(trace_seq_.fetch_add(1, std::memory_order_relaxed));
  return id != 0 ? id : 1;
}

void NetServer::DispatchQuery(Connection* c, Frame* f) {
  ++c->inflight;
  const uint64_t trace_id =
      f->trace_id != 0 ? f->trace_id : AssignTraceId();
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_.push_back({c->id(), f->request_id, std::move(f->payload),
                     trace_id, f->version, NowNs()});
  }
  jobs_cv_.notify_one();
}

void NetServer::PumpDataFrames(Connection* c) {
  Frame f;
  for (;;) {
    if (c->want_close) return;
    if (opts_.max_conn_inflight > 0 &&
        c->inflight >= opts_.max_conn_inflight) {
      // Backpressure: stop consuming this socket until responses drain.
      // The bytes stay in the kernel buffer and TCP flow control takes it
      // from there — the connection is stalled, never dropped.
      if (c->reading) {
        c->reading = false;
        stats_.backpressure_stalls.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    FrameDecoder::Status s = c->decoder()->Next(&f);
    if (s == FrameDecoder::Status::kNeedMore) return;
    if (s == FrameDecoder::Status::kError) {
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      c->QueueOutput(
          EncodeFrame(FrameType::kError, 0, c->decoder()->error()));
      stats_.error_frames.fetch_add(1, std::memory_order_relaxed);
      stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
      c->want_close = true;
      c->reading = false;
      return;
    }
    stats_.frames_in.fetch_add(1, std::memory_order_relaxed);
    if (f.type != FrameType::kQuery) {
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      c->QueueOutput(EncodeFrame(
          FrameType::kError, f.request_id,
          StrPrintf("unexpected %s frame from client",
                    FrameTypeName(f.type))));
      stats_.error_frames.fetch_add(1, std::memory_order_relaxed);
      stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
      c->want_close = true;
      c->reading = false;
      return;
    }
    DispatchQuery(c, &f);
  }
}

void NetServer::HandleAdminConn(Connection* c) {
  HttpRequest req;
  bool bad = false;
  if (!ParseHttpHead(*c->admin_in(), &req, &bad)) {
    if (bad) {
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      HttpResponse r;
      r.status = 400;
      r.body = "malformed request\n";
      c->QueueOutput(RenderHttp(r));
      c->want_close = true;
      c->reading = false;
    }
    return;
  }
  stats_.admin_requests.fetch_add(1, std::memory_order_relaxed);
  AdminHooks hooks;
  hooks.metrics_text = [this] { return MetricsPrometheus(); };
  hooks.stats_json = [this] { return StatsJson(); };
  hooks.draining = [this] { return draining(); };
  hooks.healthz_json = [this] { return HealthzJson(); };
  hooks.traces = [this](bool chrome) {
    std::vector<obs::RecordedTrace> kept = recorder_.Snapshot();
    return chrome ? obs::TracesChrome(kept) : obs::TracesJson(kept);
  };
  hooks.explore_sql = [this](const std::string& sql) -> std::string {
    plan::Query q;
    std::string error;
    if (!sql::ParseQueryOrError(sql, svc_->db(), &q, &error)) {
      return "parse error: " + error + "\n";
    }
    service::QueryService::ExploreOutcome eo = svc_->ExploreFlavors(q);
    std::string out = StrPrintf("sites=%d candidates=%d\n%s", eo.sites,
                                eo.candidates, eo.report.c_str());
    if (eo.ran) {
      out += StrPrintf("winner: %s (%.3f ms warm)\n",
                       service::FlavorSpecString(eo.flavor, eo.blend).c_str(),
                       eo.best_ms);
    } else {
      out += "no winner recorded\n";
    }
    return out;
  };
  c->QueueOutput(RenderHttp(RouteAdmin(req, hooks)));
  c->want_close = true;
  c->reading = false;
}

void NetServer::FlushConn(Connection* c) {
  const uint64_t id = c->id();
  if (!c->WriteReady(write_hist_)) {
    CloseConn(id);
    return;
  }
  const bool idle = !c->has_pending_output() && c->inflight == 0;
  if (idle && (c->want_close || draining_loop_)) {
    CloseConn(id);
    return;
  }
  UpdateEpoll(c);
}

void NetServer::HandleCompletions(std::vector<Completion> batch) {
  for (Completion& done : batch) {
    auto it = conns_.find(done.conn_id);
    if (it == conns_.end()) {
      stats_.responses_dropped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Connection* c = it->second.get();
    --c->inflight;
    c->QueueOutput(std::move(done.frame));
    stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
    if (done.type == FrameType::kBusy) {
      stats_.busy_frames.fetch_add(1, std::memory_order_relaxed);
    }
    if (done.type == FrameType::kError) {
      stats_.error_frames.fetch_add(1, std::memory_order_relaxed);
    }
    if (draining_loop_) {
      // Still dispatch frames that were fully received before the drain
      // began — they were accepted, so they get answers.
      PumpDataFrames(c);
    } else if (!c->reading && !c->want_close &&
               (opts_.max_conn_inflight <= 0 ||
                c->inflight < opts_.max_conn_inflight)) {
      // Backpressure released: resume the socket and drain any frames
      // that were decoded before the stall.
      c->reading = true;
      PumpDataFrames(c);
    }
    FlushConn(c);
  }
}

void NetServer::StartDrainLocked() {
  draining_loop_ = true;
  drain_deadline_ns_ =
      NowNs() + static_cast<int64_t>(opts_.drain_timeout_ms * 1e6);
  if (listen_fd_ >= 0) {
    close(listen_fd_);  // stop accepting; closing deregisters from epoll
    listen_fd_ = -1;
  }
  if (admin_listen_fd_ >= 0) {
    close(admin_listen_fd_);
    admin_listen_fd_ = -1;
  }
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (uint64_t id : ids) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    Connection* c = it->second.get();
    c->reading = false;
    // Frames already decoded count as accepted: dispatch them now so the
    // drain answers everything the client managed to send.
    if (c->kind() == Connection::Kind::kData) PumpDataFrames(c);
    FlushConn(c);  // closes already-idle connections immediately
  }
}

bool NetServer::DrainComplete() const { return conns_.empty(); }

void NetServer::ForceCloseAll() {
  int64_t n = static_cast<int64_t>(conns_.size());
  if (n > 0) {
    LB2_LOG(Warn,
            "[lb2-net] drain timeout (%.0f ms): force-closing %lld "
            "connections",
            opts_.drain_timeout_ms, static_cast<long long>(n));
    stats_.drain_forced_closes.fetch_add(n, std::memory_order_relaxed);
    stats_.closed.fetch_add(n, std::memory_order_relaxed);
    stats_.active.fetch_add(-n, std::memory_order_relaxed);
    conns_.clear();
  }
}

void NetServer::LoopThread() {
  epoll_event events[64];
  for (;;) {
    int timeout_ms = -1;
    if (draining_loop_) {
      if (DrainComplete()) break;
      int64_t rem_ns = drain_deadline_ns_ - NowNs();
      if (rem_ns <= 0) {
        ForceCloseAll();
        break;
      }
      timeout_ms = static_cast<int>(rem_ns / 1000000) + 1;
    }
    int n = epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      LB2_LOG(Error, "[lb2-net] epoll_wait: %s", std::strerror(errno));
      ForceCloseAll();
      break;
    }
    for (int i = 0; i < n; ++i) {
      uint64_t tag = events[i].data.u64;
      uint32_t ev = events[i].events;
      if (tag == kWakeTag) {
        uint64_t buf;
        while (read(wake_fd_, &buf, sizeof(buf)) > 0) {
        }
        std::vector<Completion> batch;
        {
          std::lock_guard<std::mutex> lock(done_mu_);
          batch.swap(done_);
        }
        HandleCompletions(std::move(batch));
        if (drain_requested_.load(std::memory_order_acquire) &&
            !draining_loop_) {
          StartDrainLocked();
        }
        continue;
      }
      if (tag == kListenTag) {
        AcceptReady(/*admin=*/false);
        continue;
      }
      if (tag == kAdminListenTag) {
        AcceptReady(/*admin=*/true);
        continue;
      }
      auto it = conns_.find(tag);
      if (it == conns_.end()) continue;  // closed earlier this batch
      Connection* c = it->second.get();
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0 && (ev & EPOLLIN) == 0) {
        CloseConn(tag);
        continue;
      }
      if ((ev & EPOLLIN) != 0) {
        if (!c->ReadReady(read_hist_)) {
          // Peer closed or reset. Any responses still in flight for this
          // connection will surface as responses_dropped.
          CloseConn(tag);
          continue;
        }
        if (c->kind() == Connection::Kind::kData) {
          PumpDataFrames(c);
        } else {
          HandleAdminConn(c);
        }
      }
      FlushConn(c);  // also handles EPOLLOUT readiness
    }
    if (draining_loop_ && DrainComplete()) break;
  }
}

void NetServer::WorkerThread(int worker_idx) {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(jobs_mu_);
      jobs_cv_.wait(lock, [&] { return workers_stop_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stop requested and queue drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    const int64_t t0 = NowNs();  // worker pickup; job.t_decode <= t0
    const int64_t faults_before = testing::FaultsFiredTotal();
    service::ServiceResult r;
    std::string parse_error;
    std::string frame;
    FrameType type;
    const char* trace_name;
    const char* status;
    // Responses answer in the request frame's protocol version; for v2
    // the trace id rides back so the client can quote it to GET /traces.
    if (!svc_->ExecuteSql(job.sql, &r, &parse_error, job.trace_id)) {
      type = FrameType::kError;
      frame = EncodeFrame(type, job.request_id, parse_error, job.trace_id,
                          job.version);
      trace_name = "error";
      status = "error";
    } else if (r.status == service::ServiceResult::Status::kBusy) {
      type = FrameType::kBusy;
      frame = EncodeFrame(type, job.request_id, "", job.trace_id,
                          job.version);
      trace_name = "busy";
      status = "busy";
    } else {
      type = FrameType::kResult;
      frame = EncodeFrame(
          type, job.request_id,
          EncodeResultPayload(static_cast<uint8_t>(r.path), r.rows, r.text),
          job.trace_id, job.version);
      trace_name = service::PathName(r.path);
      status = "ok";
    }
    const int64_t now = NowNs();
    const int64_t elapsed = now - t0;
    if (request_hist_ != nullptr) request_hist_->Observe(elapsed);
    if (opts_.trace != nullptr) {
      if (r.spans.empty()) r.spans.push_back({"service", t0, now});
      opts_.trace->Add(trace_name, worker_idx, t0, r.spans);
    }
    if (recorder_.enabled()) {
      const int64_t latency = now - job.t_decode;
      obs::RecordedTrace t;
      t.trace_id = job.trace_id;
      t.request_id = job.request_id;
      t.worker = worker_idx;
      t.begin_ns = job.t_decode;
      t.end_ns = now;
      t.name = trace_name;
      t.status = status;
      t.sql = job.sql.size() <= 512 ? job.sql : job.sql.substr(0, 512);
      t.flavor = std::move(r.flavor);
      t.params = std::move(r.params);
      t.fault = testing::FaultsFiredTotal() > faults_before;
      t.breaker = r.breaker_degraded;
      t.switched = r.switched_mid_query;
      if (!r.prof_nodes.empty() && !r.prof.empty()) {
        t.profile = engine::RenderProfile(r.prof_nodes, r.prof);
      }
      // Root span covers decode -> completion; "queue" is the hand-off
      // wait, and the service's own spans graft under the root so the
      // rendered tree shows the whole request with true overlap.
      t.spans.push_back({"request", job.t_decode, now});
      t.spans.push_back({"queue", job.t_decode, t0, 0});
      obs::GraftSpans(&t.spans, r.spans, 0);
      const bool slow = recorder_.options().slow_ns > 0 &&
                        latency >= recorder_.options().slow_ns;
      obs::RecordedTrace slow_copy;
      if (slow) slow_copy = t;  // rare by construction; copy only to log
      if (recorder_.Record(worker_idx, std::move(t))) {
        // Exemplars attach only after the keep decision, so a bucket's
        // trace id always resolves against GET /traces.
        if (request_hist_ != nullptr) {
          request_hist_->SetExemplar(job.trace_id, elapsed);
        }
        if (status[0] == 'o') {  // "ok": the service observed this path
          svc_->AttachExemplar(r.path, job.trace_id, elapsed);
        }
        if (slow) {
          slow_copy.keep = "slow";
          LB2_LOG(Warn, "[lb2-slow] %s",
                  obs::RenderSlowQuery(slow_copy).c_str());
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_.push_back({job.conn_id, std::move(frame), type});
    }
    WakeLoop();
  }
}

NetStats NetServer::stats() const {
  NetStats s;
  LB2_NET_STATS(LB2_STAT_LOAD)
  s.traces_kept = recorder_.kept_total();
  return s;
}

std::string NetServer::HealthzJson() const {
  service::ServiceStats ss = svc_->Stats();
  const bool drain = draining();
  const service::ArtifactStore* store = svc_->artifact_store();
  return StrPrintf(
      "{\"status\": \"%s\", \"draining\": %s, \"breaker_open\": %lld, "
      "\"disk_cooldown\": %s, \"admission_queue_depth\": %lld, "
      "\"connections_active\": %lld, \"traces_kept\": %lld}\n",
      drain ? "draining" : "ok", drain ? "true" : "false",
      static_cast<long long>(ss.breaker_open),
      store != nullptr && store->InCooldown() ? "true" : "false",
      static_cast<long long>(svc_->admission()->queue_depth()),
      static_cast<long long>(stats_.active.load(std::memory_order_relaxed)),
      static_cast<long long>(recorder_.kept_total()));
}

std::string NetServer::MetricsPrometheus() const {
  return metrics_.RenderPrometheus() +
         obs::RenderStatsPrometheus(stats().List()) +
         svc_->MetricsPrometheus();
}

std::string NetServer::StatsJson() const {
  return "{\"net\": {\"metrics\": " + metrics_.RenderJson() +
         ", \"stats\": " + obs::RenderStatsJson(stats().List()) +
         "}, \"service\": " + svc_->MetricsJson() + "}";
}

}  // namespace lb2::net
