// The socketed front end for the query service: an epoll event loop plus
// a small worker pool, speaking the length-prefixed protocol of
// protocol.h on a data port and plain HTTP on an admin port.
//
// Threading model — one loop thread owns every socket:
//
//   loop thread      accepts, reads, decodes frames, writes responses.
//                    Connections (connection.h) are loop-private; no lock
//                    guards any per-connection state.
//   worker threads   LB2_NET_THREADS of them. Each pops a (conn id,
//                    request id, SQL, trace id, version, decode time) job,
//                    runs it through the shared QueryService (itself fully
//                    thread-safe), encodes the response frame in the job's
//                    protocol version, offers the completed trace to the
//                    flight recorder (recorder.h — the keep decision runs
//                    here, where the outcome is known), and pushes the
//                    frame onto the completion queue. Workers never touch
//                    a Connection.
//   hand-off         two mutex-guarded queues and an eventfd: jobs flow
//                    loop -> workers, encoded frames flow workers -> loop
//                    (the eventfd write is what wakes epoll). A response
//                    for a connection that died in the meantime is counted
//                    and dropped — ids, not pointers, cross threads.
//
// Backpressure is layered, and none of its layers drops a connection:
//   * per-connection: once `max_conn_inflight` queries are outstanding the
//     loop stops reading that socket (EPOLLIN off). Bytes accumulate in
//     the kernel buffer, the TCP window closes, and a well-behaved client
//     blocks in write() — flow control all the way to the sender. Reading
//     resumes as responses drain.
//   * service-wide: the AdmissionGate sheds with ServiceResult::kBusy when
//     the queue times out, which becomes a protocol-level BUSY frame — the
//     documented "retry later" answer.
//
// Graceful drain (BeginDrain — SIGTERM via InstallSignalHandlers, or any
// thread directly): listeners close immediately, every socket stops being
// read, queries already accepted (decoded frames included) run to
// completion and their responses are flushed, then connections close and
// Wait() returns. `drain_timeout_ms` bounds the whole goodbye; on expiry
// remaining connections are force-closed and the loss is counted
// (lb2_net_drain_forced_closes). Under the timeout, zero accepted
// requests lose their response.
#ifndef LB2_NET_SERVER_H_
#define LB2_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/connection.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace lb2::service {
class QueryService;
}  // namespace lb2::service

namespace lb2::net {

/// LB2_PORT env var, else 7878.
int DefaultPort();
/// LB2_ADMIN_PORT env var, else 7879.
int DefaultAdminPort();
/// LB2_NET_THREADS env var, else 4.
int DefaultNetThreads();
/// LB2_DRAIN_TIMEOUT_MS env var, else 5000.
double DefaultDrainTimeoutMs();

struct NetOptions {
  std::string host = "127.0.0.1";
  /// Data port; 0 = ephemeral (tests), read back with NetServer::port().
  int port = 0;
  /// Admin HTTP port; -1 disables the admin plane, 0 = ephemeral.
  int admin_port = -1;
  int num_workers = DefaultNetThreads();
  /// Outstanding queries per connection before the loop stops reading it.
  int max_conn_inflight = 32;
  double drain_timeout_ms = DefaultDrainTimeoutMs();
  /// Optional Chrome trace sink: every request's span list is recorded
  /// under the worker's track. Not owned; must outlive the server.
  obs::ChromeTraceWriter* trace = nullptr;
};

// Every NetStats field, one row each, in exposition order (the row format
// of LB2_SERVICE_STATS in service/service.h; expanders in obs/metrics.h).
// `own` rows are relaxed atomics the server bumps itself, always on.
#define LB2_NET_STATS(X)                                                      \
  X(own, int64_t, accepted, "lb2_net_accepted_total", counter, "accepted")    \
  X(own, int64_t, closed, "lb2_net_closed_total", counter, "closed")          \
  X(own, int64_t, active, "lb2_net_connections_active", gauge, "active")      \
  X(own, int64_t, frames_in, "lb2_net_frames_in_total", counter, "frames-in") \
  X(own, int64_t, frames_out, "lb2_net_frames_out_total", counter,            \
    "frames-out")                                                             \
  X(own, int64_t, busy_frames, "lb2_net_busy_frames_total", counter, "busy")  \
  X(own, int64_t, error_frames, "lb2_net_error_frames_total", counter,        \
    "errors")                                                                 \
  X(own, int64_t, protocol_errors, "lb2_net_protocol_errors_total", counter,  \
    "protocol-errors")                                                        \
  X(own, int64_t, backpressure_stalls, "lb2_net_backpressure_stalls_total",   \
    counter, "backpressure-stalls")                                           \
  /* completed after their conn died */                                       \
  X(own, int64_t, responses_dropped, "lb2_net_responses_dropped_total",       \
    counter, "responses-dropped")                                             \
  X(own, int64_t, admin_requests, "lb2_net_admin_requests_total", counter,    \
    "admin-requests")                                                         \
  X(own, int64_t, drain_forced_closes, "lb2_net_drain_forced_closes_total",   \
    counter, "drain-forced-closes")                                           \
  /* flight-recorder retentions (FlightRecorder::kept_total) */               \
  X(pull, int64_t, traces_kept, "lb2_net_traces_kept_total", counter,         \
    "traces-kept")

/// Relaxed snapshot of the network-plane counters (same monitoring
/// contract as ServiceStats).
struct NetStats {
  LB2_NET_STATS(LB2_STAT_FIELD)

  /// Every field as an obs::Stat, in list order.
  std::vector<obs::Stat> List() const;
  std::string ToString() const { return obs::RenderStatsLine(List()); }
};

class NetServer {
 public:
  /// The service must outlive the server. Does not take ownership.
  NetServer(service::QueryService* svc, NetOptions opts = {});
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds the listeners and starts the loop + worker threads. Returns
  /// false with *error on bind failure (ports stay untouched).
  bool Start(std::string* error);

  /// Bound ports (valid after Start; -1 when the plane is off).
  int port() const { return port_; }
  int admin_port() const { return admin_port_; }

  /// Initiates graceful drain; idempotent, callable from any thread (and,
  /// through the installed signal handler, from signal context). Returns
  /// immediately — Wait() observes completion.
  void BeginDrain();
  bool draining() const {
    return draining_public_.load(std::memory_order_relaxed);
  }

  /// Blocks until the loop has fully shut down (all responses flushed or
  /// the drain timeout force-closed the stragglers) and workers exited.
  /// Idempotent.
  void Wait();

  NetStats stats() const;
  /// Network histograms and stats + the service's full exposition, one
  /// document.
  std::string MetricsPrometheus() const;
  /// {"net": {"metrics": [...], "stats": {...}}, "service": {...}} — both
  /// halves in the shape of QueryService::MetricsJson().
  std::string StatsJson() const;
  /// JSON readiness document (the /healthz body): drain flag, open
  /// breakers, disk-tier cooldown, admission-queue depth, kept traces.
  std::string HealthzJson() const;

  /// The tail-sampled flight recorder behind admin GET /traces. Always
  /// present; disabled (never keeps) when LB2_TRACE_RING=0.
  const obs::FlightRecorder& recorder() const { return recorder_; }

  /// Routes SIGTERM/SIGINT to BeginDrain() on `s` (one server per
  /// process). Pass nullptr to detach before destroying the server.
  static void InstallSignalHandlers(NetServer* s);

 private:
  struct Job {
    uint64_t conn_id;
    uint64_t request_id;
    std::string sql;
    /// Trace context: from the client's v2 frame, or server-assigned when
    /// the frame carried none (v1, or v2 with trace_id 0).
    uint64_t trace_id = 0;
    /// Protocol version of the request frame — responses answer in kind.
    uint8_t version = kProtocolVersion;
    /// When the loop thread decoded the frame; the trace's root span (and
    /// its "queue" child, ending at worker pickup) start here.
    int64_t t_decode = 0;
  };
  struct Completion {
    uint64_t conn_id;
    std::string frame;  // encoded wire bytes
    FrameType type;
  };

  void LoopThread();
  void WorkerThread(int worker_idx);
  void AcceptReady(bool admin);
  void PumpDataFrames(Connection* c);
  void HandleAdminConn(Connection* c);
  void DispatchQuery(Connection* c, Frame* f);
  uint64_t AssignTraceId();
  void HandleCompletions(std::vector<Completion> batch);
  void UpdateEpoll(Connection* c);
  void CloseConn(uint64_t id);
  void FlushConn(Connection* c);
  void StartDrainLocked();  // loop thread only
  bool DrainComplete() const;
  void ForceCloseAll();
  void WakeLoop();

  service::QueryService* const svc_;
  const NetOptions opts_;
  obs::FlightRecorder recorder_;
  std::atomic<uint64_t> trace_seq_{1};  // server-assigned trace-id source

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int admin_listen_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: completions + drain/stop requests
  int port_ = -1;
  int admin_port_ = -1;

  // Loop-private (no lock): connection table and drain progress.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 16;  // ids below are reserved epoll tags
  bool draining_loop_ = false;  // loop thread's view
  int64_t drain_deadline_ns_ = 0;

  // Cross-thread flags; the eventfd write makes them visible promptly.
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> draining_public_{false};

  // loop -> workers.
  std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;
  std::deque<Job> jobs_;
  bool workers_stop_ = false;

  // workers -> loop.
  std::mutex done_mu_;
  std::vector<Completion> done_;

  std::thread loop_thread_;
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool waited_ = false;
  std::mutex wait_mu_;  // serializes concurrent Wait() calls

  // Network-plane metrics: the `own` rows of LB2_NET_STATS are always on
  // (relaxed atomic adds); the syscall histograms follow the service's
  // metrics switch.
  struct StatCounters {
    LB2_NET_STATS(LB2_STAT_ATOMIC)
  };
  StatCounters stats_;
  obs::Registry metrics_;
  obs::Histogram* accept_hist_ = nullptr;
  obs::Histogram* read_hist_ = nullptr;
  obs::Histogram* write_hist_ = nullptr;
  obs::Histogram* request_hist_ = nullptr;
};

}  // namespace lb2::net

#endif  // LB2_NET_SERVER_H_
