#include "serve/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "lazy/session.h"
#include "optimizer/passes.h"
#include "script/analyze.h"

namespace lafp::serve {

namespace {

metrics::Registry* Metrics() { return metrics::Registry::Global(); }

/// Engine Status -> HTTP status. Client-caused conditions map to 4xx,
/// capacity to 429/507, everything else to 500 — a failing query must
/// produce a clean response, never a dropped connection.
int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return 200;
    case StatusCode::kInvalid:
    case StatusCode::kKeyError:
    case StatusCode::kTypeError:
    case StatusCode::kIndexError:
    case StatusCode::kParseError: return 400;
    case StatusCode::kNotImplemented: return 501;
    case StatusCode::kCancelled: return 499;
    case StatusCode::kOutOfMemory: return 507;
    default: return 500;
  }
}

}  // namespace

/// RAII admission: try_acquire at construction; admitted() tells whether
/// the slot was granted. Releases (and re-relaxes cache pressure) on
/// destruction.
class QueryService::AdmissionSlot {
 public:
  AdmissionSlot(QueryService* service) : service_(service) {
    int64_t now =
        service_->in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1;
    admitted_ = now <= service_->options_.max_sessions;
    if (!admitted_) {
      service_->in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      return;
    }
    service_->UpdateCachePressure();
  }

  ~AdmissionSlot() {
    if (!admitted_) return;
    service_->in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    service_->UpdateCachePressure();
  }

  bool admitted() const { return admitted_; }

 private:
  QueryService* service_;
  bool admitted_ = false;
};

QueryService::QueryService(ServeOptions options)
    : options_(std::move(options)),
      tracker_(options_.memory_budget_bytes) {
  if (options_.worker_threads < 1) options_.worker_threads = 1;
  if (options_.max_sessions < 1) options_.max_sessions = 1;
  if (options_.session_threads < 1) options_.session_threads = 1;
  if (options_.session_budget_bytes == 0 &&
      options_.memory_budget_bytes > 0) {
    options_.session_budget_bytes =
        options_.memory_budget_bytes / options_.max_sessions;
  }
  // One fixed-size worker set for all sessions: the scheduler pool runs
  // DAG nodes, the backend pool runs partition / kernel-morsel tasks.
  // Admitting more sessions multiplexes these pools instead of creating
  // per-session pools (N sessions x M threads would oversubscribe).
  scheduler_pool_ = std::make_unique<ThreadPool>(options_.session_threads);
  backend_pool_ = std::make_unique<ThreadPool>(
      std::max(options_.session_threads, options_.intra_op_threads));
  if (options_.cache_bytes > 0) {
    lazy::ResultCache::Options copts;
    copts.capacity_bytes = options_.cache_bytes;
    cache_ = std::make_shared<lazy::ResultCache>(copts);
  }
}

QueryService::~QueryService() { Stop(); }

Status QueryService::Start() {
  if (running_.load(std::memory_order_acquire)) return Status::OK();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket failed: ") +
                           std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    Status st = Status::IOError(std::string("bind failed: ") +
                                std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 64) < 0) {
    Status st = Status::IOError(std::string("listen failed: ") +
                                std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  running_.store(true, std::memory_order_release);
  handler_pool_ = std::make_unique<ThreadPool>(options_.worker_threads);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  monitor_thread_ = std::thread([this] { MonitorLoop(); });
  return Status::OK();
}

void QueryService::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Closing the listen socket unblocks accept(); handler_pool_'s
  // destructor drains queued connections before joining workers.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (accept_thread_.joinable()) accept_thread_.join();
  handler_pool_.reset();
  if (monitor_thread_.joinable()) monitor_thread_.join();
}

void QueryService::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket closed by Stop()
    }
    handler_pool_->Submit([this, fd] { HandleConnection(fd); });
  }
}

void QueryService::HandleConnection(int fd) {
  HttpRequest request;
  Status read_status = ReadHttpRequest(fd, &request);
  HttpResponse response;
  if (!read_status.ok()) {
    response.status = read_status.IsInvalid() ? 400 : 408;
    response.body = read_status.ToString() + "\n";
  } else {
    response = Dispatch(request, fd);
  }
  (void)WriteHttpResponse(fd, response);
  ::close(fd);
}

HttpResponse QueryService::Dispatch(const HttpRequest& request,
                                    int client_fd) {
  static auto* requests = Metrics()->GetCounter("serve.requests");
  requests->Increment();
  if (request.path == "/healthz") {
    return HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
  }
  if (request.path == "/metrics") {
    return HandleMetrics();
  }
  if (request.path == "/run") {
    if (request.method != "POST") {
      return HttpResponse{405, "text/plain; charset=utf-8",
                          "use POST /run\n"};
    }
    return HandleRun(request, client_fd);
  }
  return HttpResponse{404, "text/plain; charset=utf-8",
                      "unknown path " + request.path + "\n"};
}

void QueryService::UpdateCachePressure() {
  if (cache_ == nullptr) return;
  // Linear back-off: a full house halves the cache so live queries get
  // the memory; an idle service restores the full capacity. Eviction
  // happens inside set_effective_capacity.
  int64_t load = in_flight_.load(std::memory_order_relaxed);
  if (load > options_.max_sessions) load = options_.max_sessions;
  size_t cap = options_.cache_bytes;
  size_t shrink = static_cast<size_t>(
      (cap / 2) * static_cast<uint64_t>(load) /
      static_cast<uint64_t>(options_.max_sessions));
  cache_->set_effective_capacity(cap - shrink);
}

HttpResponse QueryService::HandleRun(const HttpRequest& request,
                                     int client_fd) {
  AdmissionSlot slot(this);
  if (!slot.admitted()) {
    static auto* rejected = Metrics()->GetCounter("serve.rejected");
    rejected->Increment();
    return HttpResponse{429, "text/plain; charset=utf-8",
                        "server at max_sessions capacity; retry later\n"};
  }
  static auto* in_flight_gauge = Metrics()->GetGauge("serve.in_flight");
  in_flight_gauge->Set(in_flight());

  // Per-request knobs.
  auto param = [&](const std::string& key) -> std::string {
    auto it = request.params.find(key);
    return it == request.params.end() ? "" : it->second;
  };
  exec::BackendKind backend = options_.default_backend;
  const std::string backend_param = param("backend");
  if (backend_param == "pandas") {
    backend = exec::BackendKind::kPandas;
  } else if (backend_param == "modin") {
    backend = exec::BackendKind::kModin;
  } else if (backend_param == "dask") {
    backend = exec::BackendKind::kDask;
  } else if (backend_param == "shard") {
    // Multi-process execution per request: the session leases its
    // workers (count from LAFP_SHARDS, default 2) from the process-wide
    // pool and returns the clean ones when it ends, so concurrent
    // requests run on disjoint workers and a worker is forked once.
    backend = exec::BackendKind::kShard;
  } else if (!backend_param.empty()) {
    return HttpResponse{400, "text/plain; charset=utf-8",
                        "unknown backend '" + backend_param + "'\n"};
  }
  const std::string mode = param("mode");
  if (!mode.empty() && mode != "lafp" && mode != "lazy" && mode != "eager") {
    return HttpResponse{400, "text/plain; charset=utf-8",
                        "unknown mode '" + mode + "'\n"};
  }
  const bool trace_requested = param("trace") == "1";

  // Isolation: child budget carved from the process tracker, private
  // cancellation token watched by the disconnect monitor, fresh session
  // over the shared pools and cache.
  MemoryTracker session_tracker(&tracker_, options_.session_budget_bytes);
  CancellationToken cancel;
  std::atomic<bool> disconnected{false};
  std::stringstream output;

  lazy::SessionOptions opts;
  opts.backend = backend;
  opts.tracker = &session_tracker;
  opts.output = &output;
  opts.mode = mode == "eager" ? lazy::ExecutionMode::kEager
                              : lazy::ExecutionMode::kLazy;
  opts.lazy_print = mode.empty() || mode == "lafp";
  opts.exec.num_threads = options_.session_threads;
  opts.exec.intra_op_threads = options_.intra_op_threads;
  opts.exec.trace = trace_requested;
  opts.exec.cancel = &cancel;
  opts.exec.scheduler_pool = scheduler_pool_.get();
  opts.backend_config.shared_pool = backend_pool_.get();
  if (opts.mode == lazy::ExecutionMode::kLazy) opts.cache = cache_;

  // A traced request's events are read once, into its response. Unless
  // the tracer was on before (LAFP_TRACE, set_enabled), they are erased
  // after the session, whose span is recorded when it ends; otherwise a
  // long-running server would keep every traced request's events.
  struct EraseTraceAfterSession {
    uint64_t root = 0;
    ~EraseTraceAfterSession() {
      if (root != 0) trace::Tracer::Global()->EraseSubtree(root);
    }
  } erase_trace;
  lazy::Session session(opts);
  if (opts.mode == lazy::ExecutionMode::kLazy) {
    opt::InstallDefaultOptimizer(&session);
  }
  script::RunOptions run_opts;
  run_opts.analyze = opts.lazy_print;

  if (client_fd >= 0) WatchClient(client_fd, &cancel, &disconnected);
  if (options_.run_started_hook) options_.run_started_hook(&cancel);
  Status run_status = script::RunProgram(request.body, &session, run_opts);
  if (client_fd >= 0) UnwatchClient(client_fd);
  // Only rewrite failures the *client* caused: the monitor sets
  // `disconnected` when it trips the token, whereas an engine failure
  // (e.g. OOM) also trips the token to cooperatively stop co-running
  // nodes — that one must keep its own status. A disconnect noticed
  // after the program finished still counts as a completed run.
  if (!run_status.ok() &&
      disconnected.load(std::memory_order_acquire)) {
    run_status = Status::Cancelled("client disconnected: " +
                                   run_status.ToString());
  }

  HttpResponse response;
  response.status = HttpStatusFor(run_status);
  if (run_status.ok()) {
    response.body = output.str();
  } else {
    response.body = run_status.ToString() + "\n";
    static auto* errors = Metrics()->GetCounter("serve.errors");
    errors->Increment();
    if (run_status.IsCancelled()) {
      static auto* cancelled = Metrics()->GetCounter("serve.cancelled");
      cancelled->Increment();
    }
  }
  if (trace_requested && session.trace_root() != 0) {
    response.body += "\n--- trace ---\n";
    response.body +=
        trace::Tracer::Global()->RenderReportForRoot(session.trace_root());
    if (session.trace_is_session_only()) {
      erase_trace.root = session.trace_root();
    }
  }
  return response;
}

HttpResponse QueryService::HandleMetrics() const {
  static auto* in_flight_gauge = Metrics()->GetGauge("serve.in_flight");
  in_flight_gauge->Set(in_flight());
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = Metrics()->RenderText();
  if (cache_ != nullptr) {
    response.body += "serve.cache.effective_capacity " +
                     std::to_string(cache_->effective_capacity()) + "\n";
  }
  return response;
}

void QueryService::WatchClient(int fd, CancellationToken* token,
                               std::atomic<bool>* disconnected) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  watched_[fd] = WatchedClient{token, disconnected};
}

void QueryService::UnwatchClient(int fd) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  watched_.erase(fd);
}

void QueryService::MonitorLoop() {
  // One thread polls every in-flight client socket. recv(MSG_PEEK |
  // MSG_DONTWAIT) == 0 is the unambiguous "peer closed" signal; pending
  // request bytes (> 0) and EWOULDBLOCK both mean the client is still
  // there. ~20 Hz keeps disconnect-to-cancel latency well under the
  // typical node execution time without measurable load.
  while (running_.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lock(watch_mu_);
      for (auto& [fd, client] : watched_) {
        char probe;
        ssize_t r = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
        if (r == 0 || (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR)) {
          client.disconnected->store(true, std::memory_order_release);
          client.token->Cancel();
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

}  // namespace lafp::serve
