#include "serve/eventloop/eventloop_server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/scoring_workspace.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/listener.h"

namespace headtalk::serve {
namespace {

using Clock = std::chrono::steady_clock;

// Same instrument names as the threaded engine — the Registry hands back
// one instrument per name, so dashboards see "the serving core" whichever
// engine is running.
obs::Counter& metric_connections() {
  static obs::Counter& c = obs::Registry::global().counter("serve.connections");
  return c;
}
obs::Counter& metric_busy() {
  static obs::Counter& c = obs::Registry::global().counter("serve.busy");
  return c;
}
obs::Gauge& metric_active() {
  static obs::Gauge& g = obs::Registry::global().gauge("serve.active_connections");
  return g;
}
obs::Counter& metric_deadline_expired() {
  static obs::Counter& c = obs::Registry::global().counter("serve.deadline_expired");
  return c;
}
obs::Histogram& metric_request_seconds() {
  static obs::Histogram& h = obs::Registry::global().histogram("serve.request_seconds");
  return h;
}
obs::Histogram& metric_score_seconds() {
  static obs::Histogram& h = obs::Registry::global().histogram("serve.score_seconds");
  return h;
}
// Reactor-specific: wall time one loop iteration spends dispatching ready
// events + posted tasks (the "loop latency" a parked connection waits).
obs::Histogram& metric_loop_dispatch_seconds() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("serve.loop.dispatch_seconds");
  return h;
}

std::int64_t steady_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One scored utterance on its way back to the owning loop.
struct ScoreOutcome {
  bool ok = false;  ///< false when the pipeline threw; `error` says why
  core::PipelineResult result{};
  core::FeatureCapture features{};
  /// Wall time from submit to scored — what the DECISION latency field
  /// reports, queue wait included, since the client experiences it.
  double elapsed_seconds = 0.0;
  std::string error;
};

}  // namespace

// ---------------------------------------------------------------------------
// Loop: one reactor thread.

class EventLoopServer::Loop {
 public:
  Loop(EventLoopServer& server, std::size_t index)
      : server_(server), index_(index) {
    if (::pipe2(wake_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) {
      throw std::runtime_error("serve: pipe2() failed for loop wakeup");
    }
    poller_ = Poller::create(server_.config_.poller);
  }

  ~Loop() {
    close_quietly(wake_pipe_[0]);
    close_quietly(wake_pipe_[1]);
  }

  void start() {
    thread_ = std::thread([this] { run(); });
  }

  void join() {
    if (thread_.joinable()) thread_.join();
  }

  /// Async-signal-safe: a full pipe is simply a wakeup already pending.
  void wake() noexcept {
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], "x", 1);
  }

  /// Enqueues a task for the loop thread; false once the loop has exited
  /// (the caller must dispose of any resources the task owned).
  bool post(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(inbox_mutex_);
      if (!accepting_) return false;
      inbox_.push_back(std::move(task));
    }
    wake();
    return true;
  }

  /// Construct-and-register for a dispatched fd; runs on the loop thread.
  void make_conn(int fd);

  /// The resolved poller backend (kAuto settled to a concrete one).
  [[nodiscard]] PollerBackend backend() const noexcept { return poller_->backend(); }

 private:
  struct Watch {
    enum class Kind { kWakeup, kListenerUnix, kListenerTcp, kConn };
    Kind kind = Kind::kConn;
    void* conn = nullptr;  ///< the owning Conn for kConn
  };

  struct Conn {
    Conn(const core::HeadTalkPipeline& pipeline, const SessionLimits& limits)
        : session(pipeline, limits) {}

    int fd = -1;
    Watch watch{Watch::Kind::kConn, nullptr};
    Session session;
    std::shared_ptr<ConnectionTable::Slot> slot;
    std::vector<std::uint8_t> out;  ///< unsent response bytes
    std::size_t out_off = 0;
    Clock::time_point request_start{};
    Clock::time_point deadline{};
    std::uint32_t interest = 0;  ///< currently registered poller mask
    bool closing = false;        ///< close once `out` drains
  };

  void run();
  void dispatch(const PollerEvent& event);
  void accept_ready(int listener_fd);
  void on_conn_event(Conn* conn, const PollerEvent& event);
  void on_readable(Conn* conn);
  /// Queues `utterance` on the scoring pool; the verdict comes back to
  /// on_score_done on this loop's thread.
  void submit_score(std::uint64_t conn_id, PendingUtterance&& utterance);
  void on_score_done(std::uint64_t conn_id, ScoreOutcome&& outcome);
  /// Common post-Session bookkeeping: output, counters, deadline resets,
  /// drain close, interest update, flush. May destroy `conn`.
  void after_session_io(Conn* conn, std::size_t decisions_before, bool alive);
  /// Nonblocking send of the buffered output; toggles write interest. May
  /// destroy `conn` (dead peer, or `closing` with the buffer drained).
  void flush(Conn* conn);
  void update_interest(Conn* conn);
  void expire_deadlines();
  void start_drain();
  void run_tasks();
  void destroy(Conn* conn);
  [[nodiscard]] int poll_timeout_ms() const;

  EventLoopServer& server_;
  const std::size_t index_;
  std::unique_ptr<Poller> poller_;
  int wake_pipe_[2] = {-1, -1};
  std::thread thread_;

  std::mutex inbox_mutex_;
  std::vector<std::function<void()>> inbox_;
  bool accepting_ = true;  ///< under inbox_mutex_

  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  core::ScoringWorkspace workspace_;  ///< streaming-mode inline scoring
  bool drain_started_ = false;

  Watch wake_watch_{Watch::Kind::kWakeup, nullptr};
  Watch unix_watch_{Watch::Kind::kListenerUnix, nullptr};
  Watch tcp_watch_{Watch::Kind::kListenerTcp, nullptr};
};

void EventLoopServer::Loop::run() {
  poller_->add(wake_pipe_[0], Poller::kRead, &wake_watch_);
  if (index_ == 0) {
    if (server_.unix_fd_ >= 0) {
      poller_->add(server_.unix_fd_, Poller::kRead, &unix_watch_);
    }
    if (server_.tcp_fd_ >= 0) {
      poller_->add(server_.tcp_fd_, Poller::kRead, &tcp_watch_);
    }
  }

  std::vector<PollerEvent> events(256);
  while (true) {
    if (server_.stopping_.load(std::memory_order_acquire)) {
      start_drain();
      if (conns_.empty()) break;
    }
    const int n = poller_->wait(events, poll_timeout_ms());
    const auto dispatch_start = Clock::now();
    for (int i = 0; i < n; ++i) dispatch(events[static_cast<std::size_t>(i)]);
    run_tasks();
    expire_deadlines();
    if (n > 0) {
      metric_loop_dispatch_seconds().observe(
          std::chrono::duration<double>(Clock::now() - dispatch_start).count());
    }
  }

  // Refuse new tasks, then run what already arrived: adopt tasks observe
  // the stop flag and reject their fd, completion tasks find no conn.
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    accepting_ = false;
  }
  run_tasks();
}

int EventLoopServer::Loop::poll_timeout_ms() const {
  if (conns_.empty()) return -1;  // wakeup pipe / listeners interrupt us
  auto nearest = Clock::time_point::max();
  for (const auto& [id, conn] : conns_) {
    if (!conn->closing) nearest = std::min(nearest, conn->deadline);
  }
  if (nearest == Clock::time_point::max()) return 1000;
  const auto now = Clock::now();
  if (nearest <= now) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(nearest - now).count() + 1;
  return static_cast<int>(std::clamp<long long>(ms, 1, 1000));
}

void EventLoopServer::Loop::dispatch(const PollerEvent& event) {
  auto* watch = static_cast<Watch*>(event.data);
  switch (watch->kind) {
    case Watch::Kind::kWakeup: {
      std::uint8_t buf[256];
      while (::read(wake_pipe_[0], buf, sizeof buf) > 0) {
      }
      break;
    }
    case Watch::Kind::kListenerUnix:
      accept_ready(server_.unix_fd_);
      break;
    case Watch::Kind::kListenerTcp:
      accept_ready(server_.tcp_fd_);
      break;
    case Watch::Kind::kConn:
      on_conn_event(static_cast<Conn*>(watch->conn), event);
      break;
  }
}

void EventLoopServer::Loop::accept_ready(int listener_fd) {
  if (listener_fd < 0) return;
  while (true) {
    const int client =
        ::accept4(listener_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (client < 0) return;  // EAGAIN / transient
    server_.dispatch_fd(client);
  }
}

void EventLoopServer::Loop::make_conn(int fd) {
  if (server_.stopping_.load(std::memory_order_acquire)) {
    // The drain raced the dispatch; this fd was never served.
    send_and_close(fd, encode_error(ErrorCode::kShuttingDown, "server is draining"));
    server_.active_.fetch_sub(1, std::memory_order_relaxed);
    metric_active().set(
        static_cast<double>(server_.active_.load(std::memory_order_relaxed)));
    return;
  }
  auto conn =
      std::make_unique<Conn>(server_.pipeline_, server_.config_.base.session);
  Conn* raw = conn.get();
  raw->fd = fd;
  raw->watch.conn = raw;
  raw->session.set_workspace(&workspace_);
  raw->slot = server_.conn_table_.insert();
  raw->slot->accepted_at = Clock::now();
  raw->slot->last_activity_us.store(steady_us(), std::memory_order_relaxed);
  raw->request_start = Clock::now();
  raw->deadline = raw->request_start +
                  std::chrono::milliseconds(server_.config_.base.request_deadline_ms);

  // Defer END_OF_UTTERANCE scoring to the scoring pool. The hook runs on
  // this loop thread (inside session.on_bytes / complete_score).
  const std::uint64_t conn_id = raw->slot->id;
  raw->session.set_score_hook([this, conn_id](PendingUtterance&& utterance) {
    submit_score(conn_id, std::move(utterance));
  });

  conns_.emplace(conn_id, std::move(conn));
  poller_->add(fd, Poller::kRead, &raw->watch);
  raw->interest = Poller::kRead;
}

void EventLoopServer::Loop::on_conn_event(Conn* conn, const PollerEvent& event) {
  if (event.writable && !conn->out.empty()) {
    const std::uint64_t id = conn->slot->id;
    flush(conn);
    // flush() may have destroyed the conn (erasing it from conns_).
    if (conns_.find(id) == conns_.end()) return;
  }
  if (event.readable) {
    on_readable(conn);
    return;  // on_readable handles destruction itself
  }
  if (event.error) destroy(conn);  // peer reset with nothing readable
}

void EventLoopServer::Loop::on_readable(Conn* conn) {
  std::uint8_t buffer[1 << 16];
  const ssize_t n = ::recv(conn->fd, buffer, sizeof buffer, 0);
  if (n == 0) {  // client closed
    destroy(conn);
    return;
  }
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
    destroy(conn);
    return;
  }
  conn->slot->last_activity_us.store(steady_us(), std::memory_order_relaxed);
  const std::size_t decisions_before = conn->session.decisions_sent();
  const bool alive =
      conn->session.on_bytes(buffer, static_cast<std::size_t>(n));
  after_session_io(conn, decisions_before, alive);
}

void EventLoopServer::Loop::submit_score(std::uint64_t conn_id,
                                         PendingUtterance&& utterance) {
  // Count before submitting: the scoring thread may finish (and
  // decrement) before submit() even returns here.
  server_.inflight_.fetch_add(1, std::memory_order_relaxed);
  server_.scorers_->submit([this, conn_id, utterance = std::move(utterance),
                            enqueued = Clock::now()]() mutable {
    // One warm workspace per scoring thread, reused for every utterance
    // it scores (pool threads live until the server stops).
    thread_local core::ScoringWorkspace workspace;
    ScoreOutcome outcome;
    try {
      obs::ScopedSpan span("serve.score_utterance");
      obs::Timer timer(&metric_score_seconds());
      outcome.result = server_.pipeline_.score_capture(
          utterance.capture, server_.config_.base.session.mode, utterance.followup,
          utterance.session_open, &workspace,
          utterance.want_features ? &outcome.features : nullptr);
      outcome.ok = true;
    } catch (const std::exception& error) {
      outcome.error = error.what();
    }
    outcome.elapsed_seconds =
        std::chrono::duration<double>(Clock::now() - enqueued).count();
    server_.inflight_.fetch_sub(1, std::memory_order_relaxed);
    // post() failing means the loop exited; the conn is gone with it.
    (void)post([this, conn_id, outcome = std::move(outcome)]() mutable {
      on_score_done(conn_id, std::move(outcome));
    });
  });
}

void EventLoopServer::Loop::on_score_done(std::uint64_t conn_id,
                                          ScoreOutcome&& outcome) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // deadline/drain closed it; verdict is late
  Conn* conn = it->second.get();
  const std::size_t decisions_before = conn->session.decisions_sent();
  bool alive = true;
  if (outcome.ok) {
    conn->session.complete_score(outcome.result, outcome.features,
                                 outcome.elapsed_seconds);
    alive = !conn->session.finished();
  } else {
    conn->session.fail_score(outcome.error);
    alive = false;
  }
  after_session_io(conn, decisions_before, alive);
}

void EventLoopServer::Loop::after_session_io(Conn* conn,
                                             std::size_t decisions_before,
                                             bool alive) {
  const auto output = conn->session.take_output();
  if (!output.empty()) {
    conn->out.insert(conn->out.end(), output.begin(), output.end());
  }
  conn->slot->stream_mode.store(conn->session.stream_mode(),
                                std::memory_order_relaxed);
  conn->slot->decisions.store(conn->session.decisions_sent(),
                              std::memory_order_relaxed);

  const auto deadline_budget =
      std::chrono::milliseconds(server_.config_.base.request_deadline_ms);
  if (conn->session.stream_mode()) {
    // Auto-endpoint streaming: received audio proves the client is alive;
    // the deadline degrades to a max inter-chunk silence (threaded-engine
    // semantics).
    conn->request_start = Clock::now();
    conn->deadline = conn->request_start + deadline_budget;
  }

  const std::size_t new_decisions =
      conn->session.decisions_sent() - decisions_before;
  if (new_decisions > 0) {
    server_.decisions_.fetch_add(new_decisions, std::memory_order_relaxed);
    metric_request_seconds().observe(
        std::chrono::duration<double>(Clock::now() - conn->request_start).count());
    conn->request_start = Clock::now();
    conn->deadline = conn->request_start + deadline_budget;
    // During a drain, answer what is in flight — including an utterance the
    // client had already pipelined behind this one (score_pending again) —
    // but do not wait for new requests.
    if (server_.stopping_.load(std::memory_order_acquire) &&
        !conn->session.score_pending()) {
      conn->closing = true;
    }
  }
  if (!alive) {
    server_.errors_.fetch_add(1, std::memory_order_relaxed);
    conn->closing = true;
  }
  update_interest(conn);
  flush(conn);  // may destroy conn
}

void EventLoopServer::Loop::flush(Conn* conn) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_off,
                             conn->out.size() - conn->out_off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      conn->out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      update_interest(conn);  // park the rest behind write readiness
      return;
    }
    destroy(conn);  // dead peer
    return;
  }
  conn->out.clear();
  conn->out_off = 0;
  if (conn->closing) {
    destroy(conn);
    return;
  }
  update_interest(conn);
}

void EventLoopServer::Loop::update_interest(Conn* conn) {
  std::uint32_t want = 0;
  // Reading pauses while a score is out (responses stay ordered, buffered
  // input bounded) and once the conn is closing.
  if (!conn->closing && !conn->session.score_pending()) want |= Poller::kRead;
  if (conn->out_off < conn->out.size()) want |= Poller::kWrite;
  if (want != conn->interest) {
    poller_->modify(conn->fd, want, &conn->watch);
    conn->interest = want;
  }
}

void EventLoopServer::Loop::expire_deadlines() {
  const auto now = Clock::now();
  std::vector<Conn*> expired;
  for (const auto& [id, conn] : conns_) {
    if (!conn->closing && now >= conn->deadline) expired.push_back(conn.get());
  }
  for (Conn* conn : expired) {
    // Enforced even while the utterance waits in the scoring queue: the
    // conn closes now and the late verdict is dropped on arrival.
    server_.deadlines_.fetch_add(1, std::memory_order_relaxed);
    metric_deadline_expired().increment();
    const auto frame = encode_error(ErrorCode::kDeadlineExceeded,
                                    "no complete request within the deadline");
    conn->out.insert(conn->out.end(), frame.begin(), frame.end());
    conn->closing = true;
    update_interest(conn);
    flush(conn);  // may destroy conn
  }
}

void EventLoopServer::Loop::start_drain() {
  if (drain_started_) return;
  drain_started_ = true;
  if (index_ == 0) {
    if (server_.unix_fd_ >= 0) {
      poller_->remove(server_.unix_fd_);
      close_quietly(server_.unix_fd_);
      server_.unix_fd_ = -1;
    }
    if (server_.tcp_fd_ >= 0) {
      poller_->remove(server_.tcp_fd_);
      close_quietly(server_.tcp_fd_);
      server_.tcp_fd_ = -1;
    }
  }
  // Idle connections are told and closed now; in-flight ones are owed
  // their DECISIONs first (after_session_io closes them as verdicts land,
  // bounded by their deadlines).
  std::vector<Conn*> idle;
  for (const auto& [id, conn] : conns_) {
    if (!conn->closing && conn->session.idle()) idle.push_back(conn.get());
  }
  const auto frame = encode_error(ErrorCode::kShuttingDown, "server is draining");
  for (Conn* conn : idle) {
    conn->out.insert(conn->out.end(), frame.begin(), frame.end());
    conn->closing = true;
    update_interest(conn);
    flush(conn);  // may destroy conn
  }
}

void EventLoopServer::Loop::run_tasks() {
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    tasks.swap(inbox_);
  }
  for (auto& task : tasks) task();
}

void EventLoopServer::Loop::destroy(Conn* conn) {
  poller_->remove(conn->fd);
  close_quietly(conn->fd);
  server_.conn_table_.erase(conn->slot->id);
  server_.active_.fetch_sub(1, std::memory_order_relaxed);
  metric_active().set(
      static_cast<double>(server_.active_.load(std::memory_order_relaxed)));
  conns_.erase(conn->slot->id);  // frees conn
}

// ---------------------------------------------------------------------------
// EventLoopServer

EventLoopServer::EventLoopServer(const core::HeadTalkPipeline& pipeline,
                                 EventLoopConfig config)
    : pipeline_(pipeline), config_(std::move(config)) {
  config_.loops = std::max<std::size_t>(1, config_.loops);
}

EventLoopServer::~EventLoopServer() {
  if (started_.load(std::memory_order_acquire)) stop();
}

void EventLoopServer::start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) {
    throw std::runtime_error("serve: start() called twice");
  }
  if (::pipe2(stop_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) {
    throw std::runtime_error("serve: pipe2() failed");
  }
  if (!config_.base.socket_path.empty()) {
    unix_fd_ = make_unix_listener(config_.base.socket_path);
    (void)set_nonblocking(unix_fd_);  // accept_ready() loops until EAGAIN
  }
  if (config_.base.tcp_port > 0) {
    tcp_fd_ = make_tcp_listener(config_.base.tcp_port, config_.reuseport);
    (void)set_nonblocking(tcp_fd_);
  }

  scorers_ = std::make_unique<util::ThreadPool>(util::resolve_jobs(config_.base.workers));

  loops_.reserve(config_.loops);
  for (std::size_t i = 0; i < config_.loops; ++i) {
    loops_.push_back(std::make_unique<Loop>(*this, i));
  }
  for (auto& loop : loops_) loop->start();

  obs::log_info(
      "serve.eventloop.started",
      {{"socket", config_.base.socket_path.string()},
       {"tcp_port", config_.base.tcp_port},
       {"loops", static_cast<std::uint64_t>(config_.loops)},
       {"scoring_threads", static_cast<std::uint64_t>(scorers_->size())},
       {"max_connections", static_cast<std::uint64_t>(config_.max_connections)},
       {"poller", std::string(poller_backend_name(loops_.front()->backend()))}});
}

void EventLoopServer::request_stop() noexcept {
  stopping_.store(true, std::memory_order_release);
  if (stop_pipe_[1] >= 0) {
    [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], "x", 1);
  }
  for (auto& loop : loops_) loop->wake();
}

void EventLoopServer::wait() {
  if (!started_.load(std::memory_order_acquire)) return;
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{stop_pipe_[0], POLLIN, 0};
    (void)::poll(&pfd, 1, 1000);
  }
  stop();
}

void EventLoopServer::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  std::call_once(stop_once_, [this] {
    request_stop();
    for (auto& loop : loops_) loop->join();
    // All loops have exited (every conn closed / drained), so nothing can
    // submit any more: the pool's destructor runs what is still queued
    // (verdicts for connections already gone) and joins its threads.
    scorers_.reset();
    close_quietly(stop_pipe_[0]);
    close_quietly(stop_pipe_[1]);
    stop_pipe_[0] = stop_pipe_[1] = -1;
    close_quietly(unix_fd_);
    close_quietly(tcp_fd_);
    unix_fd_ = tcp_fd_ = -1;
    if (!config_.base.socket_path.empty()) {
      std::error_code ec;
      std::filesystem::remove(config_.base.socket_path, ec);
    }
    stopped_.store(true, std::memory_order_release);
    obs::log_info("serve.eventloop.stopped",
                  {{"connections", accepted_.load()},
                   {"decisions", decisions_.load()},
                   {"busy_rejections", busy_.load()}});
  });
}

ServerStats EventLoopServer::stats() const {
  ServerStats out;
  out.connections_accepted = accepted_.load(std::memory_order_relaxed);
  out.busy_rejections = busy_.load(std::memory_order_relaxed);
  out.decisions = decisions_.load(std::memory_order_relaxed);
  out.session_errors = errors_.load(std::memory_order_relaxed);
  out.deadline_expirations = deadlines_.load(std::memory_order_relaxed);
  out.active_connections = active_.load(std::memory_order_relaxed);
  out.scores_in_flight = inflight_.load(std::memory_order_relaxed);
  return out;
}

std::vector<ConnectionInfo> EventLoopServer::connections() const {
  return conn_table_.snapshot();
}

void EventLoopServer::adopt_connection(int fd) {
  if (fd < 0) return;
  if (!running()) {
    send_and_close(fd, encode_error(ErrorCode::kShuttingDown, "server is draining"));
    return;
  }
  // fds arriving over SCM_RIGHTS kept the sender's flags; the reactor
  // needs them nonblocking.
  (void)set_nonblocking(fd);
  dispatch_fd(fd);
}

void EventLoopServer::dispatch_fd(int fd) {
  if (stopping_.load(std::memory_order_acquire)) {
    send_and_close(fd, encode_error(ErrorCode::kShuttingDown, "server is draining"));
    return;
  }
  if (active_.load(std::memory_order_relaxed) >= config_.max_connections) {
    busy_.fetch_add(1, std::memory_order_relaxed);
    metric_busy().increment();
    send_and_close(fd, encode_busy());
    return;
  }
  active_.fetch_add(1, std::memory_order_relaxed);
  metric_active().set(
      static_cast<double>(active_.load(std::memory_order_relaxed)));
  accepted_.fetch_add(1, std::memory_order_relaxed);
  metric_connections().increment();
  const std::size_t target =
      next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
  Loop* loop = loops_[target].get();
  if (!loop->post([loop, fd] { loop->make_conn(fd); })) {
    // The loop exited under us (stop race): reject like the drain path.
    active_.fetch_sub(1, std::memory_order_relaxed);
    send_and_close(fd, encode_error(ErrorCode::kShuttingDown, "server is draining"));
  }
}

}  // namespace headtalk::serve
