#include "serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/scoring_workspace.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "serve/listener.h"
#include "util/thread_pool.h"

namespace headtalk::serve {
namespace {

using Clock = std::chrono::steady_clock;

// Registry references are resolved once; the instruments live for the
// process lifetime (see obs/metrics.h).
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
// Wall time one loop iteration spends on ready events + posted tasks,
// inline scoring included: the head-of-line delay the loop's other
// connections wait.
obs::Histogram& metric_loop_dispatch_seconds() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("serve.loop.dispatch_seconds");
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// Loop: one reactor thread.

class Server::Loop {
 public:
  explicit Loop(Server& server) : server_(server) {
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

  /// Connections dealt to this loop and not yet closed. Counted at
  /// dispatch, so fds still queued in the inbox weigh in at once.
  std::atomic<std::size_t> live{0};

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
    /// Bytes the client sent before the drain that start_drain() has yet
    /// to read; 0 outside a drain.
    std::size_t drain_budget = 0;
    std::uint32_t interest = 0;  ///< currently registered poller mask
    bool closing = false;        ///< close once `out` drains
  };

  void run();
  void dispatch(const PollerEvent& event);
  void accept_ready(int listener_fd);
  void on_conn_event(Conn* conn, const PollerEvent& event);
  /// Expires the conn if its deadline has passed; otherwise reads once (at
  /// most its drain_budget, when one is set) and feeds the bytes to the
  /// session (scoring any END_OF_UTTERANCE inline). True when the conn is
  /// still open for reading and more bytes may be pending. May destroy
  /// `conn`.
  bool read_once(Conn* conn);
  /// Common post-Session bookkeeping: output, counters, deadline resets,
  /// drain close, interest update, flush. False when `conn` was destroyed.
  bool after_session_io(Conn* conn, std::size_t decisions_before, bool alive);
  /// Queues `frame` as the conn's last output and closes it once sent.
  /// False when `conn` was destroyed.
  bool close_with(Conn* conn, const std::vector<std::uint8_t>& frame);
  /// Nonblocking send of the buffered output; toggles write interest.
  /// Destroys `conn` on a dead peer, or when `closing` with the buffer
  /// drained, and then returns false.
  bool flush(Conn* conn);
  void update_interest(Conn* conn);
  void expire(Conn* conn);
  void expire_deadlines();
  void start_drain();
  void run_tasks();
  void destroy(Conn* conn);
  [[nodiscard]] int poll_timeout_ms() const;

  Server& server_;
  std::unique_ptr<Poller> poller_;
  int wake_pipe_[2] = {-1, -1};
  std::thread thread_;

  std::mutex inbox_mutex_;
  std::vector<std::function<void()>> inbox_;
  bool accepting_ = true;  ///< under inbox_mutex_

  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  /// Scoring scratch shared by every session of this loop: after the first
  /// utterance the scratch and the cached FFT plans stay warm.
  core::ScoringWorkspace workspace_;
  bool drain_started_ = false;

  Watch wake_watch_{Watch::Kind::kWakeup, nullptr};
  Watch unix_watch_{Watch::Kind::kListenerUnix, nullptr};
  Watch tcp_watch_{Watch::Kind::kListenerTcp, nullptr};
};

void Server::Loop::run() {
  poller_->add(wake_pipe_[0], Poller::kRead, &wake_watch_);
  // Every loop watches the listeners, so a new connection is accepted by
  // whichever loop is free instead of waiting behind one loop's scoring.
  if (server_.unix_fd_ >= 0) poller_->add(server_.unix_fd_, Poller::kRead, &unix_watch_);
  if (server_.tcp_fd_ >= 0) poller_->add(server_.tcp_fd_, Poller::kRead, &tcp_watch_);

  std::vector<PollerEvent> events(256);
  while (true) {
    if (server_.stopping_.load(std::memory_order_acquire)) {
      start_drain();
      if (conns_.empty()) break;
    }
    const int n = poller_->wait(events, poll_timeout_ms());
    const auto ready = std::span(events).first(static_cast<std::size_t>(n));
    const auto dispatch_start = Clock::now();
    // Posted tasks run before the ready events, so events that waited
    // behind a long task meet the same deadline check as events that
    // waited behind scoring. A pending task always leaves the wakeup pipe
    // readable (see run_tasks()).
    if (std::any_of(ready.begin(), ready.end(), [this](const PollerEvent& event) {
          return event.data == &wake_watch_;
        })) {
      run_tasks();
    }
    for (const PollerEvent& event : ready) dispatch(event);
    expire_deadlines();
    if (n > 0) {
      metric_loop_dispatch_seconds().observe(
          std::chrono::duration<double>(Clock::now() - dispatch_start).count());
    }
  }

  // Refuse new tasks, then run what already arrived: adopt tasks observe
  // the stop flag and reject their fd.
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    accepting_ = false;
  }
  run_tasks();
}

int Server::Loop::poll_timeout_ms() const {
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

void Server::Loop::dispatch(const PollerEvent& event) {
  auto* watch = static_cast<Watch*>(event.data);
  switch (watch->kind) {
    case Watch::Kind::kWakeup:
      break;  // run_tasks() already drained the pipe
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

void Server::Loop::accept_ready(int listener_fd) {
  if (listener_fd < 0) return;
  while (true) {
    const int client =
        ::accept4(listener_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (client < 0) return;  // EAGAIN / transient
    server_.dispatch_fd(client);
  }
}

void Server::Loop::make_conn(int fd) {
  if (server_.stopping_.load(std::memory_order_acquire)) {
    // The drain raced the dispatch; this fd was never served.
    send_and_close(fd, encode_error(ErrorCode::kShuttingDown, "server is draining"));
    server_.active_.fetch_sub(1, std::memory_order_relaxed);
    live.fetch_sub(1, std::memory_order_relaxed);
    metric_active().set(
        static_cast<double>(server_.active_.load(std::memory_order_relaxed)));
    return;
  }
  auto conn = std::make_unique<Conn>(server_.pipeline_, server_.config_.session);
  Conn* raw = conn.get();
  raw->fd = fd;
  raw->watch.conn = raw;
  raw->session.set_workspace(&workspace_);
  raw->slot = server_.conn_table_.insert();
  raw->slot->accepted_at = Clock::now();
  raw->slot->touch();
  raw->request_start = Clock::now();
  raw->deadline = raw->request_start +
                  std::chrono::milliseconds(server_.config_.request_deadline_ms);

  conns_.emplace(raw->slot->id, std::move(conn));
  poller_->add(fd, Poller::kRead, &raw->watch);
  raw->interest = Poller::kRead;
}

void Server::Loop::on_conn_event(Conn* conn, const PollerEvent& event) {
  if (event.writable && !conn->out.empty() && !flush(conn)) return;
  if (event.readable) {
    (void)read_once(conn);
    return;
  }
  if (event.error) destroy(conn);  // peer reset with nothing readable
}

bool Server::Loop::read_once(Conn* conn) {
  // The deadline is checked before anything new is fed: bytes that waited
  // past it behind a busy loop must not buy a late DECISION.
  if (Clock::now() >= conn->deadline) {
    expire(conn);
    return false;
  }
  std::uint8_t buffer[1 << 16];
  const std::size_t want = conn->drain_budget > 0
                               ? std::min(conn->drain_budget, sizeof buffer)
                               : sizeof buffer;
  const ssize_t n = ::recv(conn->fd, buffer, want, 0);
  if (n == 0) {  // client closed
    destroy(conn);
    return false;
  }
  if (n < 0) {
    if (errno == EINTR) return true;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
    destroy(conn);
    return false;
  }
  conn->drain_budget -= std::min(conn->drain_budget, static_cast<std::size_t>(n));
  conn->slot->touch();
  const std::size_t decisions_before = conn->session.decisions_sent();
  const bool alive = conn->session.on_bytes(buffer, static_cast<std::size_t>(n));
  return after_session_io(conn, decisions_before, alive) && !conn->closing;
}

bool Server::Loop::after_session_io(Conn* conn, std::size_t decisions_before,
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
      std::chrono::milliseconds(server_.config_.request_deadline_ms);
  if (conn->session.stream_mode()) {
    // Auto-endpoint streaming: the server owns segmentation, so there is
    // no "complete request" for the deadline to bound — a quiet room
    // produces no decisions for minutes. Received audio proves the client
    // is alive; the deadline degrades to a max inter-chunk silence.
    conn->request_start = Clock::now();
    conn->deadline = conn->request_start + deadline_budget;
  }

  const std::size_t new_decisions =
      conn->session.decisions_sent() - decisions_before;
  if (new_decisions > 0) {
    server_.decisions_.fetch_add(new_decisions, std::memory_order_relaxed);
    metric_request_seconds().observe(
        std::chrono::duration<double>(Clock::now() - conn->request_start).count());
    // A finished utterance resets the per-request clock.
    conn->request_start = Clock::now();
    conn->deadline = conn->request_start + deadline_budget;
    // During a drain, answer what is in flight but do not wait for the
    // client's next utterance — unless start_drain() has yet to read bytes
    // the client sent before the stop, which may complete another one.
    // Until this loop starts its drain, every connection stays open: the
    // drain's first read collects what is still queued.
    if (drain_started_ && conn->drain_budget == 0) {
      conn->closing = true;
    }
  }
  if (!alive) {
    server_.errors_.fetch_add(1, std::memory_order_relaxed);
    conn->closing = true;
  }
  update_interest(conn);
  return flush(conn);
}

bool Server::Loop::close_with(Conn* conn, const std::vector<std::uint8_t>& frame) {
  conn->out.insert(conn->out.end(), frame.begin(), frame.end());
  conn->closing = true;
  update_interest(conn);
  return flush(conn);
}

bool Server::Loop::flush(Conn* conn) {
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
      return true;
    }
    destroy(conn);  // dead peer
    return false;
  }
  conn->out.clear();
  conn->out_off = 0;
  if (conn->closing) {
    destroy(conn);
    return false;
  }
  update_interest(conn);
  return true;
}

void Server::Loop::update_interest(Conn* conn) {
  std::uint32_t want = 0;
  if (!conn->closing) want |= Poller::kRead;
  if (conn->out_off < conn->out.size()) want |= Poller::kWrite;
  if (want != conn->interest) {
    poller_->modify(conn->fd, want, &conn->watch);
    conn->interest = want;
  }
}

void Server::Loop::expire(Conn* conn) {
  server_.deadlines_.fetch_add(1, std::memory_order_relaxed);
  metric_deadline_expired().increment();
  (void)close_with(conn, encode_error(ErrorCode::kDeadlineExceeded,
                                      "no complete request within the deadline"));
}

void Server::Loop::expire_deadlines() {
  const auto now = Clock::now();
  std::vector<Conn*> expired;
  for (const auto& [id, conn] : conns_) {
    if (!conn->closing && now >= conn->deadline) expired.push_back(conn.get());
  }
  for (Conn* conn : expired) expire(conn);
}

void Server::Loop::start_drain() {
  if (drain_started_) return;
  drain_started_ = true;
  // Stop accepting: each loop drops the listeners from its poller, and
  // the last to do so closes them, so no loop accepts on a closed fd.
  if (server_.unix_fd_ >= 0) poller_->remove(server_.unix_fd_);
  if (server_.tcp_fd_ >= 0) poller_->remove(server_.tcp_fd_);
  if (server_.listening_loops_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    close_quietly(server_.unix_fd_);
    close_quietly(server_.tcp_fd_);
    server_.unix_fd_ = server_.tcp_fd_ = -1;
  }
  // Read before judging idleness: every END_OF_UTTERANCE that reached the
  // socket before the stop is owed its DECISION, even when this loop was
  // busy scoring while it arrived. The read stops at what was queued now
  // (FIONREAD), so a client that keeps sending cannot hold the drain open.
  // Connections left idle are told and closed now; one mid-utterance
  // keeps its read interest and closes once its DECISION is out (bounded
  // by its deadline).
  std::vector<std::uint64_t> open;
  for (const auto& [id, conn] : conns_) {
    if (!conn->closing) open.push_back(id);
  }
  const auto frame = encode_error(ErrorCode::kShuttingDown, "server is draining");
  for (const std::uint64_t id : open) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    Conn* conn = it->second.get();
    int queued = 0;
    if (::ioctl(conn->fd, FIONREAD, &queued) != 0) queued = 0;
    conn->drain_budget = static_cast<std::size_t>(std::max(queued, 0));
    while (conn->drain_budget > 0 && read_once(conn)) {
    }
    if (conns_.find(id) == conns_.end()) continue;  // read_once destroyed it
    conn->drain_budget = 0;
    if (!conn->closing && conn->session.idle()) (void)close_with(conn, frame);
  }
}

void Server::Loop::run_tasks() {
  // Drain the wakeup pipe before taking the inbox: a task posted after the
  // swap below leaves its byte behind, so the next wait wakes for it.
  std::uint8_t buf[256];
  while (::read(wake_pipe_[0], buf, sizeof buf) > 0) {
  }
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    tasks.swap(inbox_);
  }
  for (auto& task : tasks) task();
}

void Server::Loop::destroy(Conn* conn) {
  poller_->remove(conn->fd);
  close_quietly(conn->fd);
  server_.conn_table_.erase(conn->slot->id);
  server_.active_.fetch_sub(1, std::memory_order_relaxed);
  live.fetch_sub(1, std::memory_order_relaxed);
  metric_active().set(
      static_cast<double>(server_.active_.load(std::memory_order_relaxed)));
  conns_.erase(conn->slot->id);  // frees conn
}

// ---------------------------------------------------------------------------
// Server

Server::Server(const core::HeadTalkPipeline& pipeline, ServerConfig config)
    : pipeline_(pipeline), config_(std::move(config)) {}

Server::~Server() {
  if (started_.load(std::memory_order_acquire)) stop();
}

void Server::start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) {
    throw std::runtime_error("serve: start() called twice");
  }
  if (::pipe2(stop_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) {
    throw std::runtime_error("serve: pipe2() failed");
  }
  if (!config_.socket_path.empty()) {
    unix_fd_ = make_unix_listener(config_.socket_path);
    (void)set_nonblocking(unix_fd_);  // accept_ready() loops until EAGAIN
  }
  if (config_.tcp_port > 0) {
    tcp_fd_ = make_tcp_listener(config_.tcp_port, config_.reuseport);
    (void)set_nonblocking(tcp_fd_);
  }

  const unsigned loops = util::resolve_jobs(config_.workers);
  loops_.reserve(loops);
  for (unsigned i = 0; i < loops; ++i) loops_.push_back(std::make_unique<Loop>(*this));
  listening_loops_.store(loops, std::memory_order_relaxed);
  for (auto& loop : loops_) loop->start();

  obs::log_info(
      "serve.started",
      {{"socket", config_.socket_path.string()},
       {"tcp_port", config_.tcp_port},
       {"loops", loops},
       {"max_connections", static_cast<std::uint64_t>(config_.max_connections)},
       {"poller", std::string(poller_backend_name(loops_.front()->backend()))}});
}

void Server::request_stop() noexcept {
  stopping_.store(true, std::memory_order_release);
  if (stop_pipe_[1] >= 0) {
    [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], "x", 1);
  }
  for (auto& loop : loops_) loop->wake();
}

void Server::wait() {
  if (!started_.load(std::memory_order_acquire)) return;
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{stop_pipe_[0], POLLIN, 0};
    (void)::poll(&pfd, 1, 1000);
  }
  stop();
}

void Server::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  std::call_once(stop_once_, [this] {
    request_stop();
    for (auto& loop : loops_) loop->join();
    close_quietly(stop_pipe_[0]);
    close_quietly(stop_pipe_[1]);
    stop_pipe_[0] = stop_pipe_[1] = -1;
    close_quietly(unix_fd_);
    close_quietly(tcp_fd_);
    unix_fd_ = tcp_fd_ = -1;
    if (!config_.socket_path.empty()) {
      std::error_code ec;
      std::filesystem::remove(config_.socket_path, ec);
    }
    stopped_.store(true, std::memory_order_release);
    obs::log_info("serve.stopped",
                  {{"connections", accepted_.load()},
                   {"decisions", decisions_.load()},
                   {"busy_rejections", busy_.load()}});
  });
}

ServerStats Server::stats() const {
  ServerStats out;
  out.connections_accepted = accepted_.load(std::memory_order_relaxed);
  out.busy_rejections = busy_.load(std::memory_order_relaxed);
  out.decisions = decisions_.load(std::memory_order_relaxed);
  out.session_errors = errors_.load(std::memory_order_relaxed);
  out.deadline_expirations = deadlines_.load(std::memory_order_relaxed);
  out.active_connections = active_.load(std::memory_order_relaxed);
  return out;
}

std::vector<ConnectionInfo> Server::connections() const {
  return conn_table_.snapshot();
}

void Server::adopt_connection(int fd) {
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

void Server::run_on_each_loop(const std::function<void()>& task) {
  for (auto& loop : loops_) (void)loop->post(task);
}

void Server::dispatch_fd(int fd) {
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
  metric_active().set(static_cast<double>(active_.load(std::memory_order_relaxed)));
  accepted_.fetch_add(1, std::memory_order_relaxed);
  metric_connections().increment();
  // Deal to the loop holding the fewest live connections, so connections
  // that close free their loop for the next arrival. The scan starts at a
  // rotating loop, which spreads ties round-robin.
  const std::size_t start =
      next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
  Loop* loop = loops_[start].get();
  for (std::size_t i = 1; i < loops_.size(); ++i) {
    Loop* other = loops_[(start + i) % loops_.size()].get();
    if (other->live.load(std::memory_order_relaxed) <
        loop->live.load(std::memory_order_relaxed)) {
      loop = other;
    }
  }
  loop->live.fetch_add(1, std::memory_order_relaxed);
  if (!loop->post([loop, fd] { loop->make_conn(fd); })) {
    // The loop exited under us (stop race): reject like the drain path.
    active_.fetch_sub(1, std::memory_order_relaxed);
    loop->live.fetch_sub(1, std::memory_order_relaxed);
    send_and_close(fd, encode_error(ErrorCode::kShuttingDown, "server is draining"));
  }
}

}  // namespace headtalk::serve
