// Serving core of the inference daemon: an epoll reactor whose loop threads
// score their own connections' utterances inline.
//
// Thousands of nonblocking connections are multiplexed over `workers`
// reactor threads (util::resolve_jobs, so --jobs keeps meaning "threads
// that score"), each running a Poller (epoll on Linux, poll fallback) over
// its share of connections:
//
//   * Every loop watches the listeners; whichever is free accepts and
//     hands the fd to the loop holding the fewest live connections. A
//     shard front can inject fds directly via adopt_connection().
//   * Everything about a connection runs on its loop thread: frame
//     parsing, streaming-mode (auto-endpoint) segmentation and whole-
//     utterance scoring. END_OF_UTTERANCE calls the pipeline's
//     score_capture right there, on the loop's warm ScoringWorkspace, and
//     is recorded in serve.score_seconds. A connection therefore waits
//     behind the other connections of its loop while one is scored — that
//     head-of-line delay shows in serve.loop.dispatch_seconds.
//   * Writes are buffered and nonblocking: output is sent immediately as
//     far as the socket accepts, the rest parks in a per-connection buffer
//     with write interest toggled on until it drains.
//
// Per-utterance deadlines run from the previous response (or accept) to the
// DECISION; streaming mode resets them per received chunk. They are checked
// before newly read bytes are fed, so an utterance that waited past its
// deadline behind a busy loop is answered ERROR deadline-exceeded, never a
// late DECISION. Saturation (at max_connections) answers BUSY and closes.
// request_stop() drains: each loop first reads and answers what its
// connections had sent when the drain began (no more, so a client that
// keeps sending cannot hold it open), then tells idle connections
// kShuttingDown; a connection mid-utterance is owed its DECISION (bounded
// by its deadline).
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/pipeline.h"
#include "serve/conn_table.h"
#include "serve/eventloop/poller.h"
#include "serve/session.h"

namespace headtalk::serve {

struct ServerConfig {
  /// Unix-domain socket path; an existing socket file is replaced. Empty
  /// skips the unix listener, which is how shard children run
  /// fd-passing-only.
  std::filesystem::path socket_path;
  /// Optional TCP listener on 127.0.0.1:<port>; 0 disables it.
  int tcp_port = 0;
  /// Bind the TCP listener with SO_REUSEPORT so N shard processes can
  /// share one port (the kernel load-balances accepts between them).
  bool reuseport = false;
  /// Reactor threads, each scoring its own connections (0 =
  /// util::resolve_jobs auto default).
  unsigned workers = 0;
  /// Connections held concurrently across all loops; beyond this a new
  /// connection is answered BUSY and closed.
  std::size_t max_connections = 4096;
  /// Per-utterance deadline: from the previous response (or accept) to the
  /// DECISION. Expiry sends ERROR deadline-exceeded and closes.
  int request_deadline_ms = 10000;
  PollerBackend poller = PollerBackend::kAuto;
  SessionLimits session{};
};

/// Point-in-time counters for tests and the daemon's exit summary.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t busy_rejections = 0;
  std::uint64_t decisions = 0;
  std::uint64_t session_errors = 0;
  std::uint64_t deadline_expirations = 0;
  std::size_t active_connections = 0;
};

class Server {
 public:
  /// The pipeline must stay alive for the server's lifetime; loops only
  /// use its const scoring entry point.
  Server(const core::HeadTalkPipeline& pipeline, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listeners and spawns the loop threads. Throws
  /// std::runtime_error when a socket cannot be bound or on a second call.
  void start();

  /// Async-signal-safe stop trigger (callable from a SIGINT/SIGTERM
  /// handler): marks the server draining and wakes every loop.
  void request_stop() noexcept;

  /// Blocks until request_stop() has been called (from any thread or a
  /// signal handler), then drains and joins everything. Idempotent.
  void wait();

  /// Graceful shutdown: stop accepting, answer the in-flight utterances,
  /// join the loops. Idempotent; implies request_stop().
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return started_.load(std::memory_order_acquire) &&
           !stopped_.load(std::memory_order_acquire);
  }
  /// True once a stop/drain has been requested — the admin plane's
  /// /readyz flips to 503 on this, before in-flight utterances finish.
  [[nodiscard]] bool draining() const noexcept {
    return stopping_.load(std::memory_order_acquire);
  }
  [[nodiscard]] ServerStats stats() const;
  /// Snapshot of the live per-connection table (never blocks a loop).
  [[nodiscard]] std::vector<ConnectionInfo> connections() const;

  /// Hands the server an already-accepted connection fd (the shard front's
  /// SCM_RIGHTS path). The server owns the fd from here on — it is served
  /// like a locally-accepted connection, answered BUSY + closed at
  /// max_connections, or closed outright when the server is stopping.
  void adopt_connection(int fd);

  /// Runs `task` once on every loop thread, after what each loop has
  /// already queued. A task that blocks holds its loop (and every
  /// connection on it) still, which is how tests park an utterance behind
  /// a busy loop deterministically. Valid between start() and stop().
  void run_on_each_loop(const std::function<void()>& task);

 private:
  class Loop;

  /// Routes a freshly-accepted/adopted fd: BUSY when saturated, shutdown
  /// notice when draining, else to the least-loaded loop. Takes fd
  /// ownership.
  void dispatch_fd(int fd);

  const core::HeadTalkPipeline& pipeline_;
  ServerConfig config_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};

  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<std::size_t> next_loop_{0};
  /// Loops that still watch the listeners; the last to stop closes them.
  std::atomic<std::size_t> listening_loops_{0};

  ConnectionTable conn_table_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::once_flag stop_once_;

  std::atomic<std::size_t> active_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> busy_{0};
  std::atomic<std::uint64_t> decisions_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> deadlines_{0};
};

}  // namespace headtalk::serve
