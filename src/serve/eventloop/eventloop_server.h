// Event-loop serving core: epoll reactor + a FIFO scoring pool.
//
// The thread-per-connection Server (serve/server.h) spends one OS thread —
// stack, scheduler slot, blocking poll — per client, which tops out around
// the worker count. This engine multiplexes thousands of nonblocking
// connections over a handful of loop threads instead:
//
//   * `loops` reactor threads, each running a Poller (epoll on Linux, poll
//     fallback) over its share of connections. Loop 0 also owns the
//     listeners and hands accepted fds round-robin to the loops; a shard
//     front can inject fds directly via adopt_connection().
//   * Frame parsing and streaming-mode (auto-endpoint) scoring run on the
//     loop threads — after the frame-incremental refactor both are cheap.
//     Whole-utterance scoring (END_OF_UTTERANCE) is deferred through the
//     Session score hook into a util::ThreadPool of scoring threads (sized
//     like the threaded engine's workers, --jobs). Each utterance is one
//     FIFO task: score_capture on the thread's warm ScoringWorkspace,
//     recorded in serve.score_seconds. The completion posts back to the
//     owning loop over its wake pipe, so all Session state stays
//     loop-thread-confined.
//   * Writes are buffered and nonblocking: output is sent immediately as
//     far as the socket accepts, the rest parks in a per-connection buffer
//     with EPOLLOUT interest toggled on until it drains. A connection with
//     a score in flight has its read interest dropped (responses stay in
//     order, memory stays bounded); it resumes when the verdict lands.
//
// Semantics match the threaded engine: per-utterance deadlines (reset per
// DECISION; streaming mode resets per received chunk) are enforced even
// while an utterance waits in the scoring queue; saturation (at
// max_connections) answers BUSY and closes; request_stop() drains — idle
// connections get kShuttingDown, in-flight utterances (queued ones too) get
// their DECISIONs, then the loops exit and the pool runs dry.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/pipeline.h"
#include "serve/conn_table.h"
#include "serve/engine.h"
#include "serve/eventloop/poller.h"
#include "serve/server.h"
#include "serve/session.h"
#include "util/thread_pool.h"

namespace headtalk::serve {

struct EventLoopConfig {
  /// Socket paths, deadline, session limits — shared with the threaded
  /// engine. `workers` sizes the scoring pool (0 = util::resolve_jobs
  /// auto); `max_pending` is the threaded engine's knob and is ignored
  /// here. An empty socket_path skips the unix listener, which is how
  /// shard children run fd-passing-only.
  ServerConfig base{};
  /// Reactor threads. 1 suits a single-core host; the structure scales by
  /// adding loops, not threads-per-connection.
  std::size_t loops = 1;
  /// Connections held concurrently across all loops; beyond this a new
  /// connection is answered BUSY and closed, exactly like the threaded
  /// engine's full pending queue.
  std::size_t max_connections = 4096;
  PollerBackend poller = PollerBackend::kAuto;
  /// Bind the TCP listener with SO_REUSEPORT so N shard processes can
  /// share one port (the kernel load-balances accepts between them).
  bool reuseport = false;
};

class EventLoopServer final : public ServerEngine {
 public:
  EventLoopServer(const core::HeadTalkPipeline& pipeline, EventLoopConfig config);
  ~EventLoopServer() override;

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  void start() override;
  void request_stop() noexcept override;
  void wait() override;
  void stop() override;

  [[nodiscard]] bool running() const noexcept override {
    return started_.load(std::memory_order_acquire) &&
           !stopped_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool draining() const noexcept override {
    return stopping_.load(std::memory_order_acquire);
  }
  [[nodiscard]] ServerStats stats() const override;
  [[nodiscard]] std::vector<ConnectionInfo> connections() const override;
  [[nodiscard]] const EventLoopConfig& config() const noexcept { return config_; }

  void adopt_connection(int fd) override;

  /// The FIFO pool END_OF_UTTERANCE captures are scored on; it exists
  /// between start() and stop(). Any task submitted here queues ahead of
  /// the utterances that arrive after it.
  [[nodiscard]] util::ThreadPool& scoring_pool() noexcept { return *scorers_; }

 private:
  class Loop;
  friend class Loop;

  /// Routes a freshly-accepted/adopted fd: BUSY when saturated, shutdown
  /// notice when draining, else round-robin to a loop. Takes fd ownership.
  void dispatch_fd(int fd);

  const core::HeadTalkPipeline& pipeline_;
  EventLoopConfig config_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};

  std::unique_ptr<util::ThreadPool> scorers_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<std::size_t> next_loop_{0};

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
  std::atomic<std::uint64_t> inflight_{0};
  std::atomic<std::uint64_t> deadlines_{0};
};

}  // namespace headtalk::serve
