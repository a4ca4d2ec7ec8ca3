// Engine-neutral serving contract.
//
// headtalk_serve can run its connections through two interchangeable
// cores — the thread-per-connection `Server` (serve/server.h) and the
// epoll reactor `EventLoopServer` (serve/eventloop/eventloop_server.h).
// Everything that sits above a serving core (the admin plane, the shard
// front's fd passing, signal handling in the daemon, smoke scripts) talks
// to this interface so the two engines stay behaviourally interchangeable:
// same stats shape, same per-connection table, same drain contract.
#pragma once

#include <cstdint>
#include <vector>

namespace headtalk::serve {

/// Point-in-time counters for tests and the daemon's exit summary.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t busy_rejections = 0;
  std::uint64_t decisions = 0;
  std::uint64_t session_errors = 0;
  std::uint64_t deadline_expirations = 0;
  std::size_t active_connections = 0;
  /// Utterances handed to the scoring pool and not yet scored (event-loop
  /// engine; always 0 under the threaded one, which scores inline on the
  /// connection's worker thread).
  std::uint64_t scores_in_flight = 0;
};

/// One live connection as the admin plane's /stats.json reports it.
struct ConnectionInfo {
  std::uint64_t id = 0;        ///< accept-order id, unique per server run
  bool stream_mode = false;    ///< between STREAM_START and STREAM_END
  std::uint64_t decisions = 0;
  double age_seconds = 0.0;    ///< since accept
  double idle_seconds = 0.0;   ///< since the last bytes from the client
};

/// The serving-core surface both engines implement. Lifecycle:
/// start() binds and spawns threads; request_stop() is async-signal-safe
/// and triggers a graceful drain (in-flight utterances still get their
/// DECISIONs); wait() blocks until a stop was requested, then drains;
/// stop() drains and joins (idempotent, implies request_stop()).
class ServerEngine {
 public:
  virtual ~ServerEngine() = default;

  virtual void start() = 0;
  virtual void request_stop() noexcept = 0;
  virtual void wait() = 0;
  virtual void stop() = 0;

  [[nodiscard]] virtual bool running() const noexcept = 0;
  /// True once a stop/drain has been requested — the admin plane's
  /// /readyz flips to 503 on this, before in-flight utterances finish.
  [[nodiscard]] virtual bool draining() const noexcept = 0;
  [[nodiscard]] virtual ServerStats stats() const = 0;
  /// Snapshot of the live per-connection table (never blocks scoring).
  [[nodiscard]] virtual std::vector<ConnectionInfo> connections() const = 0;

  /// Hands the engine an already-accepted connection fd (the shard front's
  /// SCM_RIGHTS path). The engine owns the fd from here on — it is served
  /// like a locally-accepted connection, answered BUSY + closed when the
  /// engine is saturated, or closed outright when the engine is stopping.
  virtual void adopt_connection(int fd) = 0;
};

}  // namespace headtalk::serve
