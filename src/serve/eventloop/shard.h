// Shard plumbing: one serve port, N single-threaded-ish processes.
//
// The obs Registry, the tenant store and the scoring pipeline are all
// process-global, so scaling past one process's loops means real child
// processes — each with its own server, admin plane and metrics. Two
// transports get client connections into the children:
//
//   TCP      — every shard binds the same 127.0.0.1 port with SO_REUSEPORT
//              (make_tcp_listener(port, /*reuseport=*/true)); the kernel
//              spreads accepts across the shard listeners. No parent-side
//              data path at all.
//   AF_UNIX  — unix sockets cannot SO_REUSEPORT, so the parent keeps the
//              public socket path and runs a ShardFront: a tiny accept
//              loop that deals each accepted fd round-robin to the shards
//              over SOCK_SEQPACKET socketpairs with SCM_RIGHTS. A
//              ShardFdReceiver thread in each child picks fds off its
//              channel and hands them to Server::adopt_connection().
//
// Forking happens before any threads exist (the daemon forks shards, THEN
// each child builds its pipeline/server/admin) — the only fork-safe order.
// Per-shard metrics merge back together offline: each shard's admin plane
// serves /metrics.json and `headtalk_client --admin-merge` folds the
// snapshots with obs::merge.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <thread>
#include <vector>

namespace headtalk::serve {

class Server;

/// SOCK_SEQPACKET socketpair for parent→child fd passing. Both ends are
/// CLOEXEC; the caller gives child_end to the forked shard (fds survive
/// fork regardless of CLOEXEC) and closes the end it does not keep.
struct ShardChannel {
  int parent_end = -1;
  int child_end = -1;
};
[[nodiscard]] ShardChannel make_shard_channel();

/// Sends `fd` over the channel as SCM_RIGHTS ancillary data (one message
/// per fd — SEQPACKET keeps the boundaries). False when the peer is gone.
/// The caller still owns (and should close) its copy of `fd`.
bool send_fd(int channel, int fd) noexcept;

/// Receives one fd; -1 on EOF (peer closed) or a hard error.
[[nodiscard]] int recv_fd(int channel) noexcept;

/// Parent-side AF_UNIX front: accepts on the public socket path and deals
/// each connection round-robin across the shard channels. A shard whose
/// channel died is skipped; if every shard is gone the connection is
/// closed. Owns the channel fds it is given.
class ShardFront {
 public:
  ShardFront(std::filesystem::path socket_path, std::vector<int> channels);
  ~ShardFront();

  ShardFront(const ShardFront&) = delete;
  ShardFront& operator=(const ShardFront&) = delete;

  /// Binds the public socket and spawns the accept thread. Throws
  /// std::runtime_error on bind failure.
  void start();
  /// Closes the listener and the shard channels (children see EOF), joins.
  /// Idempotent.
  void stop();

  [[nodiscard]] std::uint64_t forwarded() const noexcept {
    return forwarded_.load(std::memory_order_relaxed);
  }

 private:
  void accept_loop();

  std::filesystem::path socket_path_;
  std::vector<int> channels_;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  std::thread thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> forwarded_{0};
  std::size_t next_ = 0;
};

/// Child-side receiver: blocks on the channel, adopting every arriving fd
/// into the server. Exits on channel EOF (the parent front stopped). The
/// server must outlive the receiver.
class ShardFdReceiver {
 public:
  ShardFdReceiver(int channel, Server& server);
  ~ShardFdReceiver();

  ShardFdReceiver(const ShardFdReceiver&) = delete;
  ShardFdReceiver& operator=(const ShardFdReceiver&) = delete;

  void start();
  /// Shuts the channel down (wakes the blocking recvmsg) and joins.
  /// Idempotent.
  void stop();

  [[nodiscard]] std::uint64_t adopted() const noexcept {
    return adopted_.load(std::memory_order_relaxed);
  }

 private:
  void receive_loop();

  int channel_ = -1;
  Server& server_;
  std::thread thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> adopted_{0};
};

}  // namespace headtalk::serve
