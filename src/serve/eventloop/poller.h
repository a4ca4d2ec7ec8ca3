// Readiness multiplexer behind the server's event loops and the load
// driver: a thin level-triggered wrapper over epoll(7).
//
// One Poller watches the fds of one loop thread (listener, wakeup, and
// every connection the loop owns) and reports readiness. add/modify/remove
// are O(1) syscalls and wait() costs O(ready), so it scales to thousands
// of mostly-idle streaming connections. The registered `void*` datum is
// returned verbatim with each event — the server stores its per-connection
// struct there and never does an fd lookup on the hot path.
#pragma once

#include <sys/epoll.h>

#include <cstdint>
#include <span>
#include <vector>

namespace headtalk::serve {

struct PollerEvent {
  void* data = nullptr;
  bool readable = false;
  bool writable = false;
  /// Error/hangup on the fd (reported even when not subscribed).
  bool error = false;
};

class Poller {
 public:
  /// Interest bits for add()/modify().
  static constexpr std::uint32_t kRead = 1u << 0;
  static constexpr std::uint32_t kWrite = 1u << 1;

  /// Throws std::runtime_error when the epoll instance cannot be created.
  Poller();
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Registers `fd` with the given interest; `data` is echoed back in
  /// every PollerEvent for it. Throws std::runtime_error on failure.
  void add(int fd, std::uint32_t interest, void* data);
  /// Updates interest (and datum) for a registered fd.
  void modify(int fd, std::uint32_t interest, void* data);
  /// Deregisters; safe to call for fds about to be closed.
  void remove(int fd);

  /// Blocks up to timeout_ms (-1 = forever) and fills `out` with ready
  /// fds; returns the count (0 on timeout). EINTR reports as 0.
  [[nodiscard]] int wait(std::span<PollerEvent> out, int timeout_ms);

 private:
  int epfd_ = -1;
  std::vector<epoll_event> scratch_;
};

}  // namespace headtalk::serve
