// Readiness multiplexer behind the server's event loops.
//
// One Poller watches the fds of one loop thread (listener, wakeup, and
// every connection the loop owns) and reports readiness. Two backends
// implement the same level-triggered contract:
//
//   kEpoll — epoll(7): O(ready) wakeups, the production backend; add/mod/
//            del are O(1) syscalls and wait() scales to thousands of
//            mostly-idle streaming connections.
//   kPoll  — poll(2) over a rebuilt pollfd vector: O(watched) per wait,
//            kept as the portability fallback and to cross-check the
//            epoll path in tests (the server behaves identically on both).
//
// kAuto picks epoll where it exists (Linux) and poll elsewhere. The
// registered `void*` datum is returned verbatim with each event — the
// server stores its per-connection struct there and never does an fd
// lookup on the hot path.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

namespace headtalk::serve {

enum class PollerBackend { kAuto, kEpoll, kPoll };

[[nodiscard]] PollerBackend parse_poller_backend(std::string_view text);
[[nodiscard]] std::string_view poller_backend_name(PollerBackend backend);

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

  virtual ~Poller() = default;

  /// Registers `fd` with the given interest; `data` is echoed back in
  /// every PollerEvent for it. Throws std::runtime_error on failure.
  virtual void add(int fd, std::uint32_t interest, void* data) = 0;
  /// Updates interest (and datum) for a registered fd.
  virtual void modify(int fd, std::uint32_t interest, void* data) = 0;
  /// Deregisters; safe to call for fds about to be closed.
  virtual void remove(int fd) = 0;

  /// Blocks up to timeout_ms (-1 = forever) and fills `out` with ready
  /// fds; returns the count (0 on timeout). EINTR reports as 0.
  [[nodiscard]] virtual int wait(std::span<PollerEvent> out, int timeout_ms) = 0;

  [[nodiscard]] virtual PollerBackend backend() const noexcept = 0;

  /// Factory; kAuto resolves to epoll on Linux, poll otherwise.
  [[nodiscard]] static std::unique_ptr<Poller> create(
      PollerBackend backend = PollerBackend::kAuto);
};

}  // namespace headtalk::serve
