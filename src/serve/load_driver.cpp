#include "serve/load_driver.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <random>
#include <stdexcept>

#include "serve/eventloop/poller.h"
#include "serve/listener.h"
#include "serve/protocol.h"

namespace headtalk::serve {
namespace {

using Clock = std::chrono::steady_clock;

enum class ConnState {
  kClosed,        ///< not connected (waiting for its connect_at)
  kConnecting,    ///< nonblocking connect in flight
  kSending,       ///< blob partially written; awaiting writability
  kAwaitHelloOk,  ///< HELLO flushed; awaiting HELLO_OK
  kAwaitDecision, ///< utterance flushed; awaiting DECISION
  kIdle,          ///< ready to fire the next utterance
  kDone,          ///< closed for good (firing window over)
};

struct Conn {
  int fd = -1;
  ConnState state = ConnState::kClosed;
  ConnState after_send = ConnState::kIdle;  ///< state once the blob flushes
  FrameReader reader;
  const std::vector<std::uint8_t>* blob = nullptr;
  std::size_t blob_off = 0;
  Clock::time_point connect_at{};
  Clock::time_point fire_basis{};  ///< latency zero point of the in-flight utterance
  std::uint32_t interest = 0;
};

struct Driver {
  explicit Driver(const LoadDriverConfig& config) : cfg(config) {}

  const LoadDriverConfig& cfg;
  Poller poller;
  std::vector<Conn> conns;
  std::vector<Conn*> idle;
  std::deque<Clock::time_point> backlog;  ///< scheduled, unassigned arrivals
  LoadReport report;

  std::vector<std::uint8_t> hello_blob;
  std::vector<std::uint8_t> utterance_blob;

  Clock::time_point start{};
  Clock::time_point window_end{Clock::time_point::max()};
  Clock::time_point next_arrival{Clock::time_point::max()};
  std::uint64_t fired = 0;        ///< utterances assigned to a connection
  std::uint64_t scheduled = 0;    ///< arrivals generated (open loop)
  std::uint64_t outstanding = 0;  ///< fired, DECISION not yet in
  bool window_open = true;

  void set_interest(Conn& c, std::uint32_t want) {
    if (want != c.interest) {
      poller.modify(c.fd, want, &c);
      c.interest = want;
    }
  }

  void close_conn(Conn& c, bool reconnect) {
    if (c.fd >= 0) {
      poller.remove(c.fd);
      close_quietly(c.fd);
      c.fd = -1;
    }
    c.reader = FrameReader();
    c.blob = nullptr;
    c.blob_off = 0;
    c.interest = 0;
    if (reconnect && window_open) {
      c.state = ConnState::kClosed;
      c.connect_at = Clock::now() + std::chrono::milliseconds(50);
    } else {
      c.state = ConnState::kDone;
    }
  }

  /// A request died without a DECISION.
  void lose_inflight(Conn& c) {
    if (c.state == ConnState::kAwaitDecision ||
        (c.state == ConnState::kSending && c.after_send == ConnState::kAwaitDecision)) {
      report.errors += 1;
      outstanding -= 1;
    }
  }

  void start_connect(Conn& c) {
    int fd = -1;
    if (!cfg.socket_path.empty()) {
      fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    } else {
      fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    }
    if (fd < 0) {
      report.connect_failures += 1;
      c.connect_at = Clock::now() + std::chrono::milliseconds(50);
      return;
    }
    int rc;
    if (!cfg.socket_path.empty()) {
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      const std::string text = cfg.socket_path.string();
      if (text.size() >= sizeof(addr.sun_path)) {
        throw std::runtime_error("load: unix socket path too long");
      }
      std::memcpy(addr.sun_path, text.c_str(), text.size() + 1);
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    } else {
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(cfg.tcp_port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    }
    if (rc != 0 && errno != EINPROGRESS) {
      close_quietly(fd);
      report.connect_failures += 1;
      c.connect_at = Clock::now() + std::chrono::milliseconds(50);
      return;
    }
    report.connects += 1;
    c.fd = fd;
    c.interest = 0;
    if (rc == 0) {
      poller.add(fd, 0, &c);
      begin_send(c, hello_blob, ConnState::kAwaitHelloOk);
    } else {
      c.state = ConnState::kConnecting;
      poller.add(fd, Poller::kWrite, &c);
      c.interest = Poller::kWrite;
    }
  }

  void begin_send(Conn& c, const std::vector<std::uint8_t>& blob,
                  ConnState after) {
    c.blob = &blob;
    c.blob_off = 0;
    c.after_send = after;
    c.state = ConnState::kSending;
    continue_send(c);
  }

  void continue_send(Conn& c) {
    while (c.blob_off < c.blob->size()) {
      const ssize_t n = ::send(c.fd, c.blob->data() + c.blob_off,
                               c.blob->size() - c.blob_off,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        c.blob_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        set_interest(c, Poller::kRead | Poller::kWrite);
        return;
      }
      lose_inflight(c);
      close_conn(c, /*reconnect=*/true);
      return;
    }
    c.blob = nullptr;
    c.state = c.after_send;
    set_interest(c, Poller::kRead);
  }

  void mark_idle(Conn& c) {
    c.state = ConnState::kIdle;
    idle.push_back(&c);
  }

  /// Fires one utterance on an idle connection; `basis` is the latency
  /// zero point (scheduled arrival for open loop, now for closed loop).
  void fire(Conn& c, Clock::time_point basis) {
    fired += 1;
    outstanding += 1;
    c.fire_basis = basis;
    begin_send(c, utterance_blob, ConnState::kAwaitDecision);
  }

  Conn* pop_idle() {
    while (!idle.empty()) {
      Conn* c = idle.back();
      idle.pop_back();
      if (c->state == ConnState::kIdle) return c;
    }
    return nullptr;
  }

  void on_frame(Conn& c, const Frame& frame) {
    switch (frame.type) {
      case FrameType::kHelloOk:
        if (c.state != ConnState::kAwaitHelloOk) {
          report.protocol_violations += 1;
          close_conn(c, true);
          return;
        }
        mark_idle(c);
        return;
      case FrameType::kDecision: {
        if (c.state != ConnState::kAwaitDecision) {
          // Exactly-one-DECISION contract: an unsolicited decision is a
          // server bug the stress test exists to catch.
          report.protocol_violations += 1;
          close_conn(c, true);
          return;
        }
        report.decisions += 1;
        outstanding -= 1;
        report.latencies_seconds.push_back(
            std::chrono::duration<double>(Clock::now() - c.fire_basis).count());
        mark_idle(c);
        return;
      }
      case FrameType::kBusy:
        report.busy_rejections += 1;
        lose_inflight(c);
        close_conn(c, true);
        return;
      case FrameType::kError:
        lose_inflight(c);
        if (c.state != ConnState::kAwaitDecision) report.errors += 1;
        close_conn(c, true);
        return;
      default:
        report.protocol_violations += 1;
        close_conn(c, true);
        return;
    }
  }

  void on_readable(Conn& c) {
    std::uint8_t buffer[1 << 15];
    while (c.fd >= 0) {
      const ssize_t n = ::recv(c.fd, buffer, sizeof buffer, MSG_DONTWAIT);
      if (n == 0) {
        lose_inflight(c);
        close_conn(c, true);
        return;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        lose_inflight(c);
        close_conn(c, true);
        return;
      }
      try {
        c.reader.feed(buffer, static_cast<std::size_t>(n));
        while (c.fd >= 0) {
          const auto frame = c.reader.next();
          if (!frame) break;
          on_frame(c, *frame);
        }
      } catch (const ProtocolError&) {
        report.protocol_violations += 1;
        lose_inflight(c);
        close_conn(c, true);
        return;
      }
    }
  }

  void on_event(const PollerEvent& event) {
    Conn& c = *static_cast<Conn*>(event.data);
    if (c.fd < 0) return;
    if (c.state == ConnState::kConnecting && (event.writable || event.error)) {
      int err = 0;
      socklen_t len = sizeof err;
      if (::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
        report.connect_failures += 1;
        close_conn(c, true);
        return;
      }
      begin_send(c, hello_blob, ConnState::kAwaitHelloOk);
      return;
    }
    if (event.writable && c.state == ConnState::kSending) {
      continue_send(c);
      if (c.fd < 0) return;
    }
    if (event.readable) {
      on_readable(c);
      return;
    }
    if (event.error) {
      lose_inflight(c);
      close_conn(c, true);
    }
  }

  LoadReport run();
};

LoadReport Driver::run() {
  if (cfg.socket_path.empty() && cfg.tcp_port <= 0) {
    throw std::runtime_error("load: no target (socket path or tcp port)");
  }
  conns.resize(std::max<std::size_t>(1, cfg.connections));

  std::mt19937 rng(cfg.seed);

  // Pre-encode the wire blobs once; every connection replays the same
  // bytes, so per-utterance generator cost is one send() path.
  Hello hello;
  hello.sample_rate_hz = cfg.sample_rate_hz;
  hello.channels = cfg.channels;
  hello_blob = encode_hello(hello);
  {
    std::uniform_real_distribution<float> amp(-0.5F, 0.5F);
    std::vector<float> interleaved(
        static_cast<std::size_t>(cfg.utterance_frames) * cfg.channels);
    for (float& sample : interleaved) sample = amp(rng);
    utterance_blob = encode_audio_chunk(interleaved, cfg.channels);
    const auto eou = encode_end_of_utterance(false);
    utterance_blob.insert(utterance_blob.end(), eou.begin(), eou.end());
  }

  start = Clock::now();
  // Connection ramp: uniform jitter across the window, not a connect herd.
  std::uniform_int_distribution<std::uint32_t> jitter(0, std::max(1u, cfg.ramp_ms));
  for (auto& c : conns) {
    c.connect_at = cfg.ramp_ms > 0
                       ? start + std::chrono::milliseconds(jitter(rng))
                       : start;
  }

  const std::uint64_t utterance_target =
      cfg.utterances > 0
          ? cfg.utterances
          : (cfg.duration_seconds > 0.0 ? 0 : conns.size());  // 0 = unbounded
  if (cfg.duration_seconds > 0.0) {
    window_end = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(cfg.duration_seconds));
  }
  const bool open_loop = cfg.arrival_rps > 0.0;
  if (open_loop) {
    next_arrival = start;
    report.offered_rps = cfg.arrival_rps;
  }

  Clock::time_point grace_end = Clock::time_point::max();
  std::vector<PollerEvent> events(std::max<std::size_t>(64, conns.size()));

  while (true) {
    const auto now = Clock::now();

    // Close the firing window on duration/count.
    if (window_open &&
        ((utterance_target > 0 && fired >= utterance_target) || now >= window_end)) {
      window_open = false;
      grace_end = now + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(cfg.drain_grace_seconds));
    }

    if (window_open) {
      // Bring up due connections.
      for (auto& c : conns) {
        if (c.state == ConnState::kClosed && now >= c.connect_at) start_connect(c);
      }
      if (open_loop) {
        // Generate scheduled arrivals up to now (open loop: completions
        // don't gate this), then assign the backlog to idle connections.
        const auto period = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(1.0 / cfg.arrival_rps));
        while (next_arrival <= now &&
               (utterance_target == 0 || scheduled < utterance_target)) {
          backlog.push_back(next_arrival);
          scheduled += 1;
          next_arrival += period;
        }
        while (!backlog.empty()) {
          Conn* c = pop_idle();
          if (c == nullptr) break;
          const auto basis = backlog.front();
          backlog.pop_front();
          fire(*c, basis);
        }
      } else {
        while (utterance_target == 0 || fired < utterance_target) {
          Conn* c = pop_idle();
          if (c == nullptr) break;
          fire(*c, now);
        }
      }
    } else {
      // Window closed: idle connections are done; outstanding ones drain.
      Conn* c;
      while ((c = pop_idle()) != nullptr) close_conn(*c, false);
      for (auto& conn : conns) {
        if (conn.state == ConnState::kClosed) conn.state = ConnState::kDone;
      }
      if (outstanding == 0) break;
      if (now >= grace_end) {
        report.abandoned = outstanding;
        break;
      }
    }

    std::size_t open = 0;
    for (const auto& c : conns) {
      if (c.fd >= 0) ++open;
    }
    report.peak_open_connections = std::max(report.peak_open_connections, open);

    // Sleep until the next scheduled thing (arrival, connect, grace) or a
    // socket event.
    auto next_tick = Clock::time_point::max();
    if (window_open) {
      if (open_loop && (utterance_target == 0 || scheduled < utterance_target)) {
        next_tick = std::min(next_tick, next_arrival);
      }
      next_tick = std::min(next_tick, window_end);
      for (const auto& c : conns) {
        if (c.state == ConnState::kClosed) next_tick = std::min(next_tick, c.connect_at);
      }
    } else {
      next_tick = grace_end;
    }
    int timeout_ms = 100;
    if (next_tick != Clock::time_point::max()) {
      const auto delta =
          std::chrono::duration_cast<std::chrono::milliseconds>(next_tick - now)
              .count();
      timeout_ms = static_cast<int>(std::clamp<long long>(delta, 0, 100));
    }
    const int n = poller.wait(events, timeout_ms);
    for (int i = 0; i < n; ++i) on_event(events[static_cast<std::size_t>(i)]);
  }

  for (auto& c : conns) close_conn(c, false);
  report.elapsed_seconds = std::chrono::duration<double>(Clock::now() - start).count();
  report.achieved_rps = report.elapsed_seconds > 0.0
                            ? static_cast<double>(report.decisions) /
                                  report.elapsed_seconds
                            : 0.0;
  return report;
}

}  // namespace

LoadReport run_load(const LoadDriverConfig& config) {
  Driver driver(config);
  return driver.run();
}

}  // namespace headtalk::serve
