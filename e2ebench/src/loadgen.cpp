#include "loadgen.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <random>
#include <stdexcept>

#include "proc.h"

namespace e2e {

using namespace headtalk;

namespace {

constexpr double kDrainSeconds = 30.0;

struct OutBuf {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  std::size_t off = 0;
  long slot = -1;  ///< entry of the write-times table this buffer stamps
  bool first = false;
  bool last = false;
};

struct Conn {
  int fd = -1;
  serve::FrameReader reader;
  std::deque<OutBuf> out;
  std::deque<std::size_t> awaiting;  ///< records awaiting a DECISION, FIFO
  bool dead = false;
};

const std::vector<std::uint8_t>& eou_bytes(bool followup) {
  static const auto plain = serve::encode_end_of_utterance(false);
  static const auto follow = serve::encode_end_of_utterance(true);
  return followup ? follow : plain;
}

void write_all_blocking(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

serve::Frame read_frame_blocking(int fd, serve::FrameReader& reader, int timeout_ms) {
  const double deadline = now_s() + timeout_ms / 1000.0;
  for (;;) {
    if (auto frame = reader.next()) return std::move(*frame);
    pollfd p{fd, POLLIN, 0};
    const int wait = static_cast<int>(std::max(0.0, (deadline - now_s()) * 1000.0));
    if (::poll(&p, 1, wait) <= 0) {
      throw std::runtime_error("daemon did not answer in time");
    }
    std::uint8_t buffer[65536];
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) throw std::runtime_error("daemon closed the connection");
    reader.feed(buffer, static_cast<std::size_t>(n));
  }
}

serve::Frame expect_frame(int fd, serve::FrameReader& reader, serve::FrameType type) {
  auto frame = read_frame_blocking(fd, reader, 10000);
  if (frame.type != type) {
    throw std::runtime_error("expected " + std::string(serve::frame_type_name(type)) +
                             ", got " + std::string(serve::frame_type_name(frame.type)));
  }
  return frame;
}

int connect_unix(const std::filesystem::path& socket) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string path = socket.string();
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect " + path + ": " + std::strerror(errno));
  }
  return fd;
}

/// First/last byte write times, indexed by OutBuf::slot.
using WriteTimes = std::vector<std::pair<double, double>>;

/// Writes as much queued output as the socket takes right now.
void flush_out(Conn& conn, WriteTimes& times, double now) {
  while (!conn.out.empty() && !conn.dead) {
    OutBuf& buf = conn.out.front();
    const ssize_t n = ::send(conn.fd, buf.data + buf.off, buf.size - buf.off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      conn.dead = true;
      return;
    }
    if (buf.off == 0 && buf.first && buf.slot >= 0) {
      times[static_cast<std::size_t>(buf.slot)].first = now;
    }
    buf.off += static_cast<std::size_t>(n);
    if (buf.off < buf.size) return;
    if (buf.last && buf.slot >= 0) {
      times[static_cast<std::size_t>(buf.slot)].second = now;
    }
    conn.out.pop_front();
  }
}

/// Reads whatever arrived; returns the complete frames.
std::vector<serve::Frame> read_in(Conn& conn) {
  std::vector<serve::Frame> frames;
  std::uint8_t buffer[65536];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buffer, sizeof buffer, MSG_DONTWAIT);
    if (n > 0) {
      conn.reader.feed(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EINTR)) continue;
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) conn.dead = true;
    break;
  }
  while (auto frame = conn.reader.next()) frames.push_back(std::move(*frame));
  return frames;
}

/// ppoll over every live connection until `until` (or I/O); returns the
/// revents per connection.
std::vector<short> wait_io(std::vector<Conn>& conns, double until) {
  std::vector<pollfd> fds;
  for (auto& c : conns) {
    short events = POLLIN;
    if (!c.out.empty()) events |= POLLOUT;
    fds.push_back({c.dead ? -1 : c.fd, events, 0});
  }
  const double wait = std::max(0.0, until - now_s());
  timespec ts{static_cast<time_t>(wait),
              static_cast<long>((wait - std::floor(wait)) * 1e9)};
  const int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  std::vector<short> out(conns.size(), 0);
  if (rc > 0) {
    for (std::size_t i = 0; i < fds.size(); ++i) out[i] = fds[i].revents;
  }
  return out;
}

void add_spans(LoadResult& result, const Record& r, std::uint64_t request) {
  const int root = static_cast<int>(result.spans.size());
  result.spans.push_back({"request", r.sched, r.answered, -1, request});
  if (r.first_byte >= 0.0) {
    result.spans.push_back({"loadgen.queue", r.sched, r.first_byte, root, request});
    result.spans.push_back({"loadgen.send", r.first_byte, r.last_byte, root, request});
    result.spans.push_back({"daemon.await", r.last_byte, r.answered, root, request});
  } else {
    result.spans.push_back({"daemon.await", r.sched, r.answered, root, request});
  }
}

void fail_outstanding(Conn& conn, std::vector<Record>& records, Outcome outcome) {
  for (const std::size_t r : conn.awaiting) {
    if (records[r].outcome == Outcome::kPending) records[r].outcome = outcome;
  }
  conn.awaiting.clear();
  conn.out.clear();
  conn.dead = true;
}

}  // namespace

int open_connection(const std::filesystem::path& socket, const std::string& tenant,
                    bool stream) {
  const int fd = connect_unix(socket);
  try {
    serve::FrameReader reader;
    write_all_blocking(fd, serve::encode_hello({}));
    (void)serve::parse_hello_ok(expect_frame(fd, reader, serve::FrameType::kHelloOk));
    if (!tenant.empty()) {
      write_all_blocking(fd, serve::encode_auth(tenant));
      (void)serve::parse_auth_ok(expect_frame(fd, reader, serve::FrameType::kAuthOk));
    }
    if (stream) {
      write_all_blocking(fd, serve::encode_stream_start());
      (void)serve::parse_stream_ok(expect_frame(fd, reader, serve::FrameType::kStreamOk));
    }
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  } catch (...) {
    ::close(fd);
    throw;
  }
  return fd;
}

serve::DecisionFrame first_decision(const std::filesystem::path& socket,
                                    const Item& item) {
  const int fd = connect_unix(socket);
  try {
    serve::FrameReader reader;
    write_all_blocking(fd, serve::encode_hello({}));
    (void)expect_frame(fd, reader, serve::FrameType::kHelloOk);
    write_all_blocking(fd, item.chunks);
    write_all_blocking(fd, eou_bytes(false));
    const auto decision =
        serve::parse_decision(expect_frame(fd, reader, serve::FrameType::kDecision));
    ::close(fd);
    return decision;
  } catch (...) {
    ::close(fd);
    throw;
  }
}

LoadResult drive_wake(const std::vector<int>& fds, std::vector<ScriptGen>& scripts,
                      const std::vector<Item>& items, const WakeLoad& load,
                      const Phase& phase) {
  LoadResult result;
  std::vector<WakeStep> steps;
  WriteTimes times;  // per record
  std::vector<Conn> conns(fds.size());
  for (std::size_t i = 0; i < fds.size(); ++i) conns[i].fd = fds[i];

  std::mt19937_64 rng(load.seed * 0x94D049BB133111EBull + 1);
  std::exponential_distribution<double> gap(load.open_loop ? load.rate_hz : 1.0);
  double next_arrival = phase.start;
  std::size_t arrivals = 0;

  const auto issue = [&](std::size_t c, double sched, double now) {
    const WakeStep step = scripts[c].next();
    const Item& item = items[step.item];
    Record r;
    r.sched = sched;
    r.truth = step.truth;
    r.orientation_skipped = step.orientation_skipped;
    const long index = static_cast<long>(result.records.size());
    result.records.push_back(r);
    steps.push_back(step);
    times.emplace_back(-1.0, -1.0);
    if (r.in(phase)) result.lag_s.push_back(generator_lag(sched, now));
    const auto& eou = eou_bytes(step.followup);
    const double bytes = static_cast<double>(item.chunks.size() + eou.size());
    result.sends.push_back({sched, item.audio_seconds, bytes});
    conns[c].out.push_back(
        {item.chunks.data(), item.chunks.size(), 0, index, true, false});
    conns[c].out.push_back({eou.data(), eou.size(), 0, index, false, true});
    conns[c].awaiting.push_back(static_cast<std::size_t>(index));
  };

  if (!load.open_loop) {
    const double now = now_s();
    for (std::size_t c = 0; c < conns.size(); ++c) issue(c, now, now);
  }

  for (;;) {
    double now = now_s();
    if (load.open_loop) {
      while (next_arrival <= now && next_arrival < phase.window_end) {
        issue(arrivals % conns.size(), next_arrival, now);
        ++arrivals;
        next_arrival += gap(rng);
      }
    }
    for (auto& c : conns) flush_out(c, times, now);

    bool outstanding = false;
    for (const auto& c : conns) outstanding |= !c.dead && !c.awaiting.empty();
    const bool scheduling = load.open_loop && next_arrival < phase.window_end;
    if (!scheduling && !outstanding) break;
    if (now > phase.window_end + kDrainSeconds) break;

    const double until = scheduling ? next_arrival
                                    : std::min(now + 0.05,
                                               phase.window_end + kDrainSeconds);
    const auto revents = wait_io(conns, until);
    now = now_s();
    for (std::size_t ci = 0; ci < conns.size(); ++ci) {
      Conn& c = conns[ci];
      if (c.dead) continue;
      if (revents[ci] & POLLOUT) flush_out(c, times, now);
      if (!(revents[ci] & (POLLIN | POLLHUP | POLLERR))) continue;
      for (const auto& frame : read_in(c)) {
        if (c.awaiting.empty()) {
          c.dead = true;  // an answer nobody asked for
          break;
        }
        const std::size_t index = c.awaiting.front();
        Record& r = result.records[index];
        if (frame.type == serve::FrameType::kDecision) {
          c.awaiting.pop_front();
          const auto got = serve::parse_decision(frame);
          r.answered = now;
          r.first_byte = times[index].first;
          r.last_byte = times[index].second;
          r.score_s = got.elapsed_seconds;
          r.accepted = got.policy_allowed;
          r.outcome = same_verdict(steps[index].expect, got) ? Outcome::kOk
                                                              : Outcome::kMismatch;
          if (r.traced(phase)) add_spans(result, r, index);
          if (!load.open_loop && now < phase.window_end) issue(ci, now, now);
        } else if (frame.type == serve::FrameType::kBusy) {
          fail_outstanding(c, result.records, Outcome::kBusy);
        } else if (frame.type == serve::FrameType::kError) {
          const auto error = serve::parse_error(frame);
          fail_outstanding(c, result.records,
                           error.code == serve::ErrorCode::kDeadlineExceeded
                               ? Outcome::kDeadline
                               : Outcome::kError);
        } else {
          fail_outstanding(c, result.records, Outcome::kError);
        }
      }
      if (c.dead) fail_outstanding(c, result.records, Outcome::kAbandoned);
    }
  }
  for (auto& c : conns) fail_outstanding(c, result.records, Outcome::kAbandoned);
  return result;
}

LoadResult drive_stream(const std::vector<int>& fds,
                        const std::vector<const Scene*>& scenes,
                        const std::vector<const StreamRef*>& refs, double speed,
                        const Phase& phase) {
  LoadResult result;
  const double chunk_s = static_cast<double>(kChunkFrames) / kSampleRate / speed;
  const auto stream_end = serve::encode_stream_end();
  const auto stream_start = serve::encode_stream_start();

  enum class State { kStreaming, kAwaitSummary, kAwaitOk, kDone };
  struct Stream {
    State state = State::kStreaming;
    double pass_start = 0.0;
    std::size_t next_chunk = 0;
    std::size_t next_event = 0;
  };
  std::vector<Conn> conns(fds.size());
  std::vector<Stream> streams(fds.size());
  std::vector<WriteTimes> times(fds.size());  // per connection, per chunk of the pass
  for (std::size_t i = 0; i < fds.size(); ++i) {
    conns[i].fd = fds[i];
    streams[i].pass_start = phase.start;
    times[i].assign(scenes[i]->wire.size(), {-1.0, -1.0});
  }
  const auto due = [&](const Stream& s, std::size_t chunk) {
    return s.pass_start + static_cast<double>(chunk + 1) * chunk_s;
  };
  const auto record_event = [&](std::size_t ci, const StreamEvent& e, double answered,
                                Outcome outcome, double score_s, bool accepted) {
    Record r;
    r.sched = due(streams[ci], e.close_chunk);
    r.first_byte = times[ci][e.close_chunk].first;
    r.last_byte = times[ci][e.close_chunk].second;
    r.answered = answered;
    r.score_s = score_s;
    r.outcome = outcome;
    r.truth = e.truth;
    r.accepted = accepted;
    r.orientation_skipped = e.orientation_skipped;
    if (r.traced(phase) && answered >= 0.0) {
      add_spans(result, r, result.records.size());
    }
    result.records.push_back(r);
  };

  for (;;) {
    double now = now_s();
    double next_due = phase.window_end + kDrainSeconds;
    bool active = false;
    for (std::size_t ci = 0; ci < conns.size(); ++ci) {
      Conn& c = conns[ci];
      Stream& s = streams[ci];
      if (c.dead || s.state == State::kDone) continue;
      active = true;
      const Scene& scene = *scenes[ci];
      while (s.state == State::kStreaming && due(s, s.next_chunk) <= now) {
        const double sched = due(s, s.next_chunk);
        const auto& bytes = scene.wire[s.next_chunk];
        c.out.push_back({bytes.data(), bytes.size(), 0,
                         static_cast<long>(s.next_chunk), true, true});
        if (sched >= phase.window_start && sched < phase.window_end) {
          result.lag_s.push_back(generator_lag(sched, now));
        }
        result.sends.push_back({sched, static_cast<double>(kChunkFrames) / kSampleRate,
                                static_cast<double>(bytes.size())});
        if (++s.next_chunk == scene.wire.size()) {
          c.out.push_back({stream_end.data(), stream_end.size(), 0, -1, false, false});
          s.state = State::kAwaitSummary;
        }
      }
      if (s.state == State::kStreaming) {
        next_due = std::min(next_due, due(s, s.next_chunk));
      }
      flush_out(c, times[ci], now);
    }
    if (!active || now > phase.window_end + kDrainSeconds) break;

    const auto revents = wait_io(conns, std::min(next_due, now + 0.05));
    now = now_s();
    for (std::size_t ci = 0; ci < conns.size(); ++ci) {
      Conn& c = conns[ci];
      Stream& s = streams[ci];
      if (c.dead || s.state == State::kDone) continue;
      if (revents[ci] & POLLOUT) flush_out(c, times[ci], now);
      if (!(revents[ci] & (POLLIN | POLLHUP | POLLERR))) continue;
      const StreamRef& ref = *refs[ci];
      for (const auto& frame : read_in(c)) {
        if (frame.type == serve::FrameType::kStreamDecision) {
          const auto got = serve::parse_stream_decision(frame);
          if (s.next_event >= ref.events.size()) {
            record_event(ci, ref.events.back(), now, Outcome::kMismatch, 0.0, false);
            continue;
          }
          const StreamEvent& e = ref.events[s.next_event++];
          const bool same = same_verdict(e.expect.decision, got.decision) &&
                            std::abs(e.expect.begin_seconds - got.begin_seconds) < 1e-9 &&
                            std::abs(e.expect.end_seconds - got.end_seconds) < 1e-9 &&
                            e.expect.force_closed == got.force_closed;
          record_event(ci, e, now, same ? Outcome::kOk : Outcome::kMismatch,
                       got.decision.elapsed_seconds, got.decision.policy_allowed);
        } else if (frame.type == serve::FrameType::kStreamSummary) {
          (void)serve::parse_stream_summary(frame);
          while (s.next_event < ref.events.size()) {
            record_event(ci, ref.events[s.next_event++], -1.0, Outcome::kAbandoned, 0.0,
                         false);
          }
          if (now < phase.window_end) {
            c.out.push_back(
                {stream_start.data(), stream_start.size(), 0, -1, false, false});
            s.state = State::kAwaitOk;
          } else {
            s.state = State::kDone;
          }
        } else if (frame.type == serve::FrameType::kStreamOk) {
          (void)serve::parse_stream_ok(frame);
          const double pass_end = due(s, scenes[ci]->wire.size() - 1);
          s.pass_start = std::max(now, pass_end);
          times[ci].assign(times[ci].size(), {-1.0, -1.0});
          s.next_chunk = 0;
          s.next_event = 0;
          s.state = State::kStreaming;
        } else {
          c.dead = true;
          break;
        }
      }
      if (c.dead) {
        while (s.next_event < ref.events.size()) {
          const Outcome outcome = Outcome::kAbandoned;
          record_event(ci, ref.events[s.next_event++], -1.0, outcome, 0.0, false);
        }
        s.state = State::kDone;
      }
    }
  }
  for (std::size_t ci = 0; ci < conns.size(); ++ci) {
    Stream& s = streams[ci];
    while (s.state != State::kDone && s.next_event < refs[ci]->events.size()) {
      record_event(ci, refs[ci]->events[s.next_event++], -1.0, Outcome::kAbandoned, 0.0,
                   false);
    }
  }
  return result;
}

}  // namespace e2e
