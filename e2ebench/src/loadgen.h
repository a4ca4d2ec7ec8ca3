// The load generator: one thread driving every connection through one
// ppoll() loop, so the benchmark never holds more connections or threads
// than cores. Wake-word traffic runs open loop (a seeded Poisson schedule;
// latency from the scheduled arrival) or closed loop (back to back per
// connection); streams are paced at a fixed multiple of real time. Every
// DECISION and STREAM_DECISION is checked against the reference as it
// arrives.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "reference.h"
#include "stats.h"

namespace e2e {

/// One phase of a run: warm-up from `start`, measured window
/// [window_start, window_end). With `trace`, every request of the window
/// records spans.
struct Phase {
  double start = 0.0;
  double window_start = 0.0;
  double window_end = 0.0;
  bool trace = false;
};

enum class Outcome : std::uint8_t {
  kPending,
  kOk,
  kMismatch,   ///< verdict differs from the reference
  kError,      ///< ERROR frame
  kDeadline,   ///< ERROR frame with code DEADLINE_EXCEEDED
  kBusy,       ///< BUSY frame
  kAbandoned,  ///< no answer before the drain deadline
};

/// One request (an utterance, or one expected stream segment).
struct Record {
  double sched = 0.0;       ///< due time (open loop / pacing) or send time
  double first_byte = -1.0;  ///< first byte written (streams: of the close chunk)
  double last_byte = -1.0;   ///< last byte written (streams: of the close chunk)
  double answered = -1.0;
  double score_s = 0.0;  ///< the DECISION's server-side elapsed_seconds
  Outcome outcome = Outcome::kPending;
  Truth truth = Truth::kUnlabelled;
  bool accepted = false;
  bool orientation_skipped = false;
  [[nodiscard]] bool in(const Phase& p) const {
    return sched >= p.window_start && sched < p.window_end;
  }
  [[nodiscard]] bool traced(const Phase& p) const {
    return p.trace && in(p);
  }
};

struct LoadResult {
  std::vector<Record> records;  ///< warm-up included; filter with in()
  std::vector<double> lag_s;    ///< generator lateness of window sends
  /// Every audio send: when it was due, how much audio and how many wire
  /// bytes it carried.
  struct Due {
    double at = 0.0;
    double audio_s = 0.0;
    double bytes = 0.0;
  };
  std::vector<Due> sends;
  std::vector<Span> spans;  ///< traced requests only
};

/// Connects to the daemon's Unix socket and completes HELLO (and, for a
/// non-empty `tenant`, AUTH plus STREAM_START). Returns a non-blocking fd.
[[nodiscard]] int open_connection(const std::filesystem::path& socket,
                                  const std::string& tenant, bool stream);

/// Sends one utterance on a fresh connection and waits for its DECISION
/// (set-up's "first answered DECISION").
[[nodiscard]] headtalk::serve::DecisionFrame first_decision(
    const std::filesystem::path& socket, const Item& item);

struct WakeLoad {
  bool open_loop = true;
  double rate_hz = 0.0;  ///< open loop only
  std::uint64_t seed = 0;
};

LoadResult drive_wake(const std::vector<int>& fds, std::vector<ScriptGen>& scripts,
                      const std::vector<Item>& items, const WakeLoad& load,
                      const Phase& phase);

/// Each connection loops its scene: STREAM_START .. chunks .. STREAM_END.
LoadResult drive_stream(const std::vector<int>& fds,
                        const std::vector<const Scene*>& scenes,
                        const std::vector<const StreamRef*>& refs, double speed,
                        const Phase& phase);

}  // namespace e2e
