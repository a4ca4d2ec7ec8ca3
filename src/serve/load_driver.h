// Multiplexed load generator for the serving daemon.
//
// BlockingClient does one connection per thread, which cannot express
// "1000 concurrent streaming clients" on a small host. LoadDriver drives
// every connection from ONE thread over the same Poller the server's loops
// use: per-connection nonblocking state machines (connect →
// HELLO → fire utterances → await DECISIONs) with pre-encoded frame
// blobs, so the generator costs almost nothing per connection and the
// measured latencies are the server's.
//
// Two load disciplines:
//   closed loop (arrival_rps == 0) — every connection fires its next
//     utterance the moment the previous DECISION lands; throughput is
//     whatever the server sustains.
//   open loop (arrival_rps > 0) — utterances arrive on a fixed global
//     schedule (k-th at start + k/rps) regardless of completions, the
//     honest way to measure latency under load: if the server falls
//     behind, arrivals backlog and the recorded latency (measured from
//     the *scheduled* arrival instant) grows — no coordinated omission.
//
// Connections ramp in over `ramp_ms` with per-connection jitter instead
// of a thundering connect herd, and are reused across utterances. BUSY
// and ERROR frames close the connection (counted); during the firing
// window it reconnects, mimicking a retrying client fleet.
#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

namespace headtalk::serve {

struct LoadDriverConfig {
  /// Unix target (used when non-empty) …
  std::filesystem::path socket_path;
  /// … or TCP target on 127.0.0.1:<port>.
  int tcp_port = 0;
  /// Concurrent connections to hold open.
  std::size_t connections = 64;
  /// Open-loop global utterance arrival rate; 0 = closed loop.
  double arrival_rps = 0.0;
  /// Stop firing after this many utterances (0 = use duration_seconds).
  std::uint64_t utterances = 0;
  /// Stop firing after this long (0 = use utterances).
  double duration_seconds = 0.0;
  /// Connection ramp window; each connection connects at a uniformly
  /// jittered offset within it. 0 connects everything at once.
  std::uint32_t ramp_ms = 0;
  /// After the firing window closes, how long to wait for outstanding
  /// DECISIONs before giving up on them.
  double drain_grace_seconds = 10.0;
  std::uint16_t channels = 4;
  std::uint32_t sample_rate_hz = 48000;
  /// Length of the synthetic utterance each request carries.
  std::uint32_t utterance_frames = 4800;
  unsigned seed = 1234;
};

struct LoadReport {
  std::uint64_t decisions = 0;
  /// ERROR frames received + protocol/socket failures mid-request.
  std::uint64_t errors = 0;
  std::uint64_t busy_rejections = 0;
  std::uint64_t connects = 0;
  std::uint64_t connect_failures = 0;
  /// Responses that violate the one-DECISION-per-utterance contract (a
  /// DECISION with no request outstanding, or an unknown frame type).
  std::uint64_t protocol_violations = 0;
  /// Utterances fired whose DECISION never arrived (drain grace expired).
  std::uint64_t abandoned = 0;
  double elapsed_seconds = 0.0;
  double offered_rps = 0.0;   ///< scheduled arrival rate (open loop; else 0)
  double achieved_rps = 0.0;  ///< decisions / elapsed
  std::size_t peak_open_connections = 0;
  /// Per-decision latency, scheduled-arrival → DECISION (open loop) or
  /// fire → DECISION (closed loop). Unsorted.
  std::vector<double> latencies_seconds;
};

/// Runs the configured load to completion on the calling thread.
[[nodiscard]] LoadReport run_load(const LoadDriverConfig& config);

}  // namespace headtalk::serve
