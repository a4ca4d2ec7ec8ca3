// The arithmetic the benchmark reports with. Everything here is pure and
// covered by the self-tests in selftest.cpp, which every run executes
// before it measures anything.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// A percentile is printed only when at least this many samples lie
/// beyond it; a p99 therefore needs 1000 samples, never 3.
inline constexpr std::size_t kMinSamplesBeyond = 10;

struct Percentile {
  bool supported = false;  ///< enough samples beyond the rank
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples strictly above the chosen rank
};

/// Nearest-rank percentile: the value at 1-based rank ceil(q * n) of the
/// sorted samples, with `beyond` = n - rank.
inline Percentile percentile(std::vector<double> samples, double q) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty() || q <= 0.0 || q > 1.0) return out;
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  out.value = samples[rank - 1];
  out.beyond = n - rank;
  out.supported = out.beyond >= kMinSamplesBeyond;
  return out;
}

/// Open-loop latency: from when the request was *due* (its scheduled
/// arrival), not from when the generator got round to sending it, so a
/// stall is charged to every request it delayed.
inline double scheduled_latency(double scheduled_s, double answered_s) {
  return answered_s - scheduled_s;
}

/// How late the generator sent a request relative to its schedule.
inline double generator_lag(double scheduled_s, double sent_s) {
  return std::max(0.0, sent_s - scheduled_s);
}

/// Endpointer geometry (stream::EndpointerConfig defaults, in VAD frames)
/// needed to find the chunk that lets a segment close.
struct CloseGeometry {
  std::size_t vad_frame = 960;  ///< samples per VAD frame
  std::size_t hangover_frames = 15;
  std::size_t post_roll_frames = 5;
  std::size_t chunk_frames = 4800;  ///< samples per AUDIO_CHUNK
};

/// Index of the AUDIO_CHUNK whose arrival lets the endpointer close a
/// segment ending (exclusive) at sample `end_frame`. A normal close
/// happens on the VAD frame `hangover - post_roll` frames past the
/// segment end; a force-closed segment closes on its own last frame.
/// Stream latency is measured from that chunk's scheduled send, which
/// keeps the endpointer's hangover wait out of the figure.
inline std::uint64_t close_chunk(std::uint64_t end_frame, bool force_closed,
                                 const CloseGeometry& g) {
  const std::uint64_t needed =
      force_closed ? end_frame
                   : end_frame + static_cast<std::uint64_t>(g.hangover_frames -
                                                            g.post_roll_frames) *
                                     g.vad_frame;
  return (needed + g.chunk_frames - 1) / g.chunk_frames - 1;
}

/// One traced interval. Spans of one utterance share `request`; `parent`
/// indexes the span that caused this one (-1 for a root).
struct Span {
  std::string name;
  double start = 0.0;  ///< seconds on the steady clock
  double end = 0.0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children counted once).
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const auto& span : spans) {
    if (span.parent < 0) continue;
    const auto& p = spans[static_cast<std::size_t>(span.parent)];
    const double a = std::max(span.start, p.start);
    const double b = std::min(span.end, p.end);
    if (b > a) children[static_cast<std::size_t>(span.parent)].emplace_back(a, b);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, cur_a = 0.0, cur_b = 0.0;
    bool open = false;
    for (const auto& [a, b] : kids) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    out[i] = (spans[i].end - spans[i].start) - covered;
  }
  return out;
}

/// Plain median (no honesty rule) for repeated timings of one operation.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace e2e
