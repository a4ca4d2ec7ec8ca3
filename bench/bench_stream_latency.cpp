// Streaming detection: segmentation recall and decision latency.
//
// Composes one continuous simulated scene — facing-live, not-facing-live,
// and phone-replay utterances separated by silence gaps over an ambient
// floor — pushes it chunk-by-chunk through the StreamingDetector, and
// checks (a) that VAD + endpointing recover every planted utterance
// (segmentation recall), and (b) that each streaming decision matches
// scoring the truth span through the same pipeline pre-segmented
// (verdict match). The perf record gains segmentation_recall,
// verdict_match, segments, force_closed, and the per-segment decision
// latency percentiles (stream_p50/p95/p99_seconds).
//
// Knobs: $HEADTALK_STREAM_BENCH_ROUNDS repeats the 3-utterance pattern
// (default 1) and $HEADTALK_STREAM_BENCH_CHUNK_MS sets push granularity
// (default 100).
#include <algorithm>

#include "bench_common.h"
#include "core/pipeline.h"
#include "core/scoring_workspace.h"
#include "sim/stream_scene.h"
#include "stream/streaming_detector.h"

using namespace headtalk;

namespace {

ml::Dataset to_dataset(const std::vector<sim::OrientationSample>& samples, int label) {
  ml::Dataset d;
  for (const auto& s : samples) d.add(s.features, label);
  return d;
}

}  // namespace

int main() {
  bench::print_title("stream_latency",
                     "streaming segmentation recall + decision latency");

  const unsigned rounds = bench::env_or("HEADTALK_STREAM_BENCH_ROUNDS", 1);
  const unsigned chunk_ms = bench::env_or("HEADTALK_STREAM_BENCH_CHUNK_MS", 100);
  auto collector = bench::make_collector();

  // --- A small real pipeline (cached features make reruns cheap) ---
  sim::SpecGrid grid;
  grid.locations = {{sim::GridRadial::kMiddle, 3.0}};
  grid.angles = {0.0, 15.0, -15.0, 120.0, -120.0, 180.0};
  grid.sessions = {0};
  grid.repetitions = 2;
  const auto orientation_samples =
      bench::collect(collector, grid.build(), "orientation training");
  core::OrientationClassifier orientation;
  orientation.train(
      sim::facing_dataset(orientation_samples, core::FacingDefinition::kDefinition4));

  sim::SpecGrid live = grid;
  live.angles = {0.0, 120.0};
  sim::SpecGrid phone = live;
  phone.replay = sim::ReplaySource::kSmartphone;
  ml::Dataset liveness_data;
  liveness_data.append(to_dataset(
      bench::collect_liveness(collector, live.build(), "liveness live"),
      core::kLabelLive));
  liveness_data.append(to_dataset(
      bench::collect_liveness(collector, phone.build(), "liveness phone replay"),
      core::kLabelReplay));
  core::LivenessDetector liveness;
  liveness.train(liveness_data);

  const core::HeadTalkPipeline pipeline(std::move(orientation), std::move(liveness));

  // --- The scene: facing-live, not-facing-live, phone replay, repeated ---
  std::vector<sim::SampleSpec> specs;
  for (unsigned round = 0; round < rounds; ++round) {
    sim::SampleSpec base;
    base.location = {sim::GridRadial::kMiddle, 3.0};
    base.session = 1;  // a session the training grid never saw
    base.repetition = round;

    sim::SampleSpec facing = base;
    facing.angle_deg = 0.0;
    sim::SampleSpec away = base;
    away.angle_deg = 120.0;
    sim::SampleSpec replay = base;
    replay.angle_deg = 0.0;
    replay.replay = sim::ReplaySource::kSmartphone;
    specs.push_back(facing);
    specs.push_back(away);
    specs.push_back(replay);
  }
  const auto scene = sim::render_stream_scene(collector, specs);
  const double fs = scene.audio.sample_rate();
  std::printf("scene: %.1f s, %zu utterances, chunk %u ms\n",
              static_cast<double>(scene.audio.frames()) / fs,
              scene.utterances.size(), chunk_ms);

  // --- Stream it ---
  stream::StreamingDetector detector(pipeline, scene.audio.channel_count(), fs);
  core::ScoringWorkspace workspace;
  detector.set_workspace(&workspace);
  std::vector<stream::DecisionEvent> events;
  const auto chunk_frames = static_cast<std::size_t>(
      std::max(1.0, static_cast<double>(chunk_ms) * fs / 1000.0));
  for (std::size_t begin = 0; begin < scene.audio.frames(); begin += chunk_frames) {
    const std::size_t count = std::min(chunk_frames, scene.audio.frames() - begin);
    audio::MultiBuffer chunk(scene.audio.channel_count(), count, fs);
    for (std::size_t c = 0; c < scene.audio.channel_count(); ++c) {
      std::copy_n(scene.audio.channel(c).samples().data() + begin, count,
                  chunk.channel(c).samples().data());
    }
    auto closed = detector.push(chunk);
    events.insert(events.end(), closed.begin(), closed.end());
  }
  auto closed = detector.flush();
  events.insert(events.end(), closed.begin(), closed.end());

  // --- Segmentation recall: every truth utterance overlapped by a segment ---
  std::size_t recalled = 0;
  std::vector<const stream::DecisionEvent*> matched(scene.utterances.size(), nullptr);
  for (std::size_t u = 0; u < scene.utterances.size(); ++u) {
    const auto& truth = scene.utterances[u];
    for (const auto& event : events) {
      if (event.begin_seconds < truth.end_seconds &&
          event.end_seconds > truth.begin_seconds) {
        matched[u] = &event;
        break;
      }
    }
    if (matched[u] != nullptr) ++recalled;
  }
  const double recall =
      static_cast<double>(recalled) / static_cast<double>(scene.utterances.size());

  // --- Verdict match: pre-segmented scoring of the truth spans, with the
  // same carried session flag the detector uses ---
  std::size_t verdict_hits = 0;
  bool session_open = false;
  for (std::size_t u = 0; u < scene.utterances.size(); ++u) {
    const auto& truth = scene.utterances[u];
    const auto begin = static_cast<std::size_t>(truth.begin_seconds * fs);
    const auto end = std::min(scene.audio.frames(),
                              static_cast<std::size_t>(truth.end_seconds * fs));
    audio::MultiBuffer span(scene.audio.channel_count(), end - begin, fs);
    for (std::size_t c = 0; c < scene.audio.channel_count(); ++c) {
      std::copy_n(scene.audio.channel(c).samples().data() + begin, end - begin,
                  span.channel(c).samples().data());
    }
    const auto baseline = pipeline.score_capture(span, core::VaMode::kHeadTalk,
                                                 /*followup=*/false, session_open,
                                                 &workspace);
    session_open = baseline.session_open_after;
    if (matched[u] != nullptr && matched[u]->result.decision == baseline.decision) {
      ++verdict_hits;
    }
    std::printf("  utterance %zu [%5.2f..%5.2f s]: streamed %-20s presegmented %s\n",
                u, truth.begin_seconds, truth.end_seconds,
                matched[u] != nullptr
                    ? std::string(core::decision_name(matched[u]->result.decision)).c_str()
                    : "MISSED",
                std::string(core::decision_name(baseline.decision)).c_str());
  }
  const double verdict_match =
      static_cast<double>(verdict_hits) / static_cast<double>(scene.utterances.size());

  // --- Latency percentiles over the per-segment scoring latency ---
  std::vector<double> latencies;
  for (const auto& event : events) latencies.push_back(event.latency_seconds);
  std::sort(latencies.begin(), latencies.end());
  const auto quantile = [&](double q) {
    if (latencies.empty()) return 0.0;
    const auto rank =
        static_cast<std::size_t>(q * static_cast<double>(latencies.size() - 1));
    return latencies[rank];
  };
  const double p50 = quantile(0.50), p95 = quantile(0.95), p99 = quantile(0.99);

  std::printf("segments %zu (force-closed %zu, discarded %zu)\n", detector.segments(),
              detector.force_closed(), detector.discarded());
  std::printf("segmentation recall %.2f  verdict match %.2f\n", recall, verdict_match);
  std::printf("decision latency p50 %.1f ms  p95 %.1f ms  p99 %.1f ms\n",
              1000.0 * p50, 1000.0 * p95, 1000.0 * p99);
  bench::print_note(
      "latency is endpoint-to-decision: features accumulate incrementally\n"
      "while the segment is open, so close pays only the residual frame\n"
      "feed plus the O(1) finalize+score, measured per closed segment.");

  bench::PerfRecorder::instance().add_samples(events.size());
  bench::PerfRecorder::instance().set_metric("segmentation_recall", recall);
  bench::PerfRecorder::instance().set_metric("verdict_match", verdict_match);
  bench::PerfRecorder::instance().set_metric("segments",
                                             static_cast<double>(detector.segments()));
  bench::PerfRecorder::instance().set_metric(
      "force_closed", static_cast<double>(detector.force_closed()));
  bench::PerfRecorder::instance().set_metric("stream_p50_seconds", p50);
  bench::PerfRecorder::instance().set_metric("stream_p95_seconds", p95);
  bench::PerfRecorder::instance().set_metric("stream_p99_seconds", p99);

  return recall >= 1.0 && verdict_match >= 1.0 ? 0 : 1;
}
