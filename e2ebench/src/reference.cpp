#include "reference.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/scoring_workspace.h"
#include "ml/serialize.h"
#include "room/mic_array.h"
#include "serve/session.h"
#include "stream/streaming_detector.h"
#include "util/thread_pool.h"

namespace e2e {

using namespace headtalk;

std::unique_ptr<core::HeadTalkPipeline> load_pipeline(const std::filesystem::path& dir) {
  auto orientation =
      ml::load_model_file<core::OrientationClassifier>(dir / "orientation.htm");
  auto liveness = ml::load_model_file<core::LivenessDetector>(dir / "liveness.htm");
  core::PipelineConfig config;
  const auto device = room::DeviceSpec::get(room::DeviceId::kD2);
  config.orientation_features.max_mic_distance_m =
      device.max_pair_distance(device.default_channels);
  auto pipeline = std::make_unique<core::HeadTalkPipeline>(
      std::move(orientation), std::move(liveness), config);
  pipeline->set_mode(core::VaMode::kHeadTalk);
  return pipeline;
}

std::vector<Variants> reference_items(const core::HeadTalkPipeline& pipeline,
                                      const std::vector<Item>& items, unsigned jobs) {
  std::vector<Variants> out(items.size());
  util::parallel_for(items.size() * 4, jobs, [&](std::size_t k) {
    const std::size_t i = k / 4;
    const bool followup = (k & 2) != 0, session = (k & 1) != 0;
    out[i].result[followup][session] = pipeline.score_capture(
        items[i].capture, core::VaMode::kHeadTalk, followup, session);
  });
  return out;
}

serve::DecisionFrame expected_frame(const core::PipelineResult& result) {
  serve::DecisionFrame frame;
  frame.decision = static_cast<std::uint8_t>(result.decision);
  frame.live = result.live;
  frame.facing = result.facing;
  frame.via_open_session = result.via_open_session;
  frame.liveness_score = result.liveness_score;
  frame.orientation_score = result.orientation_score;
  frame.policy_applied = false;
  frame.policy_allowed = result.decision == core::Decision::kAccepted;
  return frame;
}

bool same_verdict(const serve::DecisionFrame& e, const serve::DecisionFrame& g) {
  const auto close = [](double a, double b) { return std::abs(a - b) <= 1e-9; };
  return e.decision == g.decision && e.live == g.live && e.facing == g.facing &&
         e.via_open_session == g.via_open_session &&
         e.policy_applied == g.policy_applied && e.policy_allowed == g.policy_allowed &&
         e.policy_reason == g.policy_reason &&
         close(e.liveness_score, g.liveness_score) &&
         close(e.orientation_score, g.orientation_score) &&
         close(e.match_score, g.match_score);
}

ScriptGen::ScriptGen(const std::vector<Item>& items,
                     const std::vector<Variants>& variants, std::uint64_t seed,
                     std::size_t connection)
    : items_(&items),
      variants_(&variants),
      rng_(seed * 0xA24BAED4963EE407ull + 977 * connection + 3) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    (items[i].followup_pool ? followup_pool_ : wake_pool_).push_back(i);
  }
}

WakeStep ScriptGen::next() {
  WakeStep step;
  step.followup = session_open_ && !followup_pool_.empty() && rng_() % 2 == 0;
  const auto& pool = step.followup ? followup_pool_ : wake_pool_;
  step.item = pool[rng_() % pool.size()];
  const auto& result = (*variants_)[step.item].result[step.followup][session_open_];
  step.expect = expected_frame(result);
  step.truth = step.followup ? Truth::kUnlabelled : truth_of((*items_)[step.item].spec);
  step.orientation_skipped = !result.orientation_checked;
  session_open_ = result.session_open_after;
  return step;
}

namespace {

/// The endpointer geometry of the daemon's default streaming config.
CloseGeometry daemon_close_geometry() {
  const serve::SessionLimits limits;
  CloseGeometry g;
  g.vad_frame = static_cast<std::size_t>(
      std::lround(limits.stream.vad.frame_ms * kSampleRate / 1000.0));
  g.hangover_frames = limits.stream.endpoint.hangover_frames;
  g.post_roll_frames = limits.stream.endpoint.post_roll_frames;
  g.chunk_frames = kChunkFrames;
  return g;
}

}  // namespace

std::vector<float> scene_chunk(const Scene& scene, std::size_t index) {
  serve::FrameReader reader;
  const auto& bytes = scene.wire[index];
  reader.feed(bytes.data(), bytes.size());
  const auto frame = reader.next();
  if (!frame) throw std::runtime_error("scene chunk does not decode");
  return serve::parse_audio_chunk(*frame, kChannels).interleaved;
}

audio::MultiBuffer segment_capture(const Scene& scene, std::uint64_t begin,
                                   std::uint64_t end) {
  audio::MultiBuffer out(kChannels, static_cast<std::size_t>(end - begin), kSampleRate);
  for (std::size_t k = static_cast<std::size_t>(begin / kChunkFrames);
       k * kChunkFrames < end && k < scene.wire.size(); ++k) {
    const auto chunk = scene_chunk(scene, k);
    const std::uint64_t first = k * kChunkFrames;
    const std::size_t frames = chunk.size() / kChannels;
    for (std::size_t f = 0; f < frames; ++f) {
      const std::uint64_t at = first + f;
      if (at < begin || at >= end) continue;
      for (std::size_t c = 0; c < kChannels; ++c) {
        out.channel(c)[static_cast<std::size_t>(at - begin)] = chunk[f * kChannels + c];
      }
    }
  }
  return out;
}

StreamRef reference_stream(const core::HeadTalkPipeline& pipeline, const Scene& scene,
                           tenant::TenantService& tenants, const Tenant& tenant) {
  const serve::SessionLimits limits;
  stream::StreamingDetectorConfig config = limits.stream;
  config.mode = limits.mode;
  config.capture_features = true;  // an AUTH'd stream, as in Session
  stream::StreamingDetector detector(pipeline, kChannels, kSampleRate, config);
  core::ScoringWorkspace workspace;
  detector.set_workspace(&workspace);
  const CloseGeometry geometry = daemon_close_geometry();

  StreamRef ref;
  bool session_open = false;
  for (std::size_t k = 0; k < scene.wire.size(); ++k) {
    for (auto& event : detector.push_interleaved(scene_chunk(scene, k))) {
      const std::uint64_t predicted =
          close_chunk(event.end_frame, event.force_closed, geometry);
      if (predicted != k) {
        throw std::runtime_error("close-chunk arithmetic says chunk " +
                                 std::to_string(predicted) + ", endpointer closed on " +
                                 std::to_string(k));
      }
      const auto capture = segment_capture(scene, event.begin_frame, event.end_frame);
      const auto direct = pipeline.score_capture(capture, core::VaMode::kHeadTalk, false,
                                                 session_open);
      if (!same_verdict(expected_frame(direct), expected_frame(event.result))) {
        throw std::runtime_error("streamed segment and score_capture disagree at " +
                                 std::to_string(event.begin_seconds) + " s");
      }
      session_open = event.result.session_open_after;

      StreamEvent out;
      out.close_chunk = k;
      auto& d = out.expect.decision;
      d = expected_frame(event.result);
      const auto policy = tenants.decide(tenant.id, event.result, event.features);
      d.policy_applied = true;
      d.policy_allowed = policy.allowed;
      d.policy_reason = static_cast<std::uint8_t>(policy.reason);
      d.match_score = policy.match_score;
      out.expect.begin_seconds = event.begin_seconds;
      out.expect.end_seconds = event.end_seconds;
      out.expect.force_closed = event.force_closed;
      out.orientation_skipped = !event.result.orientation_checked;
      // Truth: the utterance the segment overlaps most.
      double best = 0.0;
      for (const auto& u : scene.truth) {
        const double overlap = std::min(u.end_seconds, event.end_seconds) -
                               std::max(u.begin_seconds, event.begin_seconds);
        if (overlap > best) {
          best = overlap;
          out.truth = truth_of(u.spec, static_cast<int>(tenant.user));
        }
      }
      ref.events.push_back(out);
    }
  }
  if (!detector.flush().empty()) {
    throw std::runtime_error("scene ends inside a segment; lengthen its tail");
  }
  ref.segments = detector.segments();
  ref.discarded = detector.discarded();
  ref.truth_utterances = scene.truth.size();
  for (const auto& u : scene.truth) {
    for (const auto& e : ref.events) {
      if (e.expect.begin_seconds < u.end_seconds &&
          e.expect.end_seconds > u.begin_seconds) {
        ++ref.truth_found;
        break;
      }
    }
  }
  return ref;
}

}  // namespace e2e
