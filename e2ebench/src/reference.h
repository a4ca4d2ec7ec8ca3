// The in-process reference every served verdict is checked against: the
// same models the daemon loaded, scored through
// HeadTalkPipeline::score_capture (and, for streams, the StreamingDetector
// plus the tenant policy the daemon applies on an AUTH'd connection).
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <random>
#include <vector>

#include "core/pipeline.h"
#include "corpus.h"
#include "serve/protocol.h"
#include "stats.h"
#include "tenant/service.h"

namespace e2e {

/// Loads the pipeline exactly as headtalk_serve does (device D2 aperture).
[[nodiscard]] std::unique_ptr<headtalk::core::HeadTalkPipeline> load_pipeline(
    const std::filesystem::path& models_dir);

/// Reference results of one item for every (followup, session-open)
/// context a connection can send it in.
struct Variants {
  headtalk::core::PipelineResult result[2][2];  ///< [followup][session_open]
};

[[nodiscard]] std::vector<Variants> reference_items(
    const headtalk::core::HeadTalkPipeline& pipeline, const std::vector<Item>& items,
    unsigned jobs);

/// The DECISION a tenant-less connection must answer for `result`.
[[nodiscard]] headtalk::serve::DecisionFrame expected_frame(
    const headtalk::core::PipelineResult& result);

/// Verdict equality: every verdict field, scores to 1e-9.
[[nodiscard]] bool same_verdict(const headtalk::serve::DecisionFrame& expected,
                                const headtalk::serve::DecisionFrame& got);

/// One utterance of a per-connection wake-word script.
struct WakeStep {
  std::size_t item = 0;
  bool followup = false;
  headtalk::serve::DecisionFrame expect;
  Truth truth = Truth::kUnlabelled;  ///< wake words only; follow-ups unlabelled
  bool orientation_skipped = false;
};

/// Endless deterministic script for one connection: wake words drawn from
/// the mix, and after a wake word the reference accepts, a follow-up
/// command half of the time. The connection's HeadTalk session flag is
/// tracked from the reference verdicts, so every step's expected DECISION
/// is known before it is sent.
class ScriptGen {
 public:
  ScriptGen(const std::vector<Item>& items, const std::vector<Variants>& variants,
            std::uint64_t seed, std::size_t connection);
  WakeStep next();

 private:
  const std::vector<Item>* items_;
  const std::vector<Variants>* variants_;
  std::vector<std::size_t> wake_pool_, followup_pool_;
  std::mt19937_64 rng_;
  bool session_open_ = false;
};

/// One STREAM_DECISION a streaming connection must receive.
struct StreamEvent {
  headtalk::serve::StreamDecisionFrame expect;
  std::uint64_t close_chunk = 0;  ///< chunk whose arrival closes the segment
  Truth truth = Truth::kUnlabelled;
  bool orientation_skipped = false;
};

struct StreamRef {
  std::vector<StreamEvent> events;
  std::uint64_t segments = 0;
  std::uint64_t discarded = 0;
  std::size_t truth_utterances = 0;
  std::size_t truth_found = 0;  ///< truth utterances some segment overlaps
};

/// Runs the scene through an in-process StreamingDetector with the
/// daemon's streaming configuration, chunk by chunk as the wire carries
/// it, applies `tenant`'s policy through `tenants`, and cross-checks every
/// segment against score_capture on the segment's samples and every close
/// against close_chunk(). Throws if either disagrees.
[[nodiscard]] StreamRef reference_stream(const headtalk::core::HeadTalkPipeline& pipeline,
                                         const Scene& scene,
                                         headtalk::tenant::TenantService& tenants,
                                         const Tenant& tenant);

/// Decodes chunk `index` of a scene back to interleaved float32.
[[nodiscard]] std::vector<float> scene_chunk(const Scene& scene, std::size_t index);

/// The scene's samples [begin, end) as a capture, decoded from the wire.
[[nodiscard]] headtalk::audio::MultiBuffer segment_capture(const Scene& scene,
                                                           std::uint64_t begin,
                                                           std::uint64_t end);

}  // namespace e2e
