// The benchmark's inputs, all rendered from the run's --seed through the
// simulated room (sim::Collector, on-disk feature cache off): the training
// grid, the tenants' enrollment captures, the wake-word test mix and the
// always-listening scenes.
#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

#include "audio/sample_buffer.h"
#include "sim/collector.h"
#include "sim/spec.h"
#include "sim/stream_scene.h"

namespace e2e {

inline constexpr double kSampleRate = 48000.0;
inline constexpr std::uint16_t kChannels = 4;
/// Frames per AUDIO_CHUNK: 100 ms, the shipped client's default.
inline constexpr std::size_t kChunkFrames = 4800;

/// Tenants enrolled for the streaming workload, and the simulated user
/// each one enrolled with.
struct Tenant {
  const char* id;
  unsigned user;
};
inline constexpr Tenant kTenants[] = {{"alice", 0}, {"bob", 1}};

/// Ground truth of one utterance under HeadTalk's rule.
enum class Truth { kShouldAccept, kShouldReject, kUnlabelled };

/// Live + facing-arc is an accept; a replay or a non-facing arc is a
/// reject; borderline angles carry no label. On an AUTH'd stream the
/// speaker must also be the tenant's enrolled user (`tenant_user`; a
/// negative value means tenant-less).
[[nodiscard]] Truth truth_of(const headtalk::sim::SampleSpec& spec, int tenant_user = -1);

[[nodiscard]] headtalk::sim::Collector make_collector(std::uint64_t seed);

/// Renders the training grid to `dir` (float32 WAVs + manifest.tsv in
/// headtalk_train's format) and each tenant's enrollment captures to
/// `dir/enroll_<tenant>_<k>.wav`. Returns the number of captures rendered.
std::size_t render_training_set(const headtalk::sim::Collector& collector,
                                const std::filesystem::path& dir, unsigned jobs);

/// Enrollment WAV paths render_training_set wrote for one tenant.
[[nodiscard]] std::vector<std::filesystem::path> enrollment_wavs(
    const std::filesystem::path& dir, const Tenant& tenant);

/// One wake-word test utterance, quantized to float32 exactly as the wire
/// carries it.
struct Item {
  headtalk::sim::SampleSpec spec;
  headtalk::audio::MultiBuffer capture;
  std::vector<std::uint8_t> chunks;  ///< encoded AUDIO_CHUNK frames
  double audio_seconds = 0.0;
  bool followup_pool = false;  ///< sent as an in-session follow-up command
};

/// The wake-word mix: facing-live, not-facing-live, smartphone and
/// high-end replays over three wake words and four users, plus a pool of
/// live follow-up commands.
[[nodiscard]] std::vector<Item> render_items(const headtalk::sim::Collector& collector,
                                             std::uint64_t seed, unsigned jobs);

/// One always-listening scene: mostly ambient silence with a wake word
/// every few seconds, pre-chunked for the wire.
struct Scene {
  std::vector<headtalk::sim::StreamUtterance> truth;
  std::vector<std::vector<std::uint8_t>> wire;  ///< encoded AUDIO_CHUNK per chunk
  std::vector<bool> speech;  ///< chunk overlaps a truth utterance
  double audio_seconds = 0.0;
};

[[nodiscard]] std::vector<Scene> render_scenes(const headtalk::sim::Collector& collector,
                                               std::uint64_t seed, std::size_t count);

/// Interleaves [begin, begin + frames) of a capture as float32.
[[nodiscard]] std::vector<float> interleave(const headtalk::audio::MultiBuffer& capture,
                                            std::size_t begin, std::size_t frames);

/// Rounds every sample to float32 (what a float32 WAV or the wire keeps).
void quantize(headtalk::audio::MultiBuffer& capture);

}  // namespace e2e
