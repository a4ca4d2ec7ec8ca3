#include "corpus.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>

#include "audio/wav_io.h"
#include "core/facing.h"
#include "room/mic_array.h"
#include "serve/protocol.h"
#include "util/thread_pool.h"

namespace e2e {

using namespace headtalk;

namespace {

constexpr speech::WakeWord kWords[] = {speech::WakeWord::kComputer,
                                       speech::WakeWord::kAmazon,
                                       speech::WakeWord::kHeyAssistant};
constexpr sim::GridRadial kRadials[] = {sim::GridRadial::kMiddle, sim::GridRadial::kLeft,
                                        sim::GridRadial::kRight};

sim::SampleSpec base_spec(speech::WakeWord word, unsigned user, double angle,
                          sim::ReplaySource replay, unsigned session, unsigned rep) {
  sim::SampleSpec spec;
  spec.word = word;
  spec.user_id = user;
  spec.angle_deg = angle;
  spec.replay = replay;
  spec.session = session;
  spec.repetition = rep;
  return spec;
}

std::string wav_name(const sim::SampleSpec& spec, std::size_t index) {
  char name[96];
  std::snprintf(name, sizeof name, "c%03zu_%s_a%+04d_u%u.wav", index,
                std::string(sim::replay_source_name(spec.replay)).c_str(),
                static_cast<int>(spec.angle_deg), spec.user_id);
  return name;
}

}  // namespace

Truth truth_of(const sim::SampleSpec& spec, int tenant_user) {
  if (spec.replay != sim::ReplaySource::kNone) return Truth::kShouldReject;
  if (tenant_user >= 0 && spec.user_id != static_cast<unsigned>(tenant_user)) {
    return Truth::kShouldReject;
  }
  switch (core::training_arc(core::FacingDefinition::kDefinition4, spec.angle_deg)) {
    case core::TrainingArc::kFacing:
      return Truth::kShouldAccept;
    case core::TrainingArc::kNonFacing:
      return Truth::kShouldReject;
    case core::TrainingArc::kExcluded:
      break;
  }
  return Truth::kUnlabelled;
}

sim::Collector make_collector(std::uint64_t seed) {
  sim::CollectorConfig config;
  config.cache_enabled = false;
  config.base_seed = static_cast<std::uint32_t>(20230601u + 7919u * seed);
  return sim::Collector(config);
}

std::size_t render_training_set(const sim::Collector& collector,
                                const std::filesystem::path& dir, unsigned jobs) {
  std::filesystem::create_directories(dir);
  // Every Def-4 arc angle plus borderline and rear angles (liveness trains
  // on every live capture), three words, two speakers, and both replay
  // devices at front, side and rear: wide enough that facing is accepted,
  // not-facing is rejected as not-facing and a replay as a replay.
  constexpr double kLiveAngles[] = {0,   15,  -15, 30,   -30,  60, -60,
                                    90,  -90, 135, -135, 150, 180};
  constexpr double kReplayAngles[] = {0, 90, 180};
  std::vector<sim::SampleSpec> specs;
  for (const auto word : kWords) {
    for (unsigned user = 0; user < 2; ++user) {
      for (const double angle : kLiveAngles) {
        auto spec = base_spec(word, user, angle, sim::ReplaySource::kNone, 0, 0);
        spec.location.radial = kRadials[specs.size() % 3];
        specs.push_back(spec);
      }
    }
    for (const auto replay :
         {sim::ReplaySource::kSmartphone, sim::ReplaySource::kHighEnd}) {
      for (const double angle : kReplayAngles) {
        specs.push_back(base_spec(word, 0, angle, replay, 0, 0));
      }
    }
  }
  std::vector<std::string> names(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) names[i] = wav_name(specs[i], i);

  // Enrollment: four facing captures of each tenant's user, session 2.
  struct Enroll {
    sim::SampleSpec spec;
    std::filesystem::path path;
  };
  std::vector<Enroll> enroll;
  for (const auto& tenant : kTenants) {
    const auto paths = enrollment_wavs(dir, tenant);
    constexpr double kEnrollAngles[] = {0, 15, -15, 30};
    for (std::size_t k = 0; k < paths.size(); ++k) {
      enroll.push_back({base_spec(kWords[k % 3], tenant.user, kEnrollAngles[k],
                                  sim::ReplaySource::kNone, 2, 0),
                        paths[k]});
    }
  }

  const std::size_t total = specs.size() + enroll.size();
  util::parallel_for(total, jobs, [&](std::size_t i) {
    if (i < specs.size()) {
      audio::write_wav(dir / names[i], collector.capture(specs[i]),
                       audio::WavEncoding::kFloat32);
    } else {
      const auto& e = enroll[i - specs.size()];
      audio::write_wav(e.path, collector.capture(e.spec), audio::WavEncoding::kFloat32);
    }
  });
  std::ofstream manifest(dir / "manifest.tsv");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    manifest << names[i] << '\t' << sim::replay_source_name(specs[i].replay) << '\t'
             << specs[i].angle_deg << '\t' << room::device_name(specs[i].device) << '\n';
  }
  if (!manifest) {
    throw std::runtime_error("cannot write " + (dir / "manifest.tsv").string());
  }
  return total;
}

std::vector<std::filesystem::path> enrollment_wavs(const std::filesystem::path& dir,
                                                   const Tenant& tenant) {
  std::vector<std::filesystem::path> out;
  for (int k = 0; k < 4; ++k) {
    out.push_back(dir / ("enroll_" + std::string(tenant.id) + "_" + std::to_string(k) +
                         ".wav"));
  }
  return out;
}

void quantize(audio::MultiBuffer& capture) {
  for (std::size_t c = 0; c < capture.channel_count(); ++c) {
    for (auto& x : capture.channel(c).data()) x = static_cast<float>(x);
  }
}

std::vector<float> interleave(const audio::MultiBuffer& capture, std::size_t begin,
                              std::size_t frames) {
  const std::size_t channels = capture.channel_count();
  std::vector<float> out(frames * channels);
  for (std::size_t c = 0; c < channels; ++c) {
    const auto& data = capture.channel(c).data();
    for (std::size_t f = 0; f < frames; ++f) {
      out[f * channels + c] = static_cast<float>(data[begin + f]);
    }
  }
  return out;
}

namespace {

std::vector<std::uint8_t> encode_chunks(const audio::MultiBuffer& capture) {
  std::vector<std::uint8_t> out;
  for (std::size_t at = 0; at < capture.frames(); at += kChunkFrames) {
    const std::size_t n = std::min(kChunkFrames, capture.frames() - at);
    const auto frame = serve::encode_audio_chunk(interleave(capture, at, n),
                                                 static_cast<std::uint16_t>(
                                                     capture.channel_count()));
    out.insert(out.end(), frame.begin(), frame.end());
  }
  return out;
}

}  // namespace

std::vector<Item> render_items(const sim::Collector& collector, std::uint64_t seed,
                               unsigned jobs) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 11);
  const auto pick = [&rng](const auto& options) {
    return options[rng() % std::size(options)];
  };
  constexpr double kFacing[] = {0, 15, -15, 30, -30};
  constexpr double kNotFacing[] = {90, -90, 135, -135, 180};
  constexpr double kFollowup[] = {0, 45, -60, 90, 135, 180};

  std::vector<Item> items;
  unsigned rep = 0;
  for (const auto word : kWords) {
    for (unsigned user = 0; user < 4; ++user) {
      const sim::SampleSpec group[] = {
          base_spec(word, user, pick(kFacing), sim::ReplaySource::kNone, 1, rep),
          base_spec(word, user, pick(kNotFacing), sim::ReplaySource::kNone, 1, rep),
          base_spec(word, user, pick(kFacing), sim::ReplaySource::kSmartphone, 1, rep),
          base_spec(word, user, pick(kFacing), sim::ReplaySource::kHighEnd, 1, rep),
      };
      for (auto spec : group) {
        spec.location.radial = kRadials[rng() % 3];
        items.push_back({spec, {}, {}, 0.0, false});
      }
      ++rep;
    }
  }
  for (unsigned k = 0; k < 12; ++k) {
    auto spec = base_spec(kWords[k % 3], k % 4, pick(kFollowup),
                          sim::ReplaySource::kNone, 3, k);
    items.push_back({spec, {}, {}, 0.0, true});
  }
  util::parallel_for(items.size(), jobs, [&](std::size_t i) {
    auto& item = items[i];
    item.capture = collector.capture(item.spec);
    quantize(item.capture);
    item.chunks = encode_chunks(item.capture);
    item.audio_seconds = static_cast<double>(item.capture.frames()) / kSampleRate;
  });
  return items;
}

std::vector<Scene> render_scenes(const sim::Collector& collector, std::uint64_t seed,
                                 std::size_t count) {
  std::mt19937_64 rng(seed * 0xD1B54A32D192ED03ull + 5);
  constexpr double kAngles[] = {0, 15, -30, 90, 180, -135};
  std::vector<Scene> scenes(count);
  for (std::size_t s = 0; s < count; ++s) {
    // Twelve wake words per scene: each of four users (two enrolled), the
    // head angle drawn per utterance, one in four a replay.
    std::vector<sim::SampleSpec> specs;
    for (unsigned k = 0; k < 12; ++k) {
      const auto replay = k % 4 == 3 ? (k % 8 == 3 ? sim::ReplaySource::kSmartphone
                                                   : sim::ReplaySource::kHighEnd)
                                     : sim::ReplaySource::kNone;
      specs.push_back(base_spec(kWords[rng() % 3], static_cast<unsigned>((k + s) % 4),
                                kAngles[rng() % std::size(kAngles)], replay,
                                4 + static_cast<unsigned>(s), k));
    }
    sim::StreamSceneConfig config;
    config.gap_s = 1.6;
    config.lead_in_s = 1.0;
    config.tail_s = 1.2;
    config.noise_seed = static_cast<std::uint32_t>(0x57AE + 131 * seed + s);
    auto rendered = sim::render_stream_scene(collector, specs, config);
    quantize(rendered.audio);

    Scene& scene = scenes[s];
    scene.truth = rendered.utterances;
    const std::size_t frames = rendered.audio.frames();
    scene.audio_seconds = static_cast<double>(frames) / kSampleRate;
    for (std::size_t at = 0; at < frames; at += kChunkFrames) {
      const std::size_t n = std::min(kChunkFrames, frames - at);
      scene.wire.push_back(
          serve::encode_audio_chunk(interleave(rendered.audio, at, n), kChannels));
      const double a = static_cast<double>(at) / kSampleRate;
      const double b = static_cast<double>(at + n) / kSampleRate;
      bool speech = false;
      for (const auto& u : scene.truth) {
        speech |= u.begin_seconds < b && u.end_seconds > a;
      }
      scene.speech.push_back(speech);
    }
  }
  return scenes;
}

}  // namespace e2e
