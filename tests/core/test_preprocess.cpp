#include "core/preprocess.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <random>
#include <stdexcept>

#include "audio/gain.h"
#include "core/incremental_extractor.h"
#include "dsp/biquad.h"

namespace headtalk::core {
namespace {

constexpr double kFs = 48000.0;

audio::Buffer tone(double freq, std::size_t frames) {
  audio::Buffer b(frames, kFs);
  for (std::size_t i = 0; i < frames; ++i) {
    b[i] = 0.5 * std::sin(2.0 * std::numbers::pi * freq * static_cast<double>(i) / kFs);
  }
  return b;
}

/// 0.2 s of silence, a 0.4 s noise burst (a different draw per channel),
/// then 0.3 s of silence.
audio::MultiBuffer burst_in_silence(std::size_t channels) {
  audio::MultiBuffer m(channels, static_cast<std::size_t>(0.9 * kFs), kFs);
  const auto begin = static_cast<std::size_t>(0.2 * kFs);
  const auto end = static_cast<std::size_t>(0.6 * kFs);
  for (std::size_t c = 0; c < channels; ++c) {
    std::mt19937 rng(static_cast<unsigned>(7 + c));
    std::normal_distribution<double> noise(0.0, 0.2);
    for (std::size_t i = begin; i < end; ++i) m.channel(c)[i] = noise(rng);
  }
  return m;
}

/// The Fig. 2 band-pass applied to a whole channel from rest.
audio::Buffer band_passed(const audio::Buffer& x) {
  const double fs = x.sample_rate();
  auto bp = dsp::butterworth_bandpass(kBandPassOrder, kBandPassLowHz,
                                      std::min(kBandPassHighHz, 0.45 * fs), fs);
  return bp.filtered(x);
}

bool same_samples(const audio::Buffer& a, const audio::Buffer& b) {
  return std::ranges::equal(a.samples(), b.samples());
}

TEST(Preprocess, RemovesSubsonicRumble) {
  // 30 Hz rumble + 1 kHz speech band tone: rumble must mostly vanish.
  auto x = tone(1000.0, 9600);
  const auto rumble = tone(30.0, 9600);
  x.add(rumble);
  const auto y = preprocess(x);
  ASSERT_EQ(y.size(), x.size());  // a steady tone holds no silence to trim
  // Correlate output with the rumble: residual low-frequency energy small.
  double rumble_power = 0.0, signal_power = 0.0;
  for (std::size_t i = 4800; i < y.size(); ++i) {
    rumble_power += y[i] * rumble[i];
    signal_power += y[i] * y[i];
  }
  EXPECT_LT(std::abs(rumble_power), 0.1 * signal_power);
}

TEST(Preprocess, KeepsSpeechBand) {
  auto x = tone(1000.0, 9600);
  const auto y = preprocess(x);
  ASSERT_EQ(y.size(), x.size());
  const auto interior_in = x.slice(4800, 4000);
  const auto interior_out = y.slice(4800, 4000);
  EXPECT_NEAR(audio::rms(interior_out.samples()), audio::rms(interior_in.samples()),
              0.05 * audio::rms(interior_in.samples()));
}

TEST(Preprocess, TrimsLeadingAndTrailingSilence) {
  // 100 ms silence + 100 ms tone + 200 ms silence.
  audio::Buffer x(static_cast<std::size_t>(0.4 * kFs), kFs);
  const auto burst = tone(1000.0, static_cast<std::size_t>(0.1 * kFs));
  for (std::size_t i = 0; i < burst.size(); ++i) {
    x[static_cast<std::size_t>(0.1 * kFs) + i] = burst[i];
  }
  const auto y = preprocess(x);
  // Kept span ~ utterance + 2x40 ms padding.
  EXPECT_LT(y.size(), static_cast<std::size_t>(0.25 * kFs));
  EXPECT_GT(y.size(), static_cast<std::size_t>(0.09 * kFs));
  EXPECT_GT(audio::rms(y.samples()), 0.5 * audio::rms(burst.samples()));
}

TEST(Preprocess, MultichannelTrimIsSynchronized) {
  // Identical content on both channels but with an inter-channel delay of
  // 5 samples: trimming must keep the delay intact (same span cut).
  const std::size_t total = static_cast<std::size_t>(0.3 * kFs);
  audio::MultiBuffer m(2, total, kFs);
  const auto burst = tone(800.0, static_cast<std::size_t>(0.08 * kFs));
  const std::size_t off = static_cast<std::size_t>(0.1 * kFs);
  for (std::size_t i = 0; i < burst.size(); ++i) {
    m.channel(0)[off + i] = burst[i];
    m.channel(1)[off + 5 + i] = burst[i];
  }
  const auto y = preprocess(m);
  ASSERT_EQ(y.channel_count(), 2u);
  // Cross-correlate to confirm the 5-sample delay survives.
  double best = -1.0;
  long best_lag = 0;
  for (long lag = -20; lag <= 20; ++lag) {
    double acc = 0.0;
    for (std::size_t i = 100; i + 100 < y.frames(); ++i) {
      const long j = static_cast<long>(i) + lag;
      if (j < 0 || j >= static_cast<long>(y.frames())) continue;
      acc += y.channel(0)[i] * y.channel(1)[static_cast<std::size_t>(j)];
    }
    if (acc > best) {
      best = acc;
      best_lag = lag;
    }
  }
  EXPECT_EQ(best_lag, 5);
}

TEST(Preprocess, SilentInputSurvives) {
  audio::MultiBuffer m(2, 4800, kFs);
  const auto y = preprocess(m);
  EXPECT_EQ(y.channel_count(), 2u);
  EXPECT_EQ(y.frames(), 4800u);  // nothing to trim against
}

TEST(Preprocess, QuietCaptureBelowSilenceFloorIsNotTrimmed) {
  // Regression: a capture whose loudest frame sits under the absolute
  // silence floor used to be trimmed against its own noise wiggle (the
  // threshold is relative to the peak), collapsing near-silence to a
  // residual sliver. It must come back band-passed but full-length.
  const std::size_t total = static_cast<std::size_t>(0.4 * kFs);
  audio::MultiBuffer m(2, total, kFs);
  const auto burst = tone(1000.0, static_cast<std::size_t>(0.1 * kFs));
  const std::size_t off = static_cast<std::size_t>(0.15 * kFs);
  for (std::size_t i = 0; i < burst.size(); ++i) {
    // ~-80 dBFS: shaped like an utterance but far below the floor.
    m.channel(0)[off + i] = 2e-4 * burst[i];
    m.channel(1)[off + i] = 2e-4 * burst[i];
  }
  const auto y = preprocess(m);
  EXPECT_EQ(y.frames(), total);

  // The same shape at speech level still trims as before.
  audio::MultiBuffer loud(2, total, kFs);
  for (std::size_t i = 0; i < burst.size(); ++i) {
    loud.channel(0)[off + i] = burst[i];
    loud.channel(1)[off + i] = burst[i];
  }
  EXPECT_LT(preprocess(loud).frames(), total);
}

TEST(Preprocess, BriefClickDoesNotTriggerTrimming) {
  // A loud blip shorter than min_active_ms is a glitch, not an utterance:
  // trimming to it would throw away the whole capture.
  const std::size_t total = static_cast<std::size_t>(0.4 * kFs);
  audio::MultiBuffer m(1, total, kFs);
  const auto blip = tone(1000.0, static_cast<std::size_t>(0.03 * kFs));  // 30 ms
  const std::size_t off = static_cast<std::size_t>(0.2 * kFs);
  for (std::size_t i = 0; i < blip.size(); ++i) m.channel(0)[off + i] = blip[i];
  const auto y = preprocess(m);
  EXPECT_EQ(y.frames(), total);
}

TEST(Preprocess, MonoOverload) {
  const auto y = preprocess(tone(1000.0, 4800));
  EXPECT_GT(y.size(), 0u);
  EXPECT_DOUBLE_EQ(y.sample_rate(), kFs);
}

TEST(Preprocess, HighCutoffClampedBelowNyquist) {
  // 16 kHz upper edge with a 16 kHz-rate capture must not throw: the edge
  // clamps below Nyquist.
  audio::Buffer x(1600, 16000.0);
  x[800] = 0.5;
  EXPECT_NO_THROW((void)preprocess(x));
}

TEST(Preprocess, BandPassedViewIsTheOperatorsTrimmedSpan) {
  // The scorer's operator (20 ms blocks, both feature stages on): the
  // cleaned audio it returns is the band-pass output, bit for bit, over
  // exactly the blocks it reports as its trimmed span.
  const auto x = burst_in_silence(4);
  IncrementalExtractor op;
  op.begin(IncrementalExtractorConfig{}, x.channel_count(), kFs);
  op.push(x);
  (void)op.finalize_orientation();
  const auto y = op.finalize_band_passed();
  const auto [b0, b1] = op.active_blocks();
  const auto block = static_cast<std::size_t>(0.02 * kFs);
  ASSERT_GT(b0, 0u);                  // leading silence trimmed
  ASSERT_LT(b1 * block, x.frames());  // trailing silence trimmed
  ASSERT_EQ(y.channel_count(), x.channel_count());
  ASSERT_EQ(y.frames(), (b1 - b0) * block);
  for (std::size_t c = 0; c < x.channel_count(); ++c) {
    EXPECT_TRUE(same_samples(y.channel(c),
                             band_passed(x.channel(c)).slice(b0 * block, y.frames())))
        << "channel " << c;
  }
}

TEST(Preprocess, BandPassedViewThrowsOnceFoldedSamplesAreDropped) {
  const auto x = burst_in_silence(4);
  IncrementalExtractor op;
  op.begin(IncrementalExtractorConfig{}, x.channel_count(), kFs);
  op.push(x);
  op.fold_orientation();
  ASSERT_LT(op.samples_kept(), op.samples_pushed());
  EXPECT_THROW((void)op.finalize_band_passed(), std::logic_error);
}

TEST(Preprocess, EmptyCaptureComesBackEmpty) {
  const auto y = preprocess(audio::MultiBuffer(3, 0, kFs));
  EXPECT_EQ(y.channel_count(), 3u);
  EXPECT_EQ(y.frames(), 0u);
}

TEST(Preprocess, PadRoundsUpToWholeBlocks) {
  // A 1 kHz tone from a block boundary `onset` to the end of the capture.
  // The band-pass output before the onset is exactly 0, so the first
  // active block is onset / block and the kept span starts one leading pad
  // before it, ending at the capture's end.
  const auto samples_before_onset = [](double fs) {
    const auto block = static_cast<std::size_t>(kPreprocessBlockMs * fs / 1000.0);
    const std::size_t onset = 40 * block;
    const std::size_t total = onset + static_cast<std::size_t>(0.5 * fs);
    audio::Buffer x(total, fs);
    for (std::size_t i = onset; i < total; ++i) {
      x[i] = 0.5 * std::sin(2.0 * std::numbers::pi * 1000.0 *
                            static_cast<double>(i - onset) / fs);
    }
    const auto y = preprocess(x);
    const std::size_t pad = y.size() - (total - onset);
    EXPECT_TRUE(same_samples(y, band_passed(x).slice(onset - pad, y.size())))
        << fs << " Hz";
    return pad;
  };
  // Where 40 ms is whole 10 ms blocks, the pad is exactly 40 ms.
  EXPECT_EQ(samples_before_onset(48000.0), 1920u);  // 4 x 480
  EXPECT_EQ(samples_before_onset(44100.0), 1764u);  // 4 x 441
  // At 22.05 kHz a block is 220 samples and 40 ms is 882: the pad rounds up
  // to 5 blocks. Likewise at 11.025 kHz, 441 samples become 5 x 110.
  EXPECT_EQ(samples_before_onset(22050.0), 1100u);
  EXPECT_EQ(samples_before_onset(11025.0), 550u);
}

}  // namespace
}  // namespace headtalk::core
