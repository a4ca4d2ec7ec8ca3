#include "core/orientation_features.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "dsp/fractional_delay.h"
#include "dsp/srp.h"
#include "obs/metrics.h"

namespace headtalk::core {
namespace {

audio::MultiBuffer random_capture(std::size_t channels, std::size_t frames,
                                  unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-0.5, 0.5);
  audio::MultiBuffer m(channels, frames, 48000.0);
  for (std::size_t c = 0; c < channels; ++c) {
    for (auto& v : m.channel(c).data()) v = u(rng);
  }
  return m;
}

TEST(OrientationFeatures, PaperLagWindows) {
  OrientationFeatureConfig cfg;
  cfg.max_mic_distance_m = 0.09;  // D2
  OrientationFeatureExtractor e(cfg);
  EXPECT_EQ(e.effective_max_lag(48000.0), 13);
  cfg.max_mic_distance_m = 0.085;  // D1
  EXPECT_EQ(OrientationFeatureExtractor(cfg).effective_max_lag(48000.0), 12);
  cfg.max_mic_distance_m = 0.065;  // D3
  EXPECT_EQ(OrientationFeatureExtractor(cfg).effective_max_lag(48000.0), 10);
}

TEST(OrientationFeatures, ExplicitMaxLagOverrides) {
  OrientationFeatureConfig cfg;
  cfg.max_lag = 7;
  EXPECT_EQ(OrientationFeatureExtractor(cfg).effective_max_lag(48000.0), 7);
}

TEST(OrientationFeatures, DimensionMatchesExtraction) {
  OrientationFeatureExtractor e;
  for (std::size_t channels : {2u, 3u, 4u, 5u, 6u}) {
    const auto capture = random_capture(channels, 4096, 1);
    const auto f = e.extract(capture);
    EXPECT_EQ(f.size(), e.dimension(channels)) << channels << " channels";
  }
}

TEST(OrientationFeatures, GccBlockMatchesPaperCount) {
  // §III-B3: for D2's 4 channels and a 13-sample window the GCC feature
  // block is 6 x 27 + 6 = 168 values.
  OrientationFeatureConfig cfg;
  cfg.max_mic_distance_m = 0.09;
  OrientationFeatureExtractor e(cfg);
  const std::size_t gcc_block = 6 * 27 + 6;
  // dimension = srp(3 + 5) + gcc_block + pair stats (6*5) + hlbr(1) + 60.
  EXPECT_EQ(e.dimension(4), 8 + gcc_block + 30 + 1 + 60);
}

TEST(OrientationFeatures, RequiresTwoChannels) {
  OrientationFeatureExtractor e;
  const auto mono = random_capture(1, 1024, 2);
  EXPECT_THROW((void)e.extract(mono), std::invalid_argument);
}

TEST(OrientationFeatures, DeterministicForSameCapture) {
  OrientationFeatureExtractor e;
  const auto capture = random_capture(4, 4096, 3);
  const auto a = e.extract(capture);
  const auto b = e.extract(capture);
  EXPECT_EQ(a, b);
}

TEST(OrientationFeatures, TdoaFeatureReflectsChannelDelays) {
  // Channel 1 delayed 6 samples w.r.t. channel 0: the first TDoA feature
  // (pair 0-1 peak lag) must be -6 (signal reaches ch0 first).
  const auto base = random_capture(1, 8192, 4).channel(0);
  std::vector<audio::Buffer> channels{base,
                                      audio::Buffer(dsp::fractional_delay(base.samples(), 6.0), 48000.0)};
  const audio::MultiBuffer capture(std::move(channels));
  OrientationFeatureConfig cfg;
  cfg.max_lag = 10;
  OrientationFeatureExtractor e(cfg);
  const auto f = e.extract(capture);
  // Layout: 3 peaks + 5 SRP stats + 1 pair x 21 GCC values, then 1 TDoA.
  const std::size_t tdoa_index = 3 + 5 + 21;
  EXPECT_DOUBLE_EQ(f[tdoa_index], -6.0);
}

TEST(OrientationFeatures, FeatureValuesAreFinite) {
  OrientationFeatureExtractor e;
  const auto capture = random_capture(4, 4096, 5);
  for (double v : e.extract(capture)) EXPECT_TRUE(std::isfinite(v));
}

TEST(OrientationFeatures, SilentCaptureDoesNotBlowUp) {
  OrientationFeatureExtractor e;
  audio::MultiBuffer silent(4, 4096, 48000.0);
  const auto f = e.extract(silent);
  for (double v : f) EXPECT_TRUE(std::isfinite(v));
}

// The operator's coherence floor (OrientationFeatureConfig::coherence_floor)
// on three channels: two coupled (one a delayed copy of the other) and one
// independent noise capsule. Layout for 3 channels and a 13-lag window:
// 3 SRP peaks + 5 SRP stats, then 3 pairs x 27 GCC values, then 3 TDoAs.
constexpr int kPruneLag = 13;
constexpr std::size_t kPruneWindow = 2 * kPruneLag + 1;
constexpr std::size_t kPruneGccStart = 3 + 5;
constexpr std::size_t kPruneTdoaStart = kPruneGccStart + 3 * kPruneWindow;

audio::MultiBuffer three_channel_capture(bool third_coupled) {
  const auto base = random_capture(1, 16384, 6).channel(0);
  const auto delayed = [&base](double samples) {
    return audio::Buffer(dsp::fractional_delay(base.samples(), samples), 48000.0);
  };
  return audio::MultiBuffer(std::vector<audio::Buffer>{
      base, delayed(2.0),
      third_coupled ? delayed(4.0) : random_capture(1, 16384, 99).channel(0)});
}

std::uint64_t pairs_pruned() {
  return obs::Registry::global().counter("dsp.srp.pairs_pruned").value();
}

ml::FeatureVector extract_with_floor(const audio::MultiBuffer& capture, double floor) {
  OrientationFeatureConfig cfg;
  cfg.max_lag = kPruneLag;
  cfg.coherence_floor = floor;
  return OrientationFeatureExtractor(cfg).extract(capture);
}

std::vector<double> gcc_window(const ml::FeatureVector& f, std::size_t pair) {
  const auto* begin = f.data() + kPruneGccStart + pair * kPruneWindow;
  return {begin, begin + kPruneWindow};
}

TEST(PairwiseGcc, CoherenceFloorPrunesDecorrelatedPair) {
  // With a floor set, both pairs involving the noise capsule measure block
  // coherence near 1/64 and are pruned; the coupled pair stays. The
  // pruned-pair counter rises by exactly the two noise pairs.
  const std::uint64_t before = pairs_pruned();
  const auto f = extract_with_floor(three_channel_capture(false), 0.2);
  EXPECT_EQ(pairs_pruned() - before, 2u);

  const auto coupled = gcc_window(f, 0);  // (0,1)
  EXPECT_DOUBLE_EQ(f[kPruneTdoaStart + 0], -2.0);  // channel 1 lags channel 0
  for (std::size_t p : {std::size_t{1}, std::size_t{2}}) {  // (0,2), (1,2)
    for (double v : gcc_window(f, p)) EXPECT_DOUBLE_EQ(v, 0.0) << "pair " << p;
    EXPECT_DOUBLE_EQ(f[kPruneTdoaStart + p], 0.0) << "pair " << p;
  }
  // Pruned pairs contribute nothing: the SRP peaks are the surviving
  // pair's alone.
  const auto peaks = dsp::top_peaks(coupled, 3);
  for (std::size_t k = 0; k < 3; ++k) EXPECT_DOUBLE_EQ(f[k], peaks[k]) << "peak " << k;

  // A capture whose channels are all coupled prunes none.
  const std::uint64_t coupled_before = pairs_pruned();
  const auto g = extract_with_floor(three_channel_capture(true), 0.2);
  EXPECT_EQ(pairs_pruned(), coupled_before);
  for (std::size_t p = 0; p < 3; ++p) {
    const auto window = gcc_window(g, p);
    EXPECT_TRUE(std::any_of(window.begin(), window.end(),
                            [](double v) { return v != 0.0; }))
        << "pair " << p;
  }
}

TEST(PairwiseGcc, ZeroFloorDisablesCoherenceEstimate) {
  // Floor 0 keeps every pair, the noise capsule's included.
  const std::uint64_t before = pairs_pruned();
  const auto f = extract_with_floor(three_channel_capture(false), 0.0);
  EXPECT_EQ(pairs_pruned(), before);
  for (std::size_t p = 0; p < 3; ++p) {
    const auto window = gcc_window(f, p);
    EXPECT_TRUE(std::any_of(window.begin(), window.end(),
                            [](double v) { return v != 0.0; }))
        << "pair " << p;
  }
}

}  // namespace
}  // namespace headtalk::core
