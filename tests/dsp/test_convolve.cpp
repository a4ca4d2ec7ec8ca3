#include "dsp/convolve.h"

#include <gtest/gtest.h>

#include <random>

namespace headtalk::dsp {
namespace {

TEST(Convolve, DirectKnownValues) {
  const std::vector<audio::Sample> x{1.0, 2.0, 3.0};
  const std::vector<audio::Sample> h{1.0, -1.0};
  const auto y = convolve_direct(x, h);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 1.0);
  EXPECT_DOUBLE_EQ(y[2], 1.0);
  EXPECT_DOUBLE_EQ(y[3], -3.0);
}

TEST(Convolve, EmptyInputsGiveEmptyOutput) {
  const std::vector<audio::Sample> x{1.0};
  EXPECT_TRUE(convolve_direct(x, {}).empty());
  EXPECT_TRUE(convolve_direct({}, x).empty());
  EXPECT_TRUE(convolve_fft(x, {}).empty());
}

TEST(Convolve, DeltaIsIdentity) {
  const std::vector<audio::Sample> x{0.5, -0.25, 0.125, 1.0};
  const std::vector<audio::Sample> delta{1.0};
  const auto y = convolve_fft(x, delta);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(y[i], x[i], 1e-12);
}

TEST(Convolve, ShiftedDeltaDelays) {
  const std::vector<audio::Sample> x{1.0, 2.0, 3.0};
  const std::vector<audio::Sample> h{0.0, 0.0, 1.0};
  const auto y = convolve_fft(x, h);
  ASSERT_EQ(y.size(), 5u);
  EXPECT_NEAR(y[0], 0.0, 1e-12);
  EXPECT_NEAR(y[1], 0.0, 1e-12);
  EXPECT_NEAR(y[2], 1.0, 1e-12);
  EXPECT_NEAR(y[3], 2.0, 1e-12);
  EXPECT_NEAR(y[4], 3.0, 1e-12);
}

TEST(Convolve, FftMatchesDirectOnRandomSignals) {
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (const auto& [nx, nh] : {std::pair{64, 17}, {100, 100}, {3, 200}, {1, 1}}) {
    std::vector<audio::Sample> x(nx), h(nh);
    for (auto& v : x) v = u(rng);
    for (auto& v : h) v = u(rng);
    const auto direct = convolve_direct(x, h);
    const auto fast = convolve_fft(x, h);
    ASSERT_EQ(direct.size(), fast.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      ASSERT_NEAR(direct[i], fast[i], 1e-9) << "sizes " << nx << "x" << nh << " at " << i;
    }
  }
}

TEST(Convolve, BufferOverloadKeepsRateAndTrims) {
  audio::Buffer x({1.0, 1.0, 1.0, 1.0}, 16000.0);
  const std::vector<audio::Sample> h{0.5, 0.5};
  const auto full = convolve(x, h, /*trim_to_input=*/false);
  EXPECT_EQ(full.size(), 5u);
  EXPECT_DOUBLE_EQ(full.sample_rate(), 16000.0);
  const auto trimmed = convolve(x, h, /*trim_to_input=*/true);
  EXPECT_EQ(trimmed.size(), 4u);
}

}  // namespace
}  // namespace headtalk::dsp
