#include "dsp/srp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/simd/dispatch.h"

namespace headtalk::dsp {
namespace {

// The shared transform sizing: covers the linear-correlation padding and
// the full lag window (see correlation.cpp: negative lags wrap to the tail).
std::size_t pairwise_fft_size(std::size_t frames, std::size_t lag) {
  return std::max<std::size_t>(2, next_pow2(std::max(frames + lag + 1, 2 * lag + 1)));
}

}  // namespace

PairwiseGcc pairwise_gcc_phat(const audio::MultiBuffer& capture, int max_lag) {
  if (max_lag < 0) throw std::invalid_argument("pairwise_gcc_phat: max_lag must be >= 0");
  PairwiseGcc out;
  out.max_lag = max_lag;
  const std::size_t n = capture.channel_count();
  out.pairs.resize(n >= 2 ? n * (n - 1) / 2 : 0);
  if (n == 0) return out;

  // One forward FFT per channel, shared across all pairs.
  const std::size_t lag = static_cast<std::size_t>(max_lag);
  const std::size_t fft_size = pairwise_fft_size(capture.frames(), lag);
  std::vector<HalfSpectrum> spectra(n);
  FftScratch fft;
  for (std::size_t c = 0; c < n; ++c) {
    rfft_half_into(capture.channel(c).samples(), fft_size, spectra[c], fft);
  }
  CorrelationWorkspace correlation;
  std::size_t pair_idx = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      auto& pair = out.pairs[pair_idx++];
      pair.i = i;
      pair.j = j;
      gcc_phat_from_spectra_into(spectra[i], spectra[j], max_lag, pair.gcc,
                                 correlation);
    }
  }
  return out;
}

CorrelationSequence srp_phat(const PairwiseGcc& gcc) {
  CorrelationSequence srp;
  srp.max_lag = gcc.max_lag;
  srp.values.assign(2 * static_cast<std::size_t>(gcc.max_lag) + 1, 0.0);
  const auto& accumulate = simd::kernels().accumulate;
  for (const auto& pair : gcc.pairs) {
    accumulate(srp.values.data(), pair.gcc.values.data(), srp.values.size());
  }
  return srp;
}

CorrelationSequence srp_phat(const audio::MultiBuffer& capture, int max_lag) {
  return srp_phat(pairwise_gcc_phat(capture, max_lag));
}

int srp_max_lag(double max_mic_distance_m, double sample_rate, double speed_of_sound) {
  if (max_mic_distance_m <= 0.0 || sample_rate <= 0.0 || speed_of_sound <= 0.0) {
    throw std::invalid_argument("srp_max_lag: arguments must be positive");
  }
  // Tolerant ceiling: d * fs / c that lands on an integer (e.g. D1's
  // 0.085 m * 48 kHz / 340 = 12.0) must not round up from FP noise.
  const double n = max_mic_distance_m * sample_rate / speed_of_sound;
  return std::max(1, static_cast<int>(std::ceil(n - 1e-9)));
}

std::vector<double> top_peaks(const std::vector<double>& seq, std::size_t k,
                              std::size_t min_separation) {
  struct Peak {
    std::size_t index;
    double value;
  };
  std::vector<Peak> peaks;
  // Interior samples only: the first/last lag of a truncated correlation
  // window carries boundary artifacts, not genuine response power.
  for (std::size_t i = 1; i + 1 < seq.size(); ++i) {
    if (seq[i] >= seq[i - 1] && seq[i] > seq[i + 1]) peaks.push_back({i, seq[i]});
  }
  std::sort(peaks.begin(), peaks.end(),
            [](const Peak& a, const Peak& b) { return a.value > b.value; });

  std::vector<Peak> kept;
  for (const auto& p : peaks) {
    const bool far_enough = std::all_of(kept.begin(), kept.end(), [&](const Peak& q) {
      const std::size_t d = p.index > q.index ? p.index - q.index : q.index - p.index;
      return d >= min_separation;
    });
    if (far_enough) kept.push_back(p);
    if (kept.size() == k) break;
  }

  std::vector<double> out;
  out.reserve(k);
  for (const auto& p : kept) out.push_back(p.value);
  while (out.size() < k) out.push_back(0.0);  // pad when fewer peaks exist
  return out;
}

}  // namespace headtalk::dsp
