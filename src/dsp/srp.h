// SRP-PHAT: Steered Response Power with Phase Transform (DiBiase [23],
// Do & Silverman [25]).
//
// Following Eq. 6 of the paper, the weighted SRP over a lag window is the
// sum of the GCC-PHAT sequences of all microphone pairs. HeadTalk is the
// first to use the SRP sequence (its peak structure, Fig. 6b) as a speaker
// *orientation* feature rather than for localization.
#pragma once

#include <cstddef>
#include <vector>

#include "audio/sample_buffer.h"
#include "dsp/correlation.h"

namespace headtalk::dsp {

/// GCC-PHAT sequences for every unordered microphone pair (i < j) of a
/// multichannel capture, all over the same symmetric lag window.
struct PairwiseGcc {
  struct Pair {
    std::size_t i = 0, j = 0;
    CorrelationSequence gcc;
  };
  std::vector<Pair> pairs;
  int max_lag = 0;
};

/// Computes GCC-PHAT for all channel pairs of `capture` over
/// [-max_lag, +max_lag] samples.
[[nodiscard]] PairwiseGcc pairwise_gcc_phat(const audio::MultiBuffer& capture,
                                            int max_lag);

/// Weighted SRP-PHAT sequence (Eq. 6): element-wise sum of all pair GCCs.
[[nodiscard]] CorrelationSequence srp_phat(const PairwiseGcc& gcc);

/// Convenience: SRP-PHAT directly from a capture.
[[nodiscard]] CorrelationSequence srp_phat(const audio::MultiBuffer& capture,
                                           int max_lag);

/// The paper selects the SRP lag window from the array's maximum
/// inter-microphone spacing: N = d*fs/c samples on each side.
/// Returns that max_lag (at least 1).
[[nodiscard]] int srp_max_lag(double max_mic_distance_m, double sample_rate,
                              double speed_of_sound = 340.0);

/// Returns the values of the `k` largest local maxima of a sequence,
/// descending, requiring `min_separation` samples between peaks (Fig. 6b
/// shows 3-4 reverberation peaks; the top three are a feature).
///
/// A peak must be an *interior* sample that dominates both neighbours
/// (>= left, > right). The first and last samples never qualify: the edges
/// of a truncated correlation window routinely carry boundary artifacts,
/// and counting them as maxima displaced true SRP peaks. A monotone ramp
/// therefore has no peaks and yields `k` zero-padded values.
[[nodiscard]] std::vector<double> top_peaks(const std::vector<double>& seq,
                                            std::size_t k,
                                            std::size_t min_separation = 2);

}  // namespace headtalk::dsp
