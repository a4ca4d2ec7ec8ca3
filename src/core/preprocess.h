// Wake-command preprocessing (the "Preprocessing" block of Fig. 2):
// fifth-order Butterworth band-pass keeping 100 Hz – 16 kHz, plus
// energy-based trimming of leading/trailing silence.
//
// The IncrementalExtractor is the one implementation of this block: it
// band-passes every pushed sample and trims on its per-block RMS envelope
// (core/incremental_extractor.h), with the constants below. They are
// constants rather than configuration because training, enrollment and
// scoring must all agree on them. preprocess() is a view over that
// operator for callers that want the cleaned audio itself rather than
// features (the batch GCC/SRP, DoV and Void baselines).
#pragma once

#include "audio/sample_buffer.h"

namespace headtalk::core {

/// Band-pass order and edges. The upper edge clamps to 0.45 fs, so
/// captures below 32 kHz keep everything above 100 Hz up to that.
inline constexpr int kBandPassOrder = 5;
inline constexpr double kBandPassLowHz = 100.0;
inline constexpr double kBandPassHighHz = 16000.0;

/// Trim threshold relative to the loudest block's RMS (dB): the kept span
/// runs from the first to the last block at or above it.
inline constexpr double kTrimThresholdDb = -35.0;
/// Padding kept on each side of the detected span, rounded up to whole
/// blocks.
inline constexpr double kTrimPadMs = 40.0;
/// Absolute silence floor (dBFS, block RMS). When the loudest block sits
/// below it the capture holds no utterance, and the relative threshold
/// would otherwise latch onto noise wiggle: the capture is kept whole.
inline constexpr double kSilenceFloorDb = -65.0;
/// Shortest detected span (ms, before padding) worth trimming to; a
/// narrower one is a noise blip, not speech (even the shortest wake-word
/// syllable outlasts it), so the capture is kept whole.
inline constexpr double kMinActiveMs = 60.0;

/// Block length (ms) of preprocess()'s envelope. The scorer trims on its
/// 20 ms analysis blocks; preprocess() keeps the finer 10 ms frame of the
/// paper benches' baselines.
inline constexpr double kPreprocessBlockMs = 10.0;

/// Returns the denoised (band-passed, trimmed) capture: the operator's
/// band-passed samples over its trimmed span, with kPreprocessBlockMs
/// blocks. All channels are trimmed to the same span so inter-channel
/// delays are preserved; a 0-frame capture comes back empty.
///
/// The span is whole blocks widened by whole blocks of padding. Where
/// kTrimPadMs is not a whole number of blocks (22.05 kHz and 11.025 kHz,
/// whose 10 ms block is 220.5 → 220 and 110.25 → 110 samples) the pad
/// rounds up: 882 pad samples become 5 blocks = 1100 at 22.05 kHz.
[[nodiscard]] audio::MultiBuffer preprocess(const audio::MultiBuffer& capture);

/// Mono overload (used by the liveness path, which needs one channel).
[[nodiscard]] audio::Buffer preprocess(const audio::Buffer& capture);

}  // namespace headtalk::core
