// Frame-incremental feature extraction: the streaming form of the
// preprocess + orientation + liveness feature chain.
//
// The batch extractors see a finished segment and recompute everything
// from scratch — O(segment) work after the endpointer closes. This
// operator instead consumes audio in arbitrary chunks as it arrives and
// splits the per-block work into two stages.
//
// The shared stage runs in push(), on every segment, because every
// verdict needs it:
//
//   * band-pass biquad state carried per channel (the Fig. 2 preprocessing
//     filter, applied sample-by-sample); the band-passed samples are kept;
//   * the per-block RMS envelope the silence trim reads;
//   * a streaming 16 kHz decimator feeding a rolling STFT plus running
//     Σx/Σx² for the liveness normalization.
//
// The orientation stage folds hop-aligned analysis blocks of the kept
// samples into per-block accumulators, and runs only on demand:
//
//   * per-channel block spectra, and from them per-block GCC-PHAT lag
//     windows and cross-spectral coherence partial sums for every
//     microphone pair (SRP and the pair features are means over the
//     selected blocks at finalize);
//   * per-block directivity spectra of a sliding mixdown window (HLBR and
//     the banded low-band statistics).
//
// The pipeline checks liveness first (Fig. 2): a replay, or a follow-up
// in an open session, never reaches the facing gate, so its segment pays
// for the shared stage only. finalize_orientation() folds just the blocks
// of the trimmed span [active_begin_, active_end_) (seeding the sliding
// mixdown with the samples before it); a streaming caller instead calls
// fold_orientation() after each push() so the close pays only for the
// last blocks, and the folded samples are dropped as it goes. Per-block
// storage is indexed from the first folded block.
//
// Silence trimming happens lazily: finalize selects the active block span
// from the envelope with the threshold rules of core/preprocess.h. Pre-roll
// blocks may therefore be fed before the utterance is confirmed and
// post-roll blocks after it ends — the trim keeps the decision independent
// of how generously the endpointer fed. With both feature stages off the
// operator is the whole Fig. 2 front end: finalize_band_passed() returns
// the cleaned audio, and core::preprocess() is that view.
//
// The block sequence — and hence every finalized feature — is invariant
// to push() chunking and to when (or whether) fold_orientation() runs:
// state transitions depend only on cumulative sample counts. The batch
// extractors delegate to this operator, so streamed and pre-segmented
// scoring agree bit for bit by construction.
//
// Lifecycle: begin() → push()* (shared stage) → fold_orientation()
// (optional, between pushes; the stream's pattern) → finalize_*() (any
// order, idempotent) → begin() again. Not thread-safe; one operator per
// stream/thread.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "audio/sample_buffer.h"
#include "core/liveness_features.h"
#include "core/orientation_features.h"
#include "core/preprocess.h"
#include "dsp/biquad.h"
#include "dsp/fft.h"
#include "dsp/rolling_stft.h"
#include "ml/dataset.h"

namespace headtalk::core {

struct IncrementalExtractorConfig {
  OrientationFeatureConfig orientation{};
  LivenessFeatureConfig liveness{};
  /// Disable a stage to skip its per-block work and storage entirely
  /// (the single-feature wrapper extractors each enable only their own).
  bool enable_orientation = true;
  bool enable_liveness = true;
  /// Analysis block length (ms): the envelope/trim granularity and the
  /// update cadence of every accumulator. 20 ms matches the streaming
  /// VAD frame, so one endpointer frame is one accumulator update.
  double block_ms = 20.0;
};

class IncrementalExtractor {
 public:
  IncrementalExtractor() = default;

  /// Starts a new segment. Resets all accumulators and filter state.
  void begin(const IncrementalExtractorConfig& config, std::size_t channels,
             double sample_rate);

  /// Feeds the next chunk of the segment (any length, including empty)
  /// through the shared stage. Channel count and sample rate must match
  /// begin().
  void push(const audio::MultiBuffer& chunk);

  /// Folds every complete block pushed so far into the orientation
  /// accumulators, so finalize_orientation() later folds only the rest,
  /// and drops the folded samples (unless liveness resamples the kept
  /// channel at finalize), so a stream keeps less than a block plus its
  /// last chunk. A no-op when the orientation stage is off or after
  /// finalize.
  void fold_orientation();

  /// Finalizes and returns the liveness feature vector (layout identical
  /// to LivenessFeatureExtractor::dimension()). Constant-time in the
  /// segment length up to the trim scan and the per-block reductions.
  [[nodiscard]] ml::FeatureVector finalize_liveness();

  /// Finalizes and returns the orientation feature vector (layout
  /// identical to OrientationFeatureExtractor::dimension(channels)),
  /// folding whatever blocks of the trimmed span are not folded yet.
  /// Throws std::invalid_argument when begun with fewer than 2 channels.
  [[nodiscard]] ml::FeatureVector finalize_orientation();

  /// Finalizes the shared stage and returns the band-passed samples of the
  /// trimmed span: blocks active_blocks(), cut at samples_pushed(). Throws
  /// std::logic_error when fold_orientation() has already dropped some of
  /// them.
  [[nodiscard]] audio::MultiBuffer finalize_band_passed();

  [[nodiscard]] bool open() const noexcept { return open_; }
  [[nodiscard]] std::size_t channels() const noexcept { return channels_; }
  [[nodiscard]] double sample_rate() const noexcept { return sample_rate_; }
  /// Samples accepted per channel since begin().
  [[nodiscard]] std::size_t samples_pushed() const noexcept { return pushed_; }
  /// Band-passed samples currently kept per channel.
  [[nodiscard]] std::size_t samples_kept() const noexcept {
    return filtered_.empty() ? 0 : filtered_[0].size();
  }
  /// Analysis blocks through the shared stage so far.
  [[nodiscard]] std::size_t blocks_accumulated() const noexcept {
    return envelope_.size();
  }
  /// The trimmed block span [first, second) the features are taken over;
  /// set by the first finalize_*().
  [[nodiscard]] std::pair<std::size_t, std::size_t> active_blocks() const noexcept {
    return {active_begin_, active_end_};
  }
  [[nodiscard]] const IncrementalExtractorConfig& config() const noexcept {
    return config_;
  }

 private:
  enum class LivenessPath { kOff, kPassthrough, kDecimate, kBuffered };

  void shared_block(std::size_t valid);
  void fold_blocks(std::size_t begin, std::size_t end);
  void fold_block(std::size_t block);
  void append_mixdown(std::size_t begin, std::size_t end);
  void accumulate_pair_block(const dsp::HalfSpectrum& x, const dsp::HalfSpectrum& y,
                             double* coherence_acc);
  void feed_liveness(std::span<const audio::Sample> samples);
  void drain_liveness_frames();
  void finalize_shared();
  void select_active_blocks();
  [[nodiscard]] ml::FeatureVector liveness_from_streamed() const;
  [[nodiscard]] ml::FeatureVector liveness_from_buffered() const;
  void liveness_features_from(std::span<const double> mean_magnitude,
                              std::size_t fft_size, ml::FeatureVector& out) const;

  IncrementalExtractorConfig config_{};
  std::size_t channels_ = 0;
  double sample_rate_ = 0.0;
  bool open_ = false;
  bool finalized_ = false;

  // Preprocessing: per-channel band-pass state and the band-passed samples
  // from sample kept_from_ on (0 until fold_orientation() drops folded
  // ones); block b covers samples [b * block_len_, (b+1) * block_len_).
  std::vector<dsp::BiquadCascade> bandpass_;
  std::vector<std::vector<audio::Sample>> filtered_;
  std::size_t kept_from_ = 0;
  std::size_t block_len_ = 0;
  std::size_t pushed_ = 0;

  // Per-block envelope (RMS across channels), for the lazy trim.
  std::vector<double> envelope_;
  std::size_t active_begin_ = 0, active_end_ = 0;  ///< selected [b0, b1)

  // Orientation accumulators, for blocks [fold_begin_, fold_end_).
  bool orientation_on_ = false;
  int max_lag_ = 0;
  std::size_t pair_count_ = 0;
  std::size_t block_fft_ = 0;
  std::size_t fold_begin_ = 0, fold_end_ = 0;
  std::size_t coherence_blocks_ = 0;  ///< sampled-bin coherence blocks per pair
  std::vector<double> gcc_blocks_;    ///< [block][pair][2*max_lag+1]
  std::vector<double> coherence_partials_;  ///< [block][pair][cblock][cr,ci,px,py]
  std::vector<dsp::HalfSpectrum> block_spectra_;  ///< per-channel scratch
  dsp::HalfSpectrum cross_;
  std::vector<double> lag_window_;
  dsp::FftScratch fft_scratch_;

  // Directivity: sliding mixdown window → per-block truncated spectrum.
  std::size_t dir_fft_ = 0;
  std::size_t dir_bins_ = 0;  ///< bins stored per block (covers the feature bands)
  std::vector<audio::Sample> mix_history_;
  dsp::HalfSpectrum dir_spectrum_;
  std::vector<double> dir_blocks_;  ///< [block][dir_bins_]

  // Liveness accumulators.
  LivenessPath liveness_path_ = LivenessPath::kOff;
  dsp::BiquadCascade antialias_;
  std::size_t decimate_step_ = 1;
  std::size_t decimate_phase_ = 0;
  dsp::RollingStft live_stft_;
  std::size_t live_bins_ = 0;
  std::vector<dsp::Complex> live_spectra_;  ///< [frame][live_bins_]
  std::vector<std::size_t> live_valid_;     ///< valid samples per stored frame
  double live_sum_ = 0.0, live_sum_sq_ = 0.0;
  std::size_t live_count_ = 0;  ///< resampled samples emitted so far
  std::vector<std::size_t> resampled_upto_;  ///< cumulative live_count_ per block
  std::vector<double> live_cum_sum_, live_cum_sum_sq_;  ///< cumulative per block
  std::vector<audio::Sample> live_emitted_;  ///< kDecimate: scratch per feed
  dsp::HalfSpectrum live_window_spectrum_;  ///< FFT of the full analysis window
};

}  // namespace headtalk::core
