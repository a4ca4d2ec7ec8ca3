// Incremental-vs-batch equivalence — the tentpole contract of the
// streaming feature path. The batch extractors delegate to the same
// IncrementalExtractor the StreamingDetector feeds frame by frame, and
// every piece of accumulator state advances on cumulative sample counts
// alone, so chunking must be unobservable: any split of the same samples
// — down to single-sample pushes — yields bit-identical features and
// identical pipeline verdicts. The suite asserts exact equality (stronger
// than the issue's 1e-9 budget) and re-runs the sweep at every SIMD
// dispatch level the host supports; ctest additionally launches the whole
// filter once under HEADTALK_SIMD=off and once native (label
// `simd-equivalence`). The LazyOrientation tests below hold the same
// contract for when the orientation fold runs.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <random>
#include <string>
#include <vector>

#include "audio/sample_buffer.h"
#include "core/incremental_extractor.h"
#include "core/liveness_features.h"
#include "core/orientation_features.h"
#include "core/pipeline.h"
#include "core/scoring_workspace.h"
#include "dsp/simd/dispatch.h"
#include "obs/metrics.h"
#include "serve_test_util.h"

using namespace headtalk;
using namespace headtalk::core;

namespace {

/// Chunk splits swept everywhere: single samples, a prime, one VAD frame
/// at 48 kHz, a big power of two, and one oversized push.
constexpr std::size_t kChunks[] = {1, 7, 960, 4096, 1 << 20};

/// A capture with the structure the extractor actually sees in a stream:
/// quiet noise floor, a harmonic burst in the middle (per-channel phase
/// offsets so GCC/SRP have real lags), quiet tail — so the silence trim
/// selects a proper interior span.
audio::MultiBuffer make_segment_capture(std::size_t channels, std::size_t frames,
                                        double sample_rate, unsigned seed) {
  audio::MultiBuffer capture(channels, frames, sample_rate);
  std::mt19937 rng(seed);
  std::normal_distribution<double> g(0.0, 0.002);
  const std::size_t burst_begin = frames / 6;
  const std::size_t burst_end = frames - frames / 6;
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t f = 0; f < frames; ++f) {
      double v = g(rng);
      if (f >= burst_begin && f < burst_end) {
        const double t =
            (static_cast<double>(f) + 0.7 * static_cast<double>(c)) / sample_rate;
        for (int h = 1; h <= 5; ++h) {
          v += 0.08 * std::sin(2.0 * std::numbers::pi * 230.0 * h * t);
        }
      }
      capture.channel(c)[f] = v;
    }
  }
  return capture;
}

/// Feeds `capture` to `op` split into `chunk`-frame pieces, folding the
/// orientation blocks after each push whose end lies within the first
/// `fold_until` frames (the stream's pattern up to there).
void push_chunked(IncrementalExtractor& op, const audio::MultiBuffer& capture,
                  std::size_t chunk, std::size_t fold_until = 0) {
  const std::size_t frames = capture.frames();
  for (std::size_t offset = 0; offset < frames; offset += chunk) {
    const std::size_t take = std::min(chunk, frames - offset);
    std::vector<audio::Buffer> pieces;
    pieces.reserve(capture.channel_count());
    for (std::size_t c = 0; c < capture.channel_count(); ++c) {
      pieces.push_back(capture.channel(c).slice(offset, take));
    }
    op.push(audio::MultiBuffer(std::move(pieces)));
    if (offset + take <= fold_until) op.fold_orientation();
  }
}

void expect_identical(const ml::FeatureVector& streamed,
                      const ml::FeatureVector& batch, std::size_t chunk) {
  ASSERT_EQ(streamed.size(), batch.size()) << "chunk " << chunk;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_DOUBLE_EQ(streamed[i], batch[i])
        << "chunk " << chunk << " feature " << i;
  }
}

void sweep_orientation_chunks() {
  const auto capture =
      make_segment_capture(4, 12000, audio::kDefaultSampleRate, /*seed=*/3);
  const OrientationFeatureExtractor extractor;
  const auto batch = extractor.extract(capture);

  IncrementalExtractorConfig config;
  config.orientation = extractor.config();
  config.enable_liveness = false;
  for (const std::size_t chunk : kChunks) {
    IncrementalExtractor op;
    op.begin(config, capture.channel_count(), capture.sample_rate());
    push_chunked(op, capture, chunk);
    expect_identical(op.finalize_orientation(), batch, chunk);
  }
}

void sweep_verdict_chunks() {
  static const HeadTalkPipeline pipeline = serve_test::make_test_pipeline();
  const auto capture =
      make_segment_capture(4, 12000, audio::kDefaultSampleRate, /*seed=*/5);
  FeatureCapture batch_features;
  const auto batch =
      pipeline.score_capture(capture, VaMode::kHeadTalk, /*followup=*/false,
                             /*session_active=*/false, nullptr, &batch_features);

  for (const std::size_t chunk : kChunks) {
    IncrementalExtractor op;
    op.begin(pipeline.incremental_config(), capture.channel_count(),
             capture.sample_rate());
    push_chunked(op, capture, chunk);
    FeatureCapture streamed_features;
    const auto streamed =
        pipeline.finalize_segment(op, VaMode::kHeadTalk, /*followup=*/false,
                                  /*session_active=*/false, &streamed_features);
    EXPECT_EQ(streamed.decision, batch.decision) << "chunk " << chunk;
    EXPECT_DOUBLE_EQ(streamed.liveness_score, batch.liveness_score)
        << "chunk " << chunk;
    EXPECT_DOUBLE_EQ(streamed.orientation_score, batch.orientation_score)
        << "chunk " << chunk;
    EXPECT_EQ(streamed.session_open_after, batch.session_open_after)
        << "chunk " << chunk;
    expect_identical(streamed_features.liveness, batch_features.liveness, chunk);
    expect_identical(streamed_features.orientation, batch_features.orientation,
                     chunk);
  }
}

}  // namespace

TEST(IncrementalEquivalence, OrientationMatchesBatchAtAnyChunking) {
  sweep_orientation_chunks();
}

TEST(IncrementalEquivalence, LivenessMatchesBatchAtAnyChunkingAndSampleRate) {
  // 48 kHz exercises the stateful integer decimator, 16 kHz the
  // passthrough, 44.1 kHz the buffered fallback for non-integer ratios.
  for (const double rate : {48000.0, 16000.0, 44100.0}) {
    const auto capture = make_segment_capture(1, static_cast<std::size_t>(rate / 4),
                                              rate, /*seed=*/7);
    const LivenessFeatureExtractor extractor;
    const auto batch = extractor.extract(capture.channel(0));

    IncrementalExtractorConfig config;
    config.liveness = extractor.config();
    config.enable_orientation = false;
    for (const std::size_t chunk : kChunks) {
      IncrementalExtractor op;
      op.begin(config, 1, rate);
      push_chunked(op, capture, chunk);
      expect_identical(op.finalize_liveness(), batch, chunk);
    }
  }
}

TEST(IncrementalEquivalence, PipelineVerdictMatchesScoreCapture) {
  sweep_verdict_chunks();
}

TEST(IncrementalEquivalence, HoldsAtEverySimdLevelInProcess) {
  const dsp::simd::Level previous = dsp::simd::active_level();
  const auto max = static_cast<int>(dsp::simd::max_supported_level());
  for (int l = 0; l <= max; ++l) {
    const auto level = static_cast<dsp::simd::Level>(l);
    dsp::simd::set_level(level);
    SCOPED_TRACE(dsp::simd::level_name(level));
    sweep_orientation_chunks();
    sweep_verdict_chunks();
  }
  dsp::simd::set_level(previous);
}

// Liveness-gated lazy orientation: push() runs only the shared stage, and
// the orientation blocks are folded either by the stream after each push
// or by finalize_orientation() over the trimmed span. When (and whether)
// the fold runs must be unobservable in the features, and a verdict that
// never reaches the facing gate must fold nothing.
namespace {

/// Bitwise equality: stronger than EXPECT_DOUBLE_EQ's 4-ULP tolerance.
void expect_bit_identical(const ml::FeatureVector& got, const ml::FeatureVector& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(want[i]))
        << what << " feature " << i << ": " << got[i] << " vs " << want[i];
  }
}

void sweep_fold_patterns() {
  static const HeadTalkPipeline pipeline = serve_test::make_test_pipeline();
  const auto capture =
      make_segment_capture(4, 24000, audio::kDefaultSampleRate, /*seed=*/9);
  IncrementalExtractor reference;
  reference.begin(pipeline.incremental_config(), 4, capture.sample_rate());
  reference.push(capture);
  const auto want_orientation = reference.finalize_orientation();
  const auto want_liveness = reference.finalize_liveness();
  // The burst sits inside the capture, so the one-push path folds only a
  // proper sub-span and seeds the mixdown history from before it.
  ASSERT_GT(reference.active_blocks().first, 0u);

  // Fold everywhere (the stream), nowhere, up to the first third, and
  // only over the leading silence the trim later drops.
  const std::size_t fold_untils[] = {capture.frames(), 0, capture.frames() / 3, 960};
  for (const std::size_t chunk : kChunks) {
    for (const std::size_t fold_until : fold_untils) {
      const std::string what =
          "chunk " + std::to_string(chunk) + " fold_until " + std::to_string(fold_until);
      IncrementalExtractor op;
      op.begin(pipeline.incremental_config(), 4, capture.sample_rate());
      push_chunked(op, capture, chunk, fold_until);
      expect_bit_identical(op.finalize_liveness(), want_liveness, what);
      expect_bit_identical(op.finalize_orientation(), want_orientation, what);
      op.fold_orientation();  // after finalize: a no-op
      expect_bit_identical(op.finalize_orientation(), want_orientation, what + " again");
    }
  }
}

/// Two separable Gaussian clouds of `dim`-dimensional features.
ml::Dataset random_dataset(std::size_t dim, int positive, int negative) {
  std::mt19937 rng(3);
  std::normal_distribution<double> g(0.0, 1.0);
  ml::Dataset data;
  for (int i = 0; i < 20; ++i) {
    ml::FeatureVector a(dim), b(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      a[j] = g(rng) + 1.0;
      b[j] = g(rng) - 1.0;
    }
    data.add(std::move(a), positive);
    data.add(std::move(b), negative);
  }
  return data;
}

/// A trained pipeline whose liveness gate always says `live`, so the
/// ladder's path does not depend on what the random fit makes of a
/// synthetic capture.
HeadTalkPipeline make_gated_pipeline(bool live) {
  OrientationClassifier orientation;
  orientation.train(random_dataset(OrientationFeatureExtractor{}.dimension(4),
                                   kLabelFacing, kLabelNonFacing));
  LivenessDetectorConfig config;
  config.threshold = live ? -1.0 : 2.0;  // scores are probabilities in [0, 1]
  LivenessDetector liveness(config);
  liveness.train(
      random_dataset(LivenessFeatureExtractor{}.dimension(), kLabelLive, kLabelReplay));
  return HeadTalkPipeline(std::move(orientation), std::move(liveness));
}

std::uint64_t orientation_blocks() {
  return obs::Registry::global().counter("core.op.orientation_blocks").value();
}

}  // namespace

TEST(LazyOrientation, FoldTimingIsUnobservableAtEverySimdLevel) {
  const dsp::simd::Level previous = dsp::simd::active_level();
  const auto max = static_cast<int>(dsp::simd::max_supported_level());
  for (int l = 0; l <= max; ++l) {
    const auto level = static_cast<dsp::simd::Level>(l);
    dsp::simd::set_level(level);
    SCOPED_TRACE(dsp::simd::level_name(level));
    sweep_fold_patterns();
  }
  dsp::simd::set_level(previous);
}

TEST(LazyOrientation, StreamKeepsOnlyTheUnfoldedTail) {
  static const HeadTalkPipeline pipeline = serve_test::make_test_pipeline();
  const auto capture =
      make_segment_capture(4, 24000, audio::kDefaultSampleRate, /*seed=*/5);
  const std::size_t block = 960;  // 20 ms at 48 kHz
  for (const std::size_t chunk : {std::size_t{7}, std::size_t{960}, std::size_t{4096}}) {
    IncrementalExtractor op;
    op.begin(pipeline.incremental_config(), 4, capture.sample_rate());
    for (std::size_t offset = 0; offset < capture.frames(); offset += chunk) {
      const std::size_t take = std::min(chunk, capture.frames() - offset);
      std::vector<audio::Buffer> pieces;
      for (std::size_t c = 0; c < 4; ++c) {
        pieces.push_back(capture.channel(c).slice(offset, take));
      }
      op.push(audio::MultiBuffer(std::move(pieces)));
      op.fold_orientation();
      ASSERT_LT(op.samples_kept(), block) << "chunk " << chunk << " offset " << offset;
      ASSERT_EQ(op.samples_kept(), op.samples_pushed() % block);
    }
  }

  // Without the fold (the one-shot scoring path) everything stays.
  IncrementalExtractor whole;
  whole.begin(pipeline.incremental_config(), 4, capture.sample_rate());
  push_chunked(whole, capture, 4096);
  EXPECT_EQ(whole.samples_kept(), capture.frames());

  // Buffered liveness (a sample rate with no integer decimation) reads the
  // kept channel 0 at finalize, so the fold drops nothing there.
  const auto odd = make_segment_capture(4, 22050, 44100.0, /*seed=*/5);
  IncrementalExtractor buffered;
  buffered.begin(pipeline.incremental_config(), 4, odd.sample_rate());
  push_chunked(buffered, odd, 4096, odd.frames());
  EXPECT_EQ(buffered.samples_kept(), odd.frames());
}

TEST(LazyOrientation, OnlyVerdictsAtTheFacingGateFoldBlocks) {
  const auto capture =
      make_segment_capture(4, 24000, audio::kDefaultSampleRate, /*seed=*/13);
  ScoringWorkspace workspace;

  const HeadTalkPipeline replay_gate = make_gated_pipeline(/*live=*/false);
  std::uint64_t before = orientation_blocks();
  const auto replay = replay_gate.score_capture(capture, VaMode::kHeadTalk, false, false,
                                                &workspace);
  EXPECT_EQ(replay.decision, Decision::kRejectedReplay);
  EXPECT_FALSE(replay.orientation_checked);
  EXPECT_EQ(orientation_blocks() - before, 0u);

  const HeadTalkPipeline live_gate = make_gated_pipeline(/*live=*/true);
  before = orientation_blocks();
  const auto followup = live_gate.score_capture(capture, VaMode::kHeadTalk,
                                                /*followup=*/true,
                                                /*session_active=*/true, &workspace);
  EXPECT_TRUE(followup.via_open_session);
  EXPECT_FALSE(followup.orientation_checked);
  EXPECT_EQ(orientation_blocks() - before, 0u);

  before = orientation_blocks();
  const auto checked =
      live_gate.score_capture(capture, VaMode::kHeadTalk, false, false, &workspace);
  EXPECT_TRUE(checked.orientation_checked);
  const auto [first, last] = workspace.incremental().active_blocks();
  EXPECT_GT(first, 0u);
  EXPECT_LT(last, workspace.incremental().blocks_accumulated());
  EXPECT_EQ(orientation_blocks() - before, last - first);
}
