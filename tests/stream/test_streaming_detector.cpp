// StreamingDetector: the absolute-indexed ring, chunked VAD + endpointing
// over a continuous multichannel stream, per-segment scoring through the
// resident pipeline (with the open-session flag carried across segments),
// flush, input validation, and force-close.
#include "stream/streaming_detector.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <span>

#include <gtest/gtest.h>

#include "serve_test_util.h"

using namespace headtalk;
using namespace headtalk::stream;

namespace {

const core::HeadTalkPipeline& test_pipeline() {
  static const core::HeadTalkPipeline pipeline = serve_test::make_test_pipeline();
  return pipeline;
}

/// Machinery-focused config: tight segmentation, cheap kNormal scoring.
StreamingDetectorConfig test_config() {
  StreamingDetectorConfig config;
  config.mode = core::VaMode::kNormal;
  config.endpoint.pre_roll_frames = 2;
  config.endpoint.onset_frames = 2;
  config.endpoint.hangover_frames = 3;
  config.endpoint.post_roll_frames = 2;
  config.endpoint.min_utterance_frames = 4;
  config.endpoint.max_utterance_frames = 200;
  return config;
}

/// Appends `frames` sample frames of a harmonic burst (tonal → VAD-active)
/// to an interleaved stream, identical on every channel.
void append_tone(std::vector<float>& stream, std::size_t frames, std::size_t channels,
                 double sample_rate = audio::kDefaultSampleRate) {
  for (std::size_t f = 0; f < frames; ++f) {
    const double t = static_cast<double>(f) / sample_rate;
    double v = 0.0;
    for (int h = 1; h <= 4; ++h) {
      v += 0.05 * std::sin(2.0 * std::numbers::pi * 220.0 * h * t);
    }
    for (std::size_t c = 0; c < channels; ++c) stream.push_back(static_cast<float>(v));
  }
}

void append_silence(std::vector<float>& stream, std::size_t frames,
                    std::size_t channels) {
  stream.insert(stream.end(), frames * channels, 0.0f);
}

/// Feeds an interleaved stream in fixed-size chunks, collecting every event.
std::vector<DecisionEvent> stream_in_chunks(StreamingDetector& detector,
                                            const std::vector<float>& stream,
                                            std::size_t chunk_frames) {
  std::vector<DecisionEvent> events;
  const std::size_t channels = detector.channels();
  for (std::size_t offset = 0; offset < stream.size();) {
    const std::size_t take =
        std::min(chunk_frames * channels, stream.size() - offset);
    const auto batch = detector.push_interleaved(
        std::span<const float>(stream).subspan(offset, take));
    events.insert(events.end(), batch.begin(), batch.end());
    offset += take;
  }
  return events;
}

/// Deinterleaves [begin, end) of the stream into a capture — the truth the
/// detector's ring extraction must match.
audio::MultiBuffer slice(const std::vector<float>& stream, std::size_t channels,
                         std::uint64_t begin, std::uint64_t end) {
  audio::MultiBuffer capture(channels, static_cast<std::size_t>(end - begin),
                             audio::kDefaultSampleRate);
  for (std::uint64_t f = begin; f < end; ++f) {
    for (std::size_t c = 0; c < channels; ++c) {
      capture.channel(c)[static_cast<std::size_t>(f - begin)] =
          stream[static_cast<std::size_t>(f) * channels + c];
    }
  }
  return capture;
}

}  // namespace

TEST(StreamRing, AbsoluteIndexingSurvivesWrapAround) {
  StreamRing ring;
  ring.reset(1, 4, 48000.0);
  ring.push(std::vector<float>{1, 2, 3, 4, 5, 6});  // frames 0..5, capacity 4
  EXPECT_EQ(ring.total_frames(), 6u);
  EXPECT_EQ(ring.oldest_frame(), 2u);

  // A begin older than the ring clamps to the oldest retained frame.
  auto capture = ring.extract(0, 6);
  ASSERT_EQ(capture.frames(), 4u);
  EXPECT_DOUBLE_EQ(capture.channel(0)[0], 3.0);
  EXPECT_DOUBLE_EQ(capture.channel(0)[3], 6.0);

  // An interior span comes back by its absolute indices.
  capture = ring.extract(4, 6);
  ASSERT_EQ(capture.frames(), 2u);
  EXPECT_DOUBLE_EQ(capture.channel(0)[0], 5.0);
  EXPECT_DOUBLE_EQ(capture.channel(0)[1], 6.0);

  // An end beyond the stream clamps to what was pushed.
  EXPECT_EQ(ring.extract(5, 100).frames(), 1u);
}

TEST(StreamingDetector, RejectsInvalidInput) {
  EXPECT_THROW(StreamingDetector(test_pipeline(), 0, 48000.0, test_config()),
               std::invalid_argument);

  StreamingDetector detector(test_pipeline(), 4, 48000.0, test_config());
  // 10 samples is not a multiple of 4 channels.
  EXPECT_THROW(detector.push_interleaved(std::vector<float>(10, 0.0f)),
               std::invalid_argument);
  // Deinterleaved chunks must match the stream's geometry.
  EXPECT_THROW(detector.push(audio::MultiBuffer(2, 64, 48000.0)),
               std::invalid_argument);
  EXPECT_THROW(detector.push(audio::MultiBuffer(4, 64, 16000.0)),
               std::invalid_argument);
}

TEST(StreamingDetector, EmitsOneDecisionPerBurstMatchingOfflineScoring) {
  const auto config = test_config();
  StreamingDetector detector(test_pipeline(), 4, audio::kDefaultSampleRate, config);
  const std::size_t frame_len = detector.vad().frame_length();

  // Three tonal bursts separated by silence wide enough to split them.
  std::vector<float> stream;
  append_silence(stream, 5 * frame_len, 4);
  for (int burst = 0; burst < 3; ++burst) {
    append_tone(stream, 12 * frame_len, 4);
    append_silence(stream, 10 * frame_len, 4);
  }

  // Chunk size deliberately not a multiple of the VAD frame length.
  auto events = stream_in_chunks(detector, stream, frame_len + 37);
  const auto tail = detector.flush();
  events.insert(events.end(), tail.begin(), tail.end());

  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(detector.segments(), 3u);
  EXPECT_EQ(detector.force_closed(), 0u);

  bool session_open = false;
  std::uint64_t previous_end = 0;
  for (const auto& event : events) {
    EXPECT_GE(event.begin_frame, previous_end);  // ordered, never overlapping
    EXPECT_GT(event.end_frame, event.begin_frame);
    EXPECT_DOUBLE_EQ(event.begin_seconds,
                     static_cast<double>(event.begin_frame) / audio::kDefaultSampleRate);
    EXPECT_FALSE(event.force_closed);
    EXPECT_EQ(event.truncated_frames, 0u);
    EXPECT_GE(event.latency_seconds, 0.0);
    previous_end = event.end_frame;

    // The streamed decision must equal scoring the same span offline with
    // the same carried session flag.
    const auto capture = slice(stream, 4, event.begin_frame, event.end_frame);
    const auto offline = test_pipeline().score_capture(capture, config.mode,
                                                       /*followup=*/false, session_open);
    EXPECT_EQ(event.result.decision, offline.decision);
    EXPECT_DOUBLE_EQ(event.result.liveness_score, offline.liveness_score);
    session_open = offline.session_open_after;
  }
  EXPECT_EQ(detector.session_open(), session_open);
}

TEST(StreamingDetector, StartFrameOffsetsEventsExactlyEvenPast32Bits) {
  // A resumed or split stream passes its absolute origin via
  // start_frame. Events must shift by exactly that origin — with every
  // product kept in 64 bits, so an origin near 2^32 (where a truncated
  // frame*length multiply would wrap) stays exact — and the second
  // timestamps must be derived from the exact 64-bit frame indices.
  const std::uint64_t start = (std::uint64_t{1} << 32) - 1000;
  auto config = test_config();
  StreamingDetector baseline(test_pipeline(), 4, audio::kDefaultSampleRate, config);
  config.start_frame = start;
  StreamingDetector offset(test_pipeline(), 4, audio::kDefaultSampleRate, config);
  const std::size_t frame_len = baseline.vad().frame_length();

  std::vector<float> stream;
  append_silence(stream, 5 * frame_len, 4);
  append_tone(stream, 12 * frame_len, 4);
  append_silence(stream, 10 * frame_len, 4);

  const auto base_events = stream_in_chunks(baseline, stream, frame_len + 37);
  const auto off_events = stream_in_chunks(offset, stream, frame_len + 37);
  ASSERT_EQ(base_events.size(), 1u);
  ASSERT_EQ(off_events.size(), 1u);
  EXPECT_EQ(off_events[0].begin_frame, base_events[0].begin_frame + start);
  EXPECT_EQ(off_events[0].end_frame, base_events[0].end_frame + start);
  EXPECT_GT(off_events[0].end_frame, std::uint64_t{1} << 32);  // really crossed
  EXPECT_DOUBLE_EQ(
      off_events[0].begin_seconds,
      static_cast<double>(off_events[0].begin_frame) / audio::kDefaultSampleRate);
  EXPECT_DOUBLE_EQ(
      off_events[0].end_seconds,
      static_cast<double>(off_events[0].end_frame) / audio::kDefaultSampleRate);
  EXPECT_EQ(off_events[0].truncated_frames, 0u);
  EXPECT_EQ(off_events[0].result.decision, base_events[0].result.decision);
  EXPECT_EQ(offset.frames_streamed(), baseline.frames_streamed() + start);
}

TEST(StreamingDetector, HeadTalkStreamedDecisionMatchesBatchScoring) {
  // Tentpole equivalence at the decision level: in HeadTalk mode the
  // detector accumulates each open segment frame by frame and only
  // finalizes at the close. The verdict and both scores must equal
  // score_capture() on the same sample span — chunk invariance makes the
  // features bit-identical, so exact equality is the bar, not a tolerance.
  const auto config = [] {
    auto c = test_config();
    c.mode = core::VaMode::kHeadTalk;
    return c;
  }();
  StreamingDetector detector(test_pipeline(), 4, audio::kDefaultSampleRate, config);
  const std::size_t frame_len = detector.vad().frame_length();

  std::vector<float> stream;
  append_silence(stream, 5 * frame_len, 4);
  for (int burst = 0; burst < 2; ++burst) {
    append_tone(stream, 12 * frame_len, 4);
    append_silence(stream, 10 * frame_len, 4);
  }

  auto events = stream_in_chunks(detector, stream, frame_len + 37);
  const auto tail = detector.flush();
  events.insert(events.end(), tail.begin(), tail.end());
  ASSERT_EQ(events.size(), 2u);

  bool session_open = false;
  for (const auto& event : events) {
    const auto capture = slice(stream, 4, event.begin_frame, event.end_frame);
    const auto offline = test_pipeline().score_capture(capture, config.mode,
                                                       /*followup=*/false, session_open);
    EXPECT_EQ(event.result.decision, offline.decision);
    EXPECT_DOUBLE_EQ(event.result.liveness_score, offline.liveness_score);
    EXPECT_DOUBLE_EQ(event.result.orientation_score, offline.orientation_score);
    EXPECT_EQ(event.result.session_open_after, offline.session_open_after);
    session_open = offline.session_open_after;
  }
  EXPECT_EQ(detector.session_open(), session_open);
}

TEST(StreamingDetector, FlushClosesATrailingUtterance) {
  StreamingDetector detector(test_pipeline(), 4, audio::kDefaultSampleRate,
                             test_config());
  const std::size_t frame_len = detector.vad().frame_length();

  std::vector<float> stream;
  append_tone(stream, 10 * frame_len, 4);  // ends mid-speech
  const auto during = stream_in_chunks(detector, stream, 2 * frame_len);
  EXPECT_TRUE(during.empty());
  EXPECT_TRUE(detector.in_utterance());

  const auto tail = detector.flush();
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].end_frame, detector.frames_streamed());
  EXPECT_FALSE(detector.in_utterance());
}

TEST(StreamingDetector, LongSpeechForceClosesAtMaxLength) {
  auto config = test_config();
  config.endpoint.max_utterance_frames = 6;
  config.endpoint.min_utterance_frames = 1;
  StreamingDetector detector(test_pipeline(), 4, audio::kDefaultSampleRate, config);
  const std::size_t frame_len = detector.vad().frame_length();

  std::vector<float> stream;
  append_tone(stream, 20 * frame_len, 4);
  const auto events = stream_in_chunks(detector, stream, 4 * frame_len);

  ASSERT_GE(events.size(), 2u);
  for (const auto& event : events) {
    EXPECT_TRUE(event.force_closed);
    EXPECT_LE(event.end_frame - event.begin_frame, 6u * frame_len);
  }
  EXPECT_EQ(detector.force_closed(), events.size());
}

