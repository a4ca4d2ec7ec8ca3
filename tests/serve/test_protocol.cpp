// Wire-protocol round-trips and strict-decode rejection, including a
// fuzz-ish corrupted-buffer loop: whatever bytes arrive, the decoder either
// yields a validated frame or throws ProtocolError — never UB, never an
// inconsistent frame.
#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>

using namespace headtalk;
using namespace headtalk::serve;

namespace {

Frame decode_one(const std::vector<std::uint8_t>& bytes) {
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  auto frame = reader.next();
  if (!frame) throw ProtocolError("incomplete frame");
  return *frame;
}

TEST(ServeProtocol, HelloRoundTrip) {
  Hello hello;
  hello.sample_rate_hz = 16000;
  hello.channels = 6;
  const Hello out = parse_hello(decode_one(encode_hello(hello)));
  EXPECT_EQ(out.protocol_version, kProtocolVersion);
  EXPECT_EQ(out.sample_rate_hz, 16000u);
  EXPECT_EQ(out.channels, 6);
}

TEST(ServeProtocol, HelloOkRoundTrip) {
  HelloOk ok;
  ok.max_chunk_frames = 1234;
  ok.max_utterance_frames = 99999;
  const HelloOk out = parse_hello_ok(decode_one(encode_hello_ok(ok)));
  EXPECT_EQ(out.max_chunk_frames, 1234u);
  EXPECT_EQ(out.max_utterance_frames, 99999u);
}

TEST(ServeProtocol, AudioChunkRoundTrip) {
  std::vector<float> interleaved(2 * 5);
  for (std::size_t i = 0; i < interleaved.size(); ++i) {
    interleaved[i] = 0.25f * static_cast<float>(i);
  }
  const AudioChunk out =
      parse_audio_chunk(decode_one(encode_audio_chunk(interleaved, 2)), 2);
  EXPECT_EQ(out.frames, 5u);
  ASSERT_EQ(out.interleaved.size(), interleaved.size());
  for (std::size_t i = 0; i < interleaved.size(); ++i) {
    EXPECT_EQ(out.interleaved[i], interleaved[i]);
  }
}

TEST(ServeProtocol, EndOfUtteranceRoundTrip) {
  EXPECT_FALSE(parse_end_of_utterance(decode_one(encode_end_of_utterance(false))).followup);
  EXPECT_TRUE(parse_end_of_utterance(decode_one(encode_end_of_utterance(true))).followup);
}

TEST(ServeProtocol, DecisionRoundTrip) {
  DecisionFrame decision;
  decision.decision = 3;
  decision.live = true;
  decision.facing = false;
  decision.via_open_session = true;
  decision.liveness_score = 0.75;
  decision.orientation_score = -1.5;
  decision.elapsed_seconds = 0.042;
  const DecisionFrame out = parse_decision(decode_one(encode_decision(decision)));
  EXPECT_EQ(out.decision, 3);
  EXPECT_TRUE(out.live);
  EXPECT_FALSE(out.facing);
  EXPECT_TRUE(out.via_open_session);
  EXPECT_DOUBLE_EQ(out.liveness_score, 0.75);
  EXPECT_DOUBLE_EQ(out.orientation_score, -1.5);
  EXPECT_DOUBLE_EQ(out.elapsed_seconds, 0.042);
}

TEST(ServeProtocol, ErrorRoundTrip) {
  const ErrorFrame out = parse_error(
      decode_one(encode_error(ErrorCode::kTooLarge, "chunk too big")));
  EXPECT_EQ(out.code, ErrorCode::kTooLarge);
  EXPECT_EQ(out.message, "chunk too big");
}

TEST(ServeProtocol, BusyRoundTrip) {
  const Frame frame = decode_one(encode_busy());
  EXPECT_EQ(frame.type, FrameType::kBusy);
  EXPECT_TRUE(frame.payload.empty());
}

// ---- wire-format pinning --------------------------------------------------
// Hand-built little-endian byte arrays, compared byte-for-byte against the
// encoder and fed raw through the decoder. These tests fail if the wire
// format ever drifts — a field reordered, a width changed, or a build that
// silently serializes host byte order on a big-endian machine.

TEST(ServeProtocolWire, HelloBytesAreLittleEndian) {
  const std::vector<std::uint8_t> expected{
      0x0C, 0x00, 0x00, 0x00,  // payload_len = 12
      0x01,                    // type = HELLO
      0x00, 0x00, 0x00,        // flags + reserved
      0x01, 0x00, 0x00, 0x00,  // protocol_version = 1
      0x80, 0xBB, 0x00, 0x00,  // sample_rate_hz = 48000
      0x04, 0x00,              // channels = 4
      0x00, 0x00,              // reserved
  };
  Hello hello;
  hello.sample_rate_hz = 48000;
  hello.channels = 4;
  EXPECT_EQ(encode_hello(hello), expected);

  const Hello out = parse_hello(decode_one(expected));
  EXPECT_EQ(out.protocol_version, 1u);
  EXPECT_EQ(out.sample_rate_hz, 48000u);
  EXPECT_EQ(out.channels, 4);
}

TEST(ServeProtocolWire, DecisionF64FieldsAreLittleEndianBitPatterns) {
  // 1.5 = 0x3FF8000000000000, -2.0 = 0xC000000000000000, 0.5 =
  // 0x3FE0000000000000, 0.0 = all zeros — IEEE-754 bit patterns serialized
  // least-significant byte first.
  const std::vector<std::uint8_t> expected{
      0x28, 0x00, 0x00, 0x00,  // payload_len = 40
      0x05,                    // type = DECISION
      0x00, 0x00, 0x00,        // flags + reserved
      0x02, 0x01, 0x00, 0x01,  // decision=2, live, !facing, via_open_session
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x3F,  // liveness = 1.5
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xC0,  // orientation = -2.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // elapsed = 0.0
      0x01, 0x00, 0x01, 0x00,  // policy applied, !allowed, reason=1, reserved
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,  // match = 0.5
  };
  DecisionFrame decision;
  decision.decision = 2;
  decision.live = true;
  decision.facing = false;
  decision.via_open_session = true;
  decision.liveness_score = 1.5;
  decision.orientation_score = -2.0;
  decision.elapsed_seconds = 0.0;
  decision.policy_applied = true;
  decision.policy_allowed = false;
  decision.policy_reason = 1;
  decision.match_score = 0.5;
  EXPECT_EQ(encode_decision(decision), expected);

  const DecisionFrame out = parse_decision(decode_one(expected));
  EXPECT_DOUBLE_EQ(out.liveness_score, 1.5);
  EXPECT_DOUBLE_EQ(out.orientation_score, -2.0);
  EXPECT_DOUBLE_EQ(out.elapsed_seconds, 0.0);
  EXPECT_TRUE(out.live);
  EXPECT_TRUE(out.via_open_session);
  EXPECT_TRUE(out.policy_applied);
  EXPECT_FALSE(out.policy_allowed);
  EXPECT_EQ(out.policy_reason, 1);
  EXPECT_DOUBLE_EQ(out.match_score, 0.5);
}

TEST(ServeProtocolWire, AudioChunkF32SamplesAreLittleEndianBitPatterns) {
  // 1.0f = 0x3F800000, -2.0f = 0xC0000000.
  const std::vector<std::uint8_t> expected{
      0x0C, 0x00, 0x00, 0x00,  // payload_len = 12
      0x03,                    // type = AUDIO_CHUNK
      0x00, 0x00, 0x00,        // flags + reserved
      0x02, 0x00, 0x00, 0x00,  // frames = 2
      0x00, 0x00, 0x80, 0x3F,  // 1.0f
      0x00, 0x00, 0x00, 0xC0,  // -2.0f
  };
  const std::vector<float> samples{1.0f, -2.0f};
  EXPECT_EQ(encode_audio_chunk(samples, 1), expected);

  const AudioChunk out = parse_audio_chunk(decode_one(expected), 1);
  ASSERT_EQ(out.interleaved.size(), 2u);
  EXPECT_EQ(out.interleaved[0], 1.0f);
  EXPECT_EQ(out.interleaved[1], -2.0f);
}

TEST(ServeProtocolWire, StreamSummaryU64IsLittleEndian) {
  const std::vector<std::uint8_t> expected{
      0x18, 0x00, 0x00, 0x00,  // payload_len = 24
      0x0C,                    // type = STREAM_SUMMARY
      0x00, 0x00, 0x00,        // flags + reserved
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // frames_streamed
      0x03, 0x00, 0x00, 0x00,  // segments = 3
      0x01, 0x00, 0x00, 0x00,  // force_closed = 1
      0x02, 0x00, 0x00, 0x00,  // discarded = 2
      0x00, 0x00, 0x00, 0x00,  // reserved
  };
  StreamSummary summary;
  summary.frames_streamed = 0x0102030405060708ull;
  summary.segments = 3;
  summary.force_closed = 1;
  summary.discarded = 2;
  EXPECT_EQ(encode_stream_summary(summary), expected);

  const StreamSummary out = parse_stream_summary(decode_one(expected));
  EXPECT_EQ(out.frames_streamed, 0x0102030405060708ull);
  EXPECT_EQ(out.segments, 3u);
}

TEST(ServeProtocol, ReaderHandlesArbitrarySplitPoints) {
  // Three frames fed one byte at a time must come out intact and in order.
  std::vector<std::uint8_t> stream;
  const auto add = [&](const std::vector<std::uint8_t>& bytes) {
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  };
  add(encode_hello(Hello{}));
  add(encode_audio_chunk(std::vector<float>(8, 0.5f), 4));
  add(encode_end_of_utterance(false));

  FrameReader reader;
  std::vector<FrameType> seen;
  for (std::uint8_t byte : stream) {
    reader.feed(&byte, 1);
    while (auto frame = reader.next()) seen.push_back(frame->type);
  }
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], FrameType::kHello);
  EXPECT_EQ(seen[1], FrameType::kAudioChunk);
  EXPECT_EQ(seen[2], FrameType::kEndOfUtterance);
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(ServeProtocol, RejectsUnknownFrameType) {
  auto bytes = encode_busy();
  bytes[4] = 0x7f;  // type byte
  FrameReader reader;
  EXPECT_THROW(reader.feed(bytes.data(), bytes.size()), ProtocolError);
}

TEST(ServeProtocol, RejectsNonzeroReservedHeaderBits) {
  auto bytes = encode_busy();
  bytes[5] = 1;  // flags must be zero in version 1
  FrameReader reader;
  EXPECT_THROW(reader.feed(bytes.data(), bytes.size()), ProtocolError);
}

TEST(ServeProtocol, RejectsOversizedPayloadLength) {
  auto bytes = encode_busy();
  const std::uint32_t huge = 64u << 20;
  std::memcpy(bytes.data(), &huge, sizeof huge);
  FrameReader reader;
  EXPECT_THROW(reader.feed(bytes.data(), bytes.size()), ProtocolError);
}

TEST(ServeProtocol, TruncatedFrameStaysPending) {
  const auto bytes = encode_hello(Hello{});
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size() - 1);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.buffered_bytes(), bytes.size() - 1);
}

TEST(ServeProtocol, RejectsTruncatedPayloadOnParse) {
  auto bytes = encode_hello(Hello{});
  // Shrink the payload but fix up the declared length so the frame decodes,
  // then the typed parser must reject the short payload.
  bytes.pop_back();
  const auto payload_len = static_cast<std::uint32_t>(bytes.size() - kFrameHeaderBytes);
  std::memcpy(bytes.data(), &payload_len, sizeof payload_len);
  EXPECT_THROW((void)parse_hello(decode_one(bytes)), ProtocolError);
}

TEST(ServeProtocol, RejectsTrailingPayloadBytes) {
  auto bytes = encode_end_of_utterance(true);
  bytes.push_back(0);
  const auto payload_len = static_cast<std::uint32_t>(bytes.size() - kFrameHeaderBytes);
  std::memcpy(bytes.data(), &payload_len, sizeof payload_len);
  EXPECT_THROW((void)parse_end_of_utterance(decode_one(bytes)), ProtocolError);
}

TEST(ServeProtocol, RejectsWrongFrameTypeForParser) {
  EXPECT_THROW((void)parse_hello(decode_one(encode_busy())), ProtocolError);
  EXPECT_THROW((void)parse_decision(decode_one(encode_hello(Hello{}))), ProtocolError);
}

TEST(ServeProtocol, RejectsBadFieldValues) {
  Hello zero_channels;
  zero_channels.channels = 0;
  EXPECT_THROW((void)parse_hello(decode_one(encode_hello(zero_channels))),
               ProtocolError);

  Hello slow;
  slow.sample_rate_hz = 100;  // below the 8 kHz floor
  EXPECT_THROW((void)parse_hello(decode_one(encode_hello(slow))), ProtocolError);

  // Chunk length must be frames * channels: parse with the wrong channel
  // count and the length check fires.
  const auto chunk = encode_audio_chunk(std::vector<float>(12, 0.0f), 4);
  EXPECT_THROW((void)parse_audio_chunk(decode_one(chunk), 5), ProtocolError);
}

TEST(ServeProtocol, StreamFramesRoundTrip) {
  parse_stream_start(decode_one(encode_stream_start()));
  parse_stream_end(decode_one(encode_stream_end()));

  const StreamOk ok = parse_stream_ok(decode_one(encode_stream_ok(StreamOk{960, 192000})));
  EXPECT_EQ(ok.vad_frame_length, 960u);
  EXPECT_EQ(ok.max_segment_frames, 192000u);

  StreamDecisionFrame decision;
  decision.decision.decision = 3;
  decision.decision.live = true;
  decision.decision.liveness_score = 0.75;
  decision.decision.orientation_score = -0.5;
  decision.decision.elapsed_seconds = 0.031;
  decision.begin_seconds = 1.25;
  decision.end_seconds = 2.5;
  decision.force_closed = true;
  const StreamDecisionFrame parsed =
      parse_stream_decision(decode_one(encode_stream_decision(decision)));
  EXPECT_EQ(parsed.decision.decision, 3);
  EXPECT_TRUE(parsed.decision.live);
  EXPECT_FALSE(parsed.decision.facing);
  EXPECT_DOUBLE_EQ(parsed.decision.liveness_score, 0.75);
  EXPECT_DOUBLE_EQ(parsed.decision.orientation_score, -0.5);
  EXPECT_DOUBLE_EQ(parsed.begin_seconds, 1.25);
  EXPECT_DOUBLE_EQ(parsed.end_seconds, 2.5);
  EXPECT_TRUE(parsed.force_closed);

  const StreamSummary summary =
      parse_stream_summary(decode_one(encode_stream_summary(StreamSummary{480000, 3, 1, 2})));
  EXPECT_EQ(summary.frames_streamed, 480000u);
  EXPECT_EQ(summary.segments, 3u);
  EXPECT_EQ(summary.force_closed, 1u);
  EXPECT_EQ(summary.discarded, 2u);
}

TEST(ServeProtocol, StreamFramesRejectBadFields) {
  // STREAM_START / STREAM_END carry no payload.
  auto padded = encode_stream_start();
  padded.push_back(0);
  const auto payload_len = static_cast<std::uint32_t>(padded.size() - kFrameHeaderBytes);
  std::memcpy(padded.data(), &payload_len, sizeof payload_len);
  EXPECT_THROW(parse_stream_start(decode_one(padded)), ProtocolError);

  EXPECT_THROW((void)parse_stream_ok(decode_one(encode_stream_ok(StreamOk{0, 100}))),
               ProtocolError);

  StreamDecisionFrame backwards;
  backwards.begin_seconds = 2.0;
  backwards.end_seconds = 1.0;
  EXPECT_THROW(
      (void)parse_stream_decision(decode_one(encode_stream_decision(backwards))),
      ProtocolError);
}

TEST(ServeProtocol, CorruptedBuffersNeverYieldUnvalidatedFrames) {
  // Fuzz-ish loop: mutate valid encodings (bit flips, truncation, garbage
  // prefixes) and decode. Every outcome must be either a clean parse or a
  // ProtocolError — UB and silent misparses are what the strict decoder
  // exists to rule out.
  std::vector<std::vector<std::uint8_t>> seeds;
  seeds.push_back(encode_hello(Hello{}));
  seeds.push_back(encode_hello_ok(HelloOk{kProtocolVersion, 100, 1000}));
  seeds.push_back(encode_audio_chunk(std::vector<float>(32, 0.25f), 4));
  seeds.push_back(encode_end_of_utterance(true));
  seeds.push_back(encode_decision(DecisionFrame{}));
  seeds.push_back(encode_error(ErrorCode::kInternal, "x"));
  seeds.push_back(encode_busy());
  seeds.push_back(encode_stream_start());
  seeds.push_back(encode_stream_ok(StreamOk{960, 192000}));
  seeds.push_back(encode_stream_decision(StreamDecisionFrame{}));
  seeds.push_back(encode_stream_end());
  seeds.push_back(encode_stream_summary(StreamSummary{480000, 3, 1, 0}));
  seeds.push_back(encode_auth("tenant-a"));
  seeds.push_back(encode_auth_ok(AuthOk{7, 1, 60}));
  seeds.push_back(encode_auth_reject(AuthRejectCode::kUnknownTenant, "no such tenant"));

  std::mt19937 rng(1234);
  std::size_t parsed = 0, rejected = 0;
  for (int round = 0; round < 2000; ++round) {
    auto bytes = seeds[static_cast<std::size_t>(round) % seeds.size()];
    const int mutations = 1 + static_cast<int>(rng() % 4);
    for (int m = 0; m < mutations; ++m) {
      switch (rng() % 3) {
        case 0:  // flip a random byte
          if (!bytes.empty()) bytes[rng() % bytes.size()] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
          break;
        case 1:  // truncate
          if (!bytes.empty()) bytes.resize(rng() % bytes.size());
          break;
        default:  // append garbage
          bytes.push_back(static_cast<std::uint8_t>(rng()));
          break;
      }
    }
    try {
      FrameReader reader;
      reader.feed(bytes.data(), bytes.size());
      while (auto frame = reader.next()) {
        switch (frame->type) {
          case FrameType::kHello: (void)parse_hello(*frame); break;
          case FrameType::kHelloOk: (void)parse_hello_ok(*frame); break;
          case FrameType::kAudioChunk: (void)parse_audio_chunk(*frame, 4); break;
          case FrameType::kEndOfUtterance: (void)parse_end_of_utterance(*frame); break;
          case FrameType::kDecision: (void)parse_decision(*frame); break;
          case FrameType::kError: (void)parse_error(*frame); break;
          case FrameType::kBusy: break;
          case FrameType::kStreamStart: parse_stream_start(*frame); break;
          case FrameType::kStreamOk: (void)parse_stream_ok(*frame); break;
          case FrameType::kStreamDecision: (void)parse_stream_decision(*frame); break;
          case FrameType::kStreamEnd: parse_stream_end(*frame); break;
          case FrameType::kStreamSummary: (void)parse_stream_summary(*frame); break;
          case FrameType::kAuth: (void)parse_auth(*frame); break;
          case FrameType::kAuthOk: (void)parse_auth_ok(*frame); break;
          case FrameType::kAuthReject: (void)parse_auth_reject(*frame); break;
        }
        ++parsed;
      }
    } catch (const ProtocolError&) {
      ++rejected;
    }
  }
  // The loop is only meaningful if both outcomes actually occur.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
