// The event-loop serve core, end to end over real sockets: verdict parity
// with the threaded engine, BUSY at the connection cap, graceful drain that
// answers utterances queued behind busy scorers, deadlines enforced while
// queued, byte-at-a-time delivery through a nonblocking adopted socket, and
// a 256-client exactly-one-DECISION stress run driven by the multiplexed
// load driver. The scoring-pool contracts run with one scoring thread and
// with several.
#include "serve/eventloop/eventloop_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <future>
#include <numbers>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve/load_driver.h"
#include "serve/server.h"
#include "serve_test_util.h"
#include "tenant/enrollment.h"
#include "tenant/service.h"

using namespace headtalk;
using namespace headtalk::serve;

namespace {

const core::HeadTalkPipeline& test_pipeline() {
  static const core::HeadTalkPipeline pipeline = serve_test::make_test_pipeline();
  return pipeline;
}

std::filesystem::path test_socket_path(const std::string& tag) {
  return std::filesystem::temp_directory_path() /
         ("headtalk_eltest_" + std::to_string(::getpid()) + "_" + tag + ".sock");
}

EventLoopConfig normal_mode_config(const std::string& tag) {
  EventLoopConfig config;
  config.base.socket_path = test_socket_path(tag);
  config.base.session.mode = core::VaMode::kNormal;  // skip DSP: machinery tests
  config.base.request_deadline_ms = 60000;
  return config;
}

/// Scoring-pool sizes the pool contracts are checked at: a single scorer
/// and several.
constexpr unsigned kScorerCounts[] = {1, 4};

/// Polls `predicate` until it holds or ~5 s pass.
template <typename Predicate>
bool eventually(Predicate predicate) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return predicate();
}

/// Occupies every scoring thread of a started server until open() (or
/// destruction), so the next utterance waits in the scoring queue. The
/// pool is FIFO, so the blockers run ahead of anything submitted later.
class ScorerGate {
 public:
  ScorerGate(EventLoopServer& server, unsigned scorers) {
    const std::shared_future<void> released = release_.get_future().share();
    for (unsigned i = 0; i < scorers; ++i) {
      server.scoring_pool().submit([released] { released.wait(); });
    }
  }
  ~ScorerGate() { open(); }
  ScorerGate(const ScorerGate&) = delete;
  ScorerGate& operator=(const ScorerGate&) = delete;

  void open() {
    if (!open_) release_.set_value();
    open_ = true;
  }

 private:
  std::promise<void> release_;
  bool open_ = false;
};

/// Sends one whole utterance without waiting for its verdict.
void send_utterance(BlockingClient& client, const audio::MultiBuffer& capture) {
  std::vector<float> interleaved(capture.frames() * capture.channel_count());
  for (std::size_t f = 0; f < capture.frames(); ++f) {
    for (std::size_t c = 0; c < capture.channel_count(); ++c) {
      interleaved[f * capture.channel_count() + c] =
          static_cast<float>(capture.channel(c)[f]);
    }
  }
  const auto chunk = encode_audio_chunk(
      interleaved, static_cast<std::uint16_t>(capture.channel_count()));
  client.send_bytes(chunk.data(), chunk.size());
  const auto end = encode_end_of_utterance(false);
  client.send_bytes(end.data(), end.size());
}

TEST(ServeEventLoop, ScoresOneUtterance) {
  EventLoopConfig config = normal_mode_config("basic");
  EventLoopServer server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.base.socket_path);
  (void)client.hello();
  const auto capture = serve_test::make_capture(4, 512);
  const DecisionFrame decision = client.score(capture);
  EXPECT_EQ(decision.decision, static_cast<std::uint8_t>(core::Decision::kAccepted));
  // No unsolicited frames follow the decision.
  EXPECT_THROW((void)client.read_frame(50), ClientError);
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.decisions, 1u);
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.scores_in_flight, 0u);
  EXPECT_FALSE(std::filesystem::exists(config.base.socket_path));
}

TEST(ServeEventLoop, VerdictParityWithThreadedEngine) {
  // Full-DSP scoring of the same capture through both engines must produce
  // identical verdicts and scores: the scoring pool calls the same
  // pipeline, and a workspace a previous utterance warmed changes nothing.
  const auto capture = serve_test::make_capture(4, 24000);

  ServerConfig threaded_config;
  threaded_config.socket_path = test_socket_path("parity_t");
  threaded_config.request_deadline_ms = 120000;
  Server threaded(test_pipeline(), threaded_config);
  threaded.start();
  auto threaded_client = BlockingClient::connect_unix(threaded_config.socket_path);
  (void)threaded_client.hello();
  const DecisionFrame expected = threaded_client.score(capture);
  threaded.stop();

  for (const unsigned scorers : kScorerCounts) {
    SCOPED_TRACE("scorers " + std::to_string(scorers));
    EventLoopConfig config;
    config.base.socket_path = test_socket_path("parity_e");
    config.base.request_deadline_ms = 120000;
    config.base.workers = scorers;
    EventLoopServer server(test_pipeline(), config);
    server.start();
    auto client = BlockingClient::connect_unix(config.base.socket_path);
    (void)client.hello();
    for (int i = 0; i < 2; ++i) {
      const DecisionFrame actual = client.score(capture, /*followup=*/false);
      EXPECT_EQ(actual.decision, expected.decision);
      EXPECT_DOUBLE_EQ(actual.liveness_score, expected.liveness_score);
      EXPECT_DOUBLE_EQ(actual.orientation_score, expected.orientation_score);
    }
    server.stop();
  }
}

TEST(ServeEventLoop, PipelinedUtterancesAnswerInOrder) {
  EventLoopConfig config = normal_mode_config("pipelined");
  EventLoopServer server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.base.socket_path);
  (void)client.hello();
  const auto capture = serve_test::make_capture(4, 256);
  for (int i = 0; i < 3; ++i) {
    const DecisionFrame decision = client.score(capture, /*followup=*/i > 0);
    EXPECT_EQ(decision.decision,
              static_cast<std::uint8_t>(core::Decision::kAccepted));
  }
  server.stop();
  EXPECT_EQ(server.stats().decisions, 3u);
}

TEST(ServeEventLoop, BusyAtMaxConnections) {
  EventLoopConfig config = normal_mode_config("busy");
  config.max_connections = 1;
  EventLoopServer server(test_pipeline(), config);
  server.start();

  auto a = BlockingClient::connect_unix(config.base.socket_path);
  (void)a.hello();
  ASSERT_TRUE(eventually([&] { return server.stats().active_connections == 1; }));

  // B overflows the cap: answered BUSY and closed without a session.
  auto b = BlockingClient::connect_unix(config.base.socket_path);
  const Frame reply = b.read_frame(5000);
  EXPECT_EQ(reply.type, FrameType::kBusy);
  EXPECT_TRUE(eventually([&] { return server.stats().busy_rejections == 1; }));

  // A's slot frees on close; the next connection is served again.
  a.close();
  ASSERT_TRUE(eventually([&] { return server.stats().active_connections == 0; }));
  auto c = BlockingClient::connect_unix(config.base.socket_path);
  (void)c.hello();
  const DecisionFrame decision = c.score(serve_test::make_capture(4, 256));
  EXPECT_EQ(decision.decision, static_cast<std::uint8_t>(core::Decision::kAccepted));
  server.stop();
}

TEST(ServeEventLoop, DrainAnswersUtteranceParkedInBatchQueue) {
  for (const unsigned scorers : kScorerCounts) {
    SCOPED_TRACE("scorers " + std::to_string(scorers));
    EventLoopConfig config = normal_mode_config("drain");
    config.base.workers = scorers;
    EventLoopServer server(test_pipeline(), config);
    server.start();
    // Every scorer is busy, so the utterance waits in the scoring queue
    // until the drain has begun.
    ScorerGate gate(server, scorers);

    auto client = BlockingClient::connect_unix(config.base.socket_path);
    (void)client.hello();
    send_utterance(client, serve_test::make_capture(4, 256));
    ASSERT_TRUE(eventually([&] { return server.stats().scores_in_flight == 1; }));

    // Stop with the utterance queued: the drain must wait for it and
    // deliver its DECISION before the loops exit.
    std::thread stopper([&] { server.stop(); });
    EXPECT_TRUE(eventually([&] { return server.draining(); }));
    gate.open();
    const Frame reply = client.read_frame(10000);
    stopper.join();
    EXPECT_EQ(reply.type, FrameType::kDecision);
    EXPECT_EQ(parse_decision(reply).decision,
              static_cast<std::uint8_t>(core::Decision::kAccepted));
    EXPECT_FALSE(server.running());
    EXPECT_EQ(server.stats().decisions, 1u);
    EXPECT_FALSE(std::filesystem::exists(config.base.socket_path));
  }
}

TEST(ServeEventLoop, DeadlineEnforcedWhileParkedInBatchQueue) {
  for (const unsigned scorers : kScorerCounts) {
    SCOPED_TRACE("scorers " + std::to_string(scorers));
    EventLoopConfig config = normal_mode_config("deadline_parked");
    config.base.request_deadline_ms = 150;
    config.base.workers = scorers;
    EventLoopServer server(test_pipeline(), config);
    server.start();
    // The scorers stay busy past the deadline: the only way the client
    // hears back in time is the loop's deadline sweep.
    ScorerGate gate(server, scorers);

    auto client = BlockingClient::connect_unix(config.base.socket_path);
    (void)client.hello();
    send_utterance(client, serve_test::make_capture(4, 256));

    const Frame reply = client.read_frame(5000);
    EXPECT_EQ(reply.type, FrameType::kError);
    EXPECT_EQ(parse_error(reply).code, ErrorCode::kDeadlineExceeded);
    // The server closes after the error; the next read sees EOF.
    EXPECT_THROW((void)client.read_frame(5000), ClientError);
    EXPECT_TRUE(eventually([&] { return server.stats().deadline_expirations == 1; }));
    EXPECT_EQ(server.stats().scores_in_flight, 1u);
    gate.open();
    server.stop();
    // The pool eventually scored the queued capture, but the verdict found
    // no connection to deliver to — no decision is counted.
    EXPECT_EQ(server.stats().decisions, 0u);
    EXPECT_EQ(server.stats().scores_in_flight, 0u);
  }
}

TEST(ServeEventLoop, IdleDeadlineExpires) {
  EventLoopConfig config = normal_mode_config("deadline_idle");
  config.base.request_deadline_ms = 100;
  EventLoopServer server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.base.socket_path);
  (void)client.hello();
  // Send nothing further: the utterance deadline expires on the server.
  const Frame reply = client.read_frame(5000);
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(parse_error(reply).code, ErrorCode::kDeadlineExceeded);
  EXPECT_THROW((void)client.read_frame(5000), ClientError);
  EXPECT_TRUE(eventually([&] { return server.stats().deadline_expirations == 1; }));
  server.stop();
}

TEST(ServeEventLoop, MalformedBytesGetErrorFrame) {
  EventLoopConfig config = normal_mode_config("garbage");
  EventLoopServer server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.base.socket_path);
  const std::vector<std::uint8_t> garbage(64, 0xee);
  client.send_bytes(garbage.data(), garbage.size());
  const Frame reply = client.read_frame(5000);
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(parse_error(reply).code, ErrorCode::kBadRequest);
  EXPECT_TRUE(eventually([&] { return server.stats().session_errors == 1; }));
  server.stop();
}

TEST(ServeEventLoop, OneByteAtATimeThroughAdoptedNonblockingSocket) {
  // The regression the FrameReader/Session refactor guards: frames arrive
  // one byte per readiness event through a socketpair handed to
  // adopt_connection() (the shard fd-passing path), so every partial-read
  // resume point in the state machine gets exercised.
  EventLoopConfig config = normal_mode_config("bytewise");
  EventLoopServer server(test_pipeline(), config);
  server.start();

  int pair[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  server.adopt_connection(pair[0]);

  std::vector<std::uint8_t> bytes;
  {
    const auto hello = encode_hello({});
    bytes.insert(bytes.end(), hello.begin(), hello.end());
    const auto capture = serve_test::make_capture(4, 64);
    std::vector<float> interleaved(capture.frames() * 4);
    for (std::size_t f = 0; f < capture.frames(); ++f) {
      for (std::size_t c = 0; c < 4; ++c) {
        interleaved[f * 4 + c] = static_cast<float>(capture.channel(c)[f]);
      }
    }
    const auto chunk = encode_audio_chunk(interleaved, 4);
    bytes.insert(bytes.end(), chunk.begin(), chunk.end());
    const auto end = encode_end_of_utterance(false);
    bytes.insert(bytes.end(), end.begin(), end.end());
  }
  for (const std::uint8_t byte : bytes) {
    ASSERT_EQ(::send(pair[1], &byte, 1, 0), 1);
  }

  // Expect HELLO_OK then DECISION on the test end of the pair.
  FrameReader reader;
  std::vector<Frame> frames;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (frames.size() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::uint8_t buffer[256];
    const ssize_t n = ::recv(pair[1], buffer, sizeof buffer, MSG_DONTWAIT);
    if (n > 0) {
      reader.feed(buffer, static_cast<std::size_t>(n));
      while (auto frame = reader.next()) frames.push_back(*std::move(frame));
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kHelloOk);
  EXPECT_EQ(frames[1].type, FrameType::kDecision);
  EXPECT_EQ(parse_decision(frames[1]).decision,
            static_cast<std::uint8_t>(core::Decision::kAccepted));
  ::close(pair[1]);
  server.stop();
  EXPECT_EQ(server.stats().decisions, 1u);
}

TEST(ServeEventLoop, AuthAndPolicyThroughEventLoop) {
  tenant::TenantService service(std::filesystem::path(::testing::TempDir()) /
                                "eltest_tenants");
  {
    std::vector<core::FeatureCapture> features(3);
    for (auto& capture : features) capture.liveness.assign(6, 1.0);
    tenant::EnrollmentConfig enroll;
    enroll.rule = tenant::PolicyRule::kAny;
    service.store().publish(
        tenant::enroll_from_features(features, "anna", enroll));
    service.reload();
  }

  EventLoopConfig config = normal_mode_config("auth");
  config.base.session.tenants = &service;
  EventLoopServer server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.base.socket_path);
  (void)client.hello();
  const auto rejected = client.auth("nobody");
  EXPECT_FALSE(rejected.accepted);
  const auto accepted = client.auth("anna");
  ASSERT_TRUE(accepted.accepted);
  const DecisionFrame decision = client.score(serve_test::make_capture(4, 256));
  EXPECT_TRUE(decision.policy_applied);
  EXPECT_TRUE(decision.policy_allowed);  // kAny allows everything
  server.stop();
}

TEST(ServeEventLoop, StreamingModeEndpointsThroughEventLoop) {
  EventLoopConfig config = normal_mode_config("stream");
  config.base.session.stream.endpoint.pre_roll_frames = 2;
  config.base.session.stream.endpoint.onset_frames = 2;
  config.base.session.stream.endpoint.hangover_frames = 4;
  config.base.session.stream.endpoint.post_roll_frames = 2;
  config.base.session.stream.endpoint.min_utterance_frames = 4;
  config.base.session.stream.endpoint.max_utterance_frames = 200;
  EventLoopServer server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.base.socket_path);
  (void)client.hello();
  const StreamOk ok = client.start_stream();
  ASSERT_GT(ok.vad_frame_length, 0u);

  // Tonal burst (the VAD's idea of speech — white noise is gated out)
  // followed by silence long enough to close the segment.
  const std::size_t tone_frames = 30 * ok.vad_frame_length;
  const std::size_t total_frames = tone_frames + 20 * ok.vad_frame_length;
  audio::MultiBuffer scene(4, total_frames, audio::kDefaultSampleRate);
  for (std::size_t f = 0; f < tone_frames; ++f) {
    const double t = static_cast<double>(f) / audio::kDefaultSampleRate;
    double v = 0.0;
    for (int h = 1; h <= 4; ++h) {
      v += 0.05 * std::sin(2.0 * std::numbers::pi * 220.0 * h * t);
    }
    for (std::size_t c = 0; c < 4; ++c) scene.channel(c)[f] = v;
  }

  std::vector<StreamDecisionFrame> decisions;
  client.stream_audio(scene, decisions, 4 * ok.vad_frame_length);
  const StreamSummary summary = client.end_stream(decisions);
  EXPECT_EQ(summary.segments, 1u);
  EXPECT_EQ(decisions.size(), summary.segments);
  server.stop();
}

TEST(ServeEventLoop, PollBackendServes) {
  EventLoopConfig config = normal_mode_config("pollfb");
  config.poller = PollerBackend::kPoll;
  EventLoopServer server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.base.socket_path);
  (void)client.hello();
  const DecisionFrame decision = client.score(serve_test::make_capture(4, 256));
  EXPECT_EQ(decision.decision, static_cast<std::uint8_t>(core::Decision::kAccepted));
  server.stop();
}

TEST(ServeEventLoop, TwoLoopsTwoScoringThreads) {
  EventLoopConfig config = normal_mode_config("multiloop");
  config.loops = 2;
  config.base.workers = 2;
  EventLoopServer server(test_pipeline(), config);
  server.start();

  constexpr unsigned kClients = 16;
  std::vector<std::string> failures(kClients);
  {
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (unsigned i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        try {
          auto client = BlockingClient::connect_unix(config.base.socket_path);
          (void)client.hello();
          const DecisionFrame decision =
              client.score(serve_test::make_capture(4, 512));
          if (decision.decision !=
              static_cast<std::uint8_t>(core::Decision::kAccepted)) {
            throw std::runtime_error("unexpected decision");
          }
        } catch (const std::exception& error) {
          failures[i] = error.what();
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  for (unsigned i = 0; i < kClients; ++i) {
    EXPECT_EQ(failures[i], "") << "client " << i;
  }
  server.stop();
  EXPECT_EQ(server.stats().decisions, kClients);
}

TEST(ServeEventLoop, Stress256ClientsExactlyOneDecisionEach) {
  // The multiplexed load driver holds 256 concurrent connections from one
  // thread; each fires one utterance. Every connection must get exactly
  // one well-formed DECISION — protocol_violations counts any breach.
  for (const unsigned scorers : kScorerCounts) {
    SCOPED_TRACE("scorers " + std::to_string(scorers));
    EventLoopConfig config = normal_mode_config("stress256");
    config.base.workers = scorers;
    EventLoopServer server(test_pipeline(), config);
    server.start();

    LoadDriverConfig load;
    load.socket_path = config.base.socket_path;
    load.connections = 256;
    load.utterances = 256;  // one per connection (closed loop)
    load.utterance_frames = 256;
    load.ramp_ms = 50;
    const LoadReport report = run_load(load);

    EXPECT_EQ(report.decisions, 256u);
    EXPECT_EQ(report.protocol_violations, 0u);
    EXPECT_EQ(report.errors, 0u);
    EXPECT_EQ(report.busy_rejections, 0u);
    EXPECT_EQ(report.abandoned, 0u);
    server.stop();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.decisions, 256u);
    EXPECT_EQ(stats.connections_accepted, 256u);
    EXPECT_EQ(stats.scores_in_flight, 0u);
  }
}

TEST(ServeEventLoop, StopIsIdempotentAndRestartFails) {
  EventLoopConfig config = normal_mode_config("stop2");
  EventLoopServer server(test_pipeline(), config);
  server.start();
  EXPECT_TRUE(server.running());
  server.stop();
  server.stop();  // second call is a no-op
  EXPECT_FALSE(server.running());
  EXPECT_THROW(server.start(), std::runtime_error);
}

}  // namespace
