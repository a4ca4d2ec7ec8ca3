// The server's event loops, end to end over real sockets: verdict parity
// with in-process scoring, BUSY at the connection cap, a graceful drain
// that answers an utterance which reached the socket while its loop was
// busy, a drain that ends although a client keeps sending, deadlines
// enforced on bytes that waited behind a busy loop, byte-at-a-time
// delivery through a nonblocking adopted socket, and a 256-client
// exactly-one-DECISION stress run driven by the multiplexed load driver.
// The loop-scheduling contracts run with one loop and with several.
#include "serve/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <future>
#include <latch>
#include <memory>
#include <numbers>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve/load_driver.h"
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

ServerConfig normal_mode_config(const std::string& tag) {
  ServerConfig config;
  config.socket_path = test_socket_path(tag);
  config.session.mode = core::VaMode::kNormal;  // skip DSP: machinery tests
  config.request_deadline_ms = 60000;
  return config;
}

/// Loop counts the scheduling contracts are checked at: a single loop and
/// several.
constexpr unsigned kLoopCounts[] = {1, 4};

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

/// Holds every loop of a started server inside a task until open() (or
/// destruction), so bytes a client sends meanwhile wait unread behind a
/// busy loop. The tasks queue behind whatever each loop already has;
/// wait_entered() returns once every loop is inside its task.
class LoopGate {
 public:
  LoopGate(Server& server, unsigned loops)
      : entered_(std::make_shared<std::latch>(loops)) {
    server.run_on_each_loop(
        [entered = entered_, released = release_.get_future().share()] {
          entered->count_down();
          released.wait();
        });
  }
  ~LoopGate() { open(); }
  LoopGate(const LoopGate&) = delete;
  LoopGate& operator=(const LoopGate&) = delete;

  void wait_entered() { entered_->wait(); }
  void open() {
    if (!open_) release_.set_value();
    open_ = true;
  }

 private:
  std::shared_ptr<std::latch> entered_;
  std::promise<void> release_;
  bool open_ = false;
};

/// The capture as the server sees it: the wire carries float32 samples.
audio::MultiBuffer as_sent(const audio::MultiBuffer& capture) {
  audio::MultiBuffer out = capture;
  for (std::size_t c = 0; c < out.channel_count(); ++c) {
    for (std::size_t f = 0; f < out.frames(); ++f) {
      out.channel(c)[f] = static_cast<float>(out.channel(c)[f]);
    }
  }
  return out;
}

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
  ServerConfig config = normal_mode_config("basic");
  Server server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.socket_path);
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
  EXPECT_FALSE(std::filesystem::exists(config.socket_path));
}

TEST(ServeEventLoop, VerdictParityWithThreadedEngine) {
  // Full-DSP scoring through the server must give exactly the verdicts and
  // scores of an in-process score_capture on the same captures: the loop
  // calls the same pipeline, and a workspace earlier utterances warmed
  // changes nothing. The open-session flag carries across a connection's
  // utterances on both sides.
  const std::vector<audio::MultiBuffer> captures = {
      serve_test::make_capture(4, 24000, 11), serve_test::make_capture(4, 24000, 23)};
  std::vector<core::PipelineResult> expected;
  bool session_open = false;
  for (int round = 0; round < 2; ++round) {
    for (const auto& capture : captures) {
      expected.push_back(test_pipeline().score_capture(
          as_sent(capture), core::VaMode::kHeadTalk, /*followup=*/false, session_open));
      session_open = expected.back().session_open_after;
    }
  }

  for (const unsigned loops : kLoopCounts) {
    SCOPED_TRACE("loops " + std::to_string(loops));
    ServerConfig config;
    config.socket_path = test_socket_path("parity");
    config.request_deadline_ms = 120000;
    config.workers = loops;
    Server server(test_pipeline(), config);
    server.start();
    auto client = BlockingClient::connect_unix(config.socket_path);
    (void)client.hello();
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const DecisionFrame actual =
          client.score(captures[i % captures.size()], /*followup=*/false);
      EXPECT_EQ(actual.decision, static_cast<std::uint8_t>(expected[i].decision));
      EXPECT_EQ(actual.live, expected[i].live);
      EXPECT_EQ(actual.facing, expected[i].facing);
      EXPECT_EQ(actual.via_open_session, expected[i].via_open_session);
      EXPECT_DOUBLE_EQ(actual.liveness_score, expected[i].liveness_score);
      EXPECT_DOUBLE_EQ(actual.orientation_score, expected[i].orientation_score);
    }
    server.stop();
  }
}

TEST(ServeEventLoop, PipelinedUtterancesAnswerInOrder) {
  ServerConfig config = normal_mode_config("pipelined");
  Server server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.socket_path);
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
  ServerConfig config = normal_mode_config("busy");
  config.max_connections = 1;
  Server server(test_pipeline(), config);
  server.start();

  auto a = BlockingClient::connect_unix(config.socket_path);
  (void)a.hello();
  ASSERT_TRUE(eventually([&] { return server.stats().active_connections == 1; }));

  // B overflows the cap: answered BUSY and closed without a session.
  auto b = BlockingClient::connect_unix(config.socket_path);
  const Frame reply = b.read_frame(5000);
  EXPECT_EQ(reply.type, FrameType::kBusy);
  EXPECT_TRUE(eventually([&] { return server.stats().busy_rejections == 1; }));

  // A's slot frees on close; the next connection is served again.
  a.close();
  ASSERT_TRUE(eventually([&] { return server.stats().active_connections == 0; }));
  auto c = BlockingClient::connect_unix(config.socket_path);
  (void)c.hello();
  const DecisionFrame decision = c.score(serve_test::make_capture(4, 256));
  EXPECT_EQ(decision.decision, static_cast<std::uint8_t>(core::Decision::kAccepted));
  server.stop();
}

TEST(ServeEventLoop, DrainAnswersUtteranceParkedInBatchQueue) {
  for (const unsigned loops : kLoopCounts) {
    SCOPED_TRACE("loops " + std::to_string(loops));
    ServerConfig config = normal_mode_config("drain");
    config.workers = loops;
    Server server(test_pipeline(), config);
    server.start();

    auto client = BlockingClient::connect_unix(config.socket_path);
    (void)client.hello();
    // Two whole utterances reach the socket while every loop is busy, so
    // none has read them when the stop arrives. Each is 48 KB: together
    // they fit the socket buffer but not one 64 KB read, so the first
    // read ends inside the second utterance.
    LoopGate gate(server, loops);
    gate.wait_entered();
    const auto capture = serve_test::make_capture(4, 3000);
    send_utterance(client, capture);
    send_utterance(client, capture);

    // The drain must read what the connection already sent and deliver
    // both DECISIONs before the loops exit.
    std::thread stopper([&] { server.stop(); });
    EXPECT_TRUE(eventually([&] { return server.draining(); }));
    gate.open();
    std::vector<Frame> replies;
    std::string read_error;
    try {
      for (int i = 0; i < 2; ++i) replies.push_back(client.read_frame(10000));
    } catch (const ClientError& error) {
      read_error = error.what();  // e.g. the server closed after one reply
    }
    stopper.join();
    EXPECT_EQ(read_error, "");
    ASSERT_EQ(replies.size(), 2u);
    for (const Frame& reply : replies) {
      EXPECT_EQ(reply.type, FrameType::kDecision);
      if (reply.type == FrameType::kDecision) {
        EXPECT_EQ(parse_decision(reply).decision,
                  static_cast<std::uint8_t>(core::Decision::kAccepted));
      }
    }
    EXPECT_FALSE(server.running());
    EXPECT_EQ(server.stats().decisions, 2u);
    EXPECT_FALSE(std::filesystem::exists(config.socket_path));
  }
}

TEST(ServeEventLoop, DrainEndsWhileClientKeepsSending) {
  // A client that pipelines utterances without pause always has bytes
  // queued at the server: over loopback TCP, whose buffers grow to
  // megabytes, it writes short utterances far faster than the server
  // scores them in full. The drain reads only what was queued when it
  // began, so it must still end, with every DECISION it sent intact.
  for (const unsigned loops : kLoopCounts) {
    SCOPED_TRACE("loops " + std::to_string(loops));
    ServerConfig config;
    config.tcp_port =
        30000 + static_cast<int>(::getpid() % 15000) + static_cast<int>(loops);
    config.workers = loops;
    config.request_deadline_ms = 60000;
    Server server(test_pipeline(), config);
    try {
      server.start();
    } catch (const std::runtime_error&) {
      GTEST_SKIP() << "port " << config.tcp_port << " unavailable";
    }

    auto client = BlockingClient::connect_tcp(config.tcp_port);
    (void)client.hello();
    const auto capture = serve_test::make_capture(4, 1024);
    std::vector<float> interleaved(capture.frames() * capture.channel_count());
    for (std::size_t f = 0; f < capture.frames(); ++f) {
      for (std::size_t c = 0; c < capture.channel_count(); ++c) {
        interleaved[f * capture.channel_count() + c] =
            static_cast<float>(capture.channel(c)[f]);
      }
    }
    auto utterance = encode_audio_chunk(
        interleaved, static_cast<std::uint16_t>(capture.channel_count()));
    const auto end = encode_end_of_utterance(false);
    utterance.insert(utterance.end(), end.begin(), end.end());

    // Two threads share the connection: one only sends (until the server
    // closes it), the other only reads.
    std::atomic<bool> keep_sending{true};
    std::thread sender([&] {
      try {
        while (keep_sending.load()) {
          client.send_bytes(utterance.data(), utterance.size());
        }
      } catch (const ClientError&) {
      }
    });
    std::vector<Frame> replies;
    std::thread reader([&] {
      try {
        while (true) replies.push_back(client.read_frame(30000));
      } catch (const ClientError&) {
      }
    });
    EXPECT_TRUE(eventually([&] { return server.stats().decisions >= 4; }));

    auto stopped = std::async(std::launch::async, [&] { server.stop(); });
    const bool ended =
        stopped.wait_for(std::chrono::seconds(20)) == std::future_status::ready;
    EXPECT_TRUE(ended) << "the drain kept reading a client that never pauses";
    keep_sending.store(false);  // lets a drain that would not end finish
    stopped.wait();
    sender.join();
    reader.join();

    EXPECT_FALSE(server.running());
    // DECISIONs, then at most a shutting-down notice (when the drain found
    // the connection between utterances). The server closes with the
    // client's later bytes unread, so TCP resets the connection and may
    // drop the last replies in flight: fewer may arrive than were sent.
    ASSERT_FALSE(replies.empty());
    if (replies.back().type == FrameType::kError) {
      EXPECT_EQ(parse_error(replies.back()).code, ErrorCode::kShuttingDown);
      replies.pop_back();
    }
    for (const Frame& reply : replies) EXPECT_EQ(reply.type, FrameType::kDecision);
    EXPECT_LE(replies.size(), server.stats().decisions);
  }
}

TEST(ServeEventLoop, DeadlineEnforcedWhileParkedInBatchQueue) {
  for (const unsigned loops : kLoopCounts) {
    SCOPED_TRACE("loops " + std::to_string(loops));
    const auto budget = std::chrono::milliseconds(250);
    ServerConfig config = normal_mode_config("deadline_parked");
    config.request_deadline_ms = static_cast<int>(budget.count());
    config.workers = loops;
    Server server(test_pipeline(), config);
    server.start();

    auto client = BlockingClient::connect_unix(config.socket_path);
    (void)client.hello();
    // The server accepted before HELLO_OK came back; its deadline for this
    // connection has passed once `budget` has elapsed from here.
    const auto accepted_by = std::chrono::steady_clock::now();

    // Send the utterance while every loop is held, and queue a second hold
    // behind the first: when the first lifts, each loop's next wait reports
    // the utterance readable, and the second hold runs before it is read.
    LoopGate first(server, loops);
    first.wait_entered();
    send_utterance(client, serve_test::make_capture(4, 256));
    LoopGate second(server, loops);
    first.open();
    second.wait_entered();
    // The deadline lapses while the bytes wait unread behind the busy loop
    // (this waits for the clock, not for another thread).
    std::this_thread::sleep_until(accepted_by + budget + std::chrono::milliseconds(20));
    second.open();

    const Frame reply = client.read_frame(5000);
    EXPECT_EQ(reply.type, FrameType::kError);
    if (reply.type == FrameType::kError) {
      EXPECT_EQ(parse_error(reply).code, ErrorCode::kDeadlineExceeded);
    }
    // The server closes after the error; the next read sees EOF.
    EXPECT_THROW((void)client.read_frame(5000), ClientError);
    EXPECT_TRUE(eventually([&] { return server.stats().deadline_expirations == 1; }));
    server.stop();
    // The late utterance was never scored.
    EXPECT_EQ(server.stats().decisions, 0u);
  }
}

TEST(ServeEventLoop, IdleDeadlineExpires) {
  ServerConfig config = normal_mode_config("deadline_idle");
  config.request_deadline_ms = 100;
  Server server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.socket_path);
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
  ServerConfig config = normal_mode_config("garbage");
  Server server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.socket_path);
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
  ServerConfig config = normal_mode_config("bytewise");
  Server server(test_pipeline(), config);
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

  ServerConfig config = normal_mode_config("auth");
  config.session.tenants = &service;
  Server server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.socket_path);
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
  ServerConfig config = normal_mode_config("stream");
  config.session.stream.endpoint.pre_roll_frames = 2;
  config.session.stream.endpoint.onset_frames = 2;
  config.session.stream.endpoint.hangover_frames = 4;
  config.session.stream.endpoint.post_roll_frames = 2;
  config.session.stream.endpoint.min_utterance_frames = 4;
  config.session.stream.endpoint.max_utterance_frames = 200;
  Server server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.socket_path);
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
  ServerConfig config = normal_mode_config("pollfb");
  config.poller = PollerBackend::kPoll;
  Server server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.socket_path);
  (void)client.hello();
  const DecisionFrame decision = client.score(serve_test::make_capture(4, 256));
  EXPECT_EQ(decision.decision, static_cast<std::uint8_t>(core::Decision::kAccepted));
  server.stop();
}

TEST(ServeEventLoop, TwoLoopsTwoScoringThreads) {
  // Two loops, each scoring the connections dealt to it.
  ServerConfig config = normal_mode_config("multiloop");
  config.workers = 2;
  Server server(test_pipeline(), config);
  server.start();

  constexpr unsigned kClients = 16;
  std::vector<std::string> failures(kClients);
  {
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (unsigned i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        try {
          auto client = BlockingClient::connect_unix(config.socket_path);
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
  for (const unsigned loops : kLoopCounts) {
    SCOPED_TRACE("loops " + std::to_string(loops));
    // With a 50 ms ramp, connections arrive while the loops, which also
    // accept, are scoring inline. With none, every connection opens before
    // the first utterance fires.
    for (const std::uint32_t ramp_ms : {50u, 0u}) {
      SCOPED_TRACE("ramp_ms " + std::to_string(ramp_ms));
      ServerConfig config = normal_mode_config("stress256");
      config.workers = loops;
      Server server(test_pipeline(), config);
      server.start();

      LoadDriverConfig load;
      load.socket_path = config.socket_path;
      load.connections = 256;
      load.utterances = 256;  // one per connection (closed loop)
      load.utterance_frames = 256;
      load.ramp_ms = ramp_ms;
      const LoadReport report = run_load(load);

      EXPECT_EQ(report.decisions, 256u);
      EXPECT_EQ(report.protocol_violations, 0u);
      EXPECT_EQ(report.errors, 0u);
      EXPECT_EQ(report.busy_rejections, 0u);
      EXPECT_EQ(report.abandoned, 0u);
      // Under a ramp the closed loop hands a finished connection the next
      // utterance, so a fast server can serve all 256 before the last
      // connection opens; the server must have taken every one that did.
      if (ramp_ms == 0) {
        EXPECT_EQ(report.connects, 256u);
      }
      EXPECT_TRUE(eventually(
          [&] { return server.stats().connections_accepted == report.connects; }));
      server.stop();
      EXPECT_EQ(server.stats().decisions, 256u);
    }
  }
}

TEST(ServeEventLoop, StopIsIdempotentAndRestartFails) {
  ServerConfig config = normal_mode_config("stop2");
  Server server(test_pipeline(), config);
  server.start();
  EXPECT_TRUE(server.running());
  server.stop();
  server.stop();  // second call is a no-op
  EXPECT_FALSE(server.running());
  EXPECT_THROW(server.start(), std::runtime_error);
}

}  // namespace
