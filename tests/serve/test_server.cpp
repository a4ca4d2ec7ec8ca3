// End-to-end daemon tests over real Unix sockets: concurrent-client
// stress (every client gets exactly one well-formed DECISION), BUSY
// backpressure at the connection cap, graceful drain that still answers
// the in-flight utterance, per-utterance deadline expiry, an ERROR frame
// for malformed bytes, and a stop that is idempotent and final.
#include "serve/server.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve_test_util.h"

using namespace headtalk;
using namespace headtalk::serve;

namespace {

const core::HeadTalkPipeline& test_pipeline() {
  static const core::HeadTalkPipeline pipeline = serve_test::make_test_pipeline();
  return pipeline;
}

std::filesystem::path test_socket_path(const std::string& tag) {
  return std::filesystem::temp_directory_path() /
         ("headtalk_test_" + std::to_string(::getpid()) + "_" + tag + ".sock");
}

ServerConfig normal_mode_config(const std::string& tag) {
  ServerConfig config;
  config.socket_path = test_socket_path(tag);
  config.session.mode = core::VaMode::kNormal;  // skip DSP: machinery tests
  config.request_deadline_ms = 60000;
  return config;
}

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

TEST(ServeServer, StressManyConcurrentClientsOneDecisionEach) {
  constexpr unsigned kClients = 64;
  ServerConfig config = normal_mode_config("stress");
  Server server(test_pipeline(), config);
  server.start();

  const auto capture = serve_test::make_capture(4, 1024);
  std::atomic<unsigned> decisions{0};
  std::vector<std::string> failures(kClients);
  {
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (unsigned i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        try {
          auto client = BlockingClient::connect_unix(config.socket_path);
          (void)client.hello();
          const DecisionFrame decision = client.score(capture);
          // kNormal mode accepts everything without scoring.
          if (decision.decision != static_cast<std::uint8_t>(core::Decision::kAccepted)) {
            throw std::runtime_error("unexpected decision");
          }
          ++decisions;
          // No unsolicited frames follow the decision.
          EXPECT_THROW((void)client.read_frame(50), ClientError);
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
  EXPECT_EQ(decisions.load(), kClients);
  server.stop();  // joins the loops, so the counters below are final
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.decisions, kClients);
  EXPECT_EQ(stats.connections_accepted, kClients);
  EXPECT_EQ(stats.busy_rejections, 0u);
}

TEST(ServeServer, BusyWhenPendingQueueFull) {
  ServerConfig config = normal_mode_config("busy");
  config.workers = 1;
  config.max_connections = 2;
  Server server(test_pipeline(), config);
  server.start();

  // A and B fill both connection slots.
  auto a = BlockingClient::connect_unix(config.socket_path);
  (void)a.hello();
  auto b = BlockingClient::connect_unix(config.socket_path);
  (void)b.hello();
  ASSERT_TRUE(eventually([&] { return server.stats().active_connections == 2; }));

  // C overflows: answered BUSY and closed without a session.
  auto c = BlockingClient::connect_unix(config.socket_path);
  const Frame reply = c.read_frame(5000);
  EXPECT_EQ(reply.type, FrameType::kBusy);
  EXPECT_TRUE(eventually([&] { return server.stats().busy_rejections == 1; }));

  // Overload was a fast reject for C only, not a dropped or wedged B; and
  // once A leaves, its slot serves a new connection again.
  const auto capture = serve_test::make_capture(4, 512);
  EXPECT_EQ(b.score(capture).decision,
            static_cast<std::uint8_t>(core::Decision::kAccepted));
  a.close();
  ASSERT_TRUE(eventually([&] { return server.stats().active_connections == 1; }));
  auto d = BlockingClient::connect_unix(config.socket_path);
  (void)d.hello();
  EXPECT_EQ(d.score(capture).decision,
            static_cast<std::uint8_t>(core::Decision::kAccepted));
  server.stop();
  EXPECT_EQ(server.stats().busy_rejections, 1u);
}

TEST(ServeServer, GracefulStopAnswersInFlightUtterance) {
  ServerConfig config = normal_mode_config("drain");
  Server server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.socket_path);
  (void)client.hello();
  const auto capture = serve_test::make_capture(4, 512);
  std::vector<float> interleaved(capture.frames() * 4);
  for (std::size_t f = 0; f < capture.frames(); ++f) {
    for (std::size_t c = 0; c < 4; ++c) {
      interleaved[f * 4 + c] = static_cast<float>(capture.channel(c)[f]);
    }
  }
  const auto chunk = encode_audio_chunk(interleaved, 4);
  client.send_bytes(chunk.data(), chunk.size());

  // Stop lands mid-utterance; the drain must still deliver this DECISION.
  server.request_stop();
  const auto end = encode_end_of_utterance(false);
  client.send_bytes(end.data(), end.size());
  const Frame reply = client.read_frame(10000);
  EXPECT_EQ(reply.type, FrameType::kDecision);
  const DecisionFrame decision = parse_decision(reply);
  EXPECT_EQ(decision.decision, static_cast<std::uint8_t>(core::Decision::kAccepted));

  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.stats().decisions, 1u);
  // The socket file is gone; new connections are refused, not queued.
  EXPECT_FALSE(std::filesystem::exists(config.socket_path));
  EXPECT_THROW((void)BlockingClient::connect_unix(config.socket_path), ClientError);
}

TEST(ServeServer, DeadlineExpiryReturnsErrorAndCloses) {
  ServerConfig config = normal_mode_config("deadline");
  config.request_deadline_ms = 100;
  Server server(test_pipeline(), config);
  server.start();

  auto client = BlockingClient::connect_unix(config.socket_path);
  (void)client.hello();
  // Send nothing further: the utterance deadline expires on the server.
  const Frame reply = client.read_frame(5000);
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(parse_error(reply).code, ErrorCode::kDeadlineExceeded);
  // The server closes after the error; the next read sees EOF.
  EXPECT_THROW((void)client.read_frame(5000), ClientError);
  EXPECT_TRUE(eventually([&] { return server.stats().deadline_expirations == 1; }));
  server.stop();
}

TEST(ServeServer, MalformedBytesGetErrorFrame) {
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

TEST(ServeServer, HeadTalkModeScoresConcurrently) {
  // Full-DSP scoring from several clients at once, spread over several
  // loops: exercises the shared const pipeline under real concurrency (the
  // TSan target for this file).
  constexpr unsigned kClients = 8;
  ServerConfig config;
  config.socket_path = test_socket_path("headtalk");
  config.workers = 4;
  config.request_deadline_ms = 120000;  // scoring on a loaded 1-CPU host
  Server server(test_pipeline(), config);
  server.start();

  const auto capture = serve_test::make_capture(4, 24000);
  std::vector<std::string> failures(kClients);
  {
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (unsigned i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        try {
          auto client = BlockingClient::connect_unix(config.socket_path);
          (void)client.hello();
          const DecisionFrame decision = client.score(capture);
          if (decision.decision > 3) throw std::runtime_error("bad decision code");
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

TEST(ServeServer, TcpLoopbackListenerServes) {
  ServerConfig config = normal_mode_config("tcp");
  config.tcp_port = 20000 + static_cast<int>(::getpid() % 20000);
  Server server(test_pipeline(), config);
  try {
    server.start();
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "port " << config.tcp_port << " unavailable";
  }

  auto client = BlockingClient::connect_tcp(config.tcp_port);
  (void)client.hello();
  const auto capture = serve_test::make_capture(4, 512);
  const DecisionFrame decision = client.score(capture);
  EXPECT_EQ(decision.decision, static_cast<std::uint8_t>(core::Decision::kAccepted));
  server.stop();
}

TEST(ServeServer, StopIsIdempotentAndRestartFails) {
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
