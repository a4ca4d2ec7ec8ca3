// Admin/telemetry plane (serve/admin.h): routing, the live HTTP loop over
// Unix and TCP listeners, /proc self-stats, the /readyz drain flip against
// a real serve::Server, and the deadline counter the server exports.
#include "serve/admin.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve_test_util.h"
#include "util/json.h"

namespace headtalk::serve {
namespace {

std::filesystem::path temp_socket(const char* tag) {
  return std::filesystem::temp_directory_path() /
         ("headtalk_admin_test_" + std::string(tag) + "_" +
          std::to_string(::getpid()) + ".sock");
}

TEST(AdminSelfStatsTest, ReadsPlausibleValuesFromProc) {
  const SelfStats stats = read_self_stats();
  EXPECT_GT(stats.rss_bytes, 0);
  EXPECT_GT(stats.open_fds, 0);
  EXPECT_GE(stats.cpu_seconds, 0.0);
}

TEST(AdminRoutingTest, HealthzIsAlwaysOk) {
  AdminServer admin(AdminConfig{temp_socket("routing"), 0, 2000});
  const AdminResponse response = admin.handle("/healthz");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok\n");
}

TEST(AdminRoutingTest, ReadyzFollowsTheHook) {
  bool ready = true;
  AdminHooks hooks;
  hooks.ready = [&ready] { return ready; };
  AdminServer admin(AdminConfig{temp_socket("ready"), 0, 2000}, std::move(hooks));
  EXPECT_EQ(admin.handle("/readyz").status, 200);
  EXPECT_EQ(admin.handle("/readyz").body, "ready\n");
  ready = false;
  EXPECT_EQ(admin.handle("/readyz").status, 503);
  EXPECT_EQ(admin.handle("/readyz").body, "not ready\n");
}

TEST(AdminRoutingTest, ReadyzWithoutHookIsReady) {
  AdminServer admin(AdminConfig{temp_socket("noready"), 0, 2000});
  EXPECT_EQ(admin.handle("/readyz").status, 200);
}

TEST(AdminRoutingTest, MetricsExposesTheGlobalRegistry) {
  obs::Registry::global().counter("admin_test.probe").add(3);
  AdminServer admin(AdminConfig{temp_socket("metrics"), 0, 2000});
  const AdminResponse text = admin.handle("/metrics");
  EXPECT_EQ(text.status, 200);
  EXPECT_NE(text.content_type.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(text.body.find("# TYPE admin_test_probe counter\n"), std::string::npos);
  EXPECT_NE(text.body.find("admin_test_probe 3\n"), std::string::npos);

  const AdminResponse json = admin.handle("/metrics.json");
  EXPECT_EQ(json.status, 200);
  const obs::MetricsSnapshot snapshot = obs::parse_snapshot_json(json.body);
  EXPECT_GE(snapshot.counters.at("admin_test.probe"), 3u);
}

TEST(AdminRoutingTest, QueryStringsAreStripped) {
  AdminServer admin(AdminConfig{temp_socket("query"), 0, 2000});
  EXPECT_EQ(admin.handle("/healthz?verbose=1").status, 200);
  EXPECT_EQ(admin.handle("/metrics?format=prometheus").status, 200);
}

TEST(AdminRoutingTest, UnknownTargetIs404) {
  AdminServer admin(AdminConfig{temp_socket("missing"), 0, 2000});
  EXPECT_EQ(admin.handle("/nope").status, 404);
  EXPECT_EQ(admin.handle("/").status, 404);
}

TEST(AdminRoutingTest, StatsJsonCarriesHookData) {
  AdminHooks hooks;
  hooks.connections = [] {
    std::vector<ConnectionInfo> rows(2);
    rows[0] = {1, false, 4, 1.5, 0.25};
    rows[1] = {2, true, 9, 0.5, 0.0};
    return rows;
  };
  hooks.extra_stats = [] { return std::string("\"mode\":\"headtalk\""); };
  AdminServer admin(AdminConfig{temp_socket("stats"), 0, 2000}, std::move(hooks));
  const AdminResponse response = admin.handle("/stats.json");
  EXPECT_EQ(response.status, 200);
  const util::JsonValue stats = util::JsonValue::parse(response.body);
  ASSERT_TRUE(stats.is_object());
  EXPECT_GT(stats.find("pid")->as_number(), 0.0);
  EXPECT_GE(stats.find("uptime_seconds")->as_number(), 0.0);
  EXPECT_EQ(stats.find("mode")->as_string(), "headtalk");
  const auto& connections = stats.find("connections")->as_array();
  ASSERT_EQ(connections.size(), 2u);
  EXPECT_EQ(connections[0].find("state")->as_string(), "unary");
  EXPECT_DOUBLE_EQ(connections[0].find("decisions")->as_number(), 4.0);
  EXPECT_EQ(connections[1].find("state")->as_string(), "streaming");
  ASSERT_NE(stats.find("slow_utterances"), nullptr);
  EXPECT_TRUE(stats.find("slow_utterances")->is_array());
}

TEST(AdminServerTest, StartRequiresAListener) {
  AdminServer admin(AdminConfig{});
  EXPECT_THROW(admin.start(), std::runtime_error);
}

TEST(AdminServerTest, ServesHttpOverUnixSocket) {
  const auto socket_path = temp_socket("http");
  AdminServer admin(AdminConfig{socket_path, 0, 2000});
  admin.start();

  const AdminFetch health = admin_get_unix(socket_path, "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  const AdminFetch metrics = admin_get_unix(socket_path, "/metrics.json");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NO_THROW((void)obs::parse_snapshot_json(metrics.body));

  const AdminFetch missing = admin_get_unix(socket_path, "/definitely-not-a-route");
  EXPECT_EQ(missing.status, 404);

  EXPECT_GE(admin.requests_served(), 3u);
  admin.stop();
  // Stop removes the socket file and further fetches fail.
  EXPECT_FALSE(std::filesystem::exists(socket_path));
  EXPECT_THROW((void)admin_get_unix(socket_path, "/healthz", 500),
               std::runtime_error);
}

TEST(AdminServerTest, ServesHttpOverLoopbackTcp) {
  // No ephemeral-port bind API here; derive a port from the pid and skip
  // if something else owns it.
  const int port = 20000 + static_cast<int>(::getpid() % 20000);
  AdminServer admin(AdminConfig{{}, port, 2000});
  try {
    admin.start();
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "port " << port << " unavailable";
  }
  const AdminFetch health = admin_get_tcp(port, "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");
  admin.stop();
}

TEST(AdminServerTest, ReadyzFlipsWhenTheServerDrains) {
  // The smoke script cannot reliably catch the drain window from outside;
  // this pins the contract: /readyz goes 503 the moment a drain starts,
  // while /healthz stays 200.
  const core::HeadTalkPipeline pipeline = serve_test::make_test_pipeline();
  ServerConfig config;
  config.socket_path = temp_socket("scoring");
  config.workers = 1;
  Server server(pipeline, config);
  server.start();

  const auto admin_path = temp_socket("drain");
  AdminHooks hooks;
  hooks.ready = [&server] { return server.running() && !server.draining(); };
  hooks.connections = [&server] { return server.connections(); };
  AdminServer admin(AdminConfig{admin_path, 0, 2000}, std::move(hooks));
  admin.start();

  EXPECT_EQ(admin_get_unix(admin_path, "/readyz").status, 200);
  server.request_stop();
  EXPECT_TRUE(server.draining());
  EXPECT_EQ(admin_get_unix(admin_path, "/readyz").status, 503);
  EXPECT_EQ(admin_get_unix(admin_path, "/healthz").status, 200);

  const AdminFetch stats = admin_get_unix(admin_path, "/stats.json");
  EXPECT_EQ(stats.status, 200);
  EXPECT_NO_THROW((void)util::JsonValue::parse(stats.body));

  server.stop();
  admin.stop();
}

/// serve.deadline_expired as /metrics.json reports it (0 before the first
/// expiry registers the counter).
std::uint64_t exported_deadline_expirations(AdminServer& admin) {
  const AdminResponse json = admin.handle("/metrics.json");
  EXPECT_EQ(json.status, 200);
  const obs::MetricsSnapshot snapshot = obs::parse_snapshot_json(json.body);
  const auto it = snapshot.counters.find("serve.deadline_expired");
  return it == snapshot.counters.end() ? 0 : it->second;
}

/// Opens one connection to `server`, says HELLO, then stays silent until
/// the server's deadline answers it.
void wait_out_one_deadline(Server& server, const std::filesystem::path& socket) {
  server.start();
  auto client = BlockingClient::connect_unix(socket);
  (void)client.hello();
  const Frame reply = client.read_frame(5000);
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(parse_error(reply).code, ErrorCode::kDeadlineExceeded);
  server.stop();
  EXPECT_EQ(server.stats().deadline_expirations, 1u);
}

TEST(AdminServerTest, MetricsJsonCountsDeadlineExpirationsOfBothEngines) {
  // Operators read deadline expiries from the metrics plane, not from
  // client ERROR frames: the server bumps serve.deadline_expired where it
  // counts ServerStats::deadline_expirations, with one loop and with
  // several.
  const core::HeadTalkPipeline pipeline = serve_test::make_test_pipeline();
  AdminServer admin(AdminConfig{temp_socket("deadline_admin"), 0, 2000});
  const std::uint64_t before = exported_deadline_expirations(admin);

  std::uint64_t expected = before;
  for (const unsigned loops : {1u, 4u}) {
    SCOPED_TRACE("loops " + std::to_string(loops));
    ServerConfig config;
    config.socket_path = temp_socket("deadline_server");
    config.workers = loops;
    config.request_deadline_ms = 100;
    Server server(pipeline, config);
    wait_out_one_deadline(server, config.socket_path);
    EXPECT_EQ(exported_deadline_expirations(admin), ++expected);
  }
}

}  // namespace
}  // namespace headtalk::serve
