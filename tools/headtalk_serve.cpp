// headtalk_serve — the concurrent inference daemon.
//
//   headtalk_serve --models models --socket /tmp/headtalk.sock
//   headtalk_serve --models models --socket /tmp/headtalk.sock
//       --tcp-port 7071 --jobs 4 --deadline-ms 5000
//       --admin-socket /tmp/headtalk-admin.sock --admin-port 7072
//
// Loads the persisted orientation + liveness models once, then scores
// streamed multichannel captures for any number of concurrent clients over
// a Unix-domain socket (and, with --tcp-port, a 127.0.0.1 TCP listener).
// The serving core (serve/server.h) is an epoll reactor of --jobs loop
// threads; each loop multiplexes its share of the nonblocking connections
// and scores their utterances inline, so --jobs is the number of threads
// that score and the way one daemon uses more cores. Past
// --max-connections a new connection is answered with a BUSY frame;
// SIGINT/SIGTERM trigger a graceful drain — utterances the clients already
// sent still get their DECISIONs.
//
// With --admin-socket/--admin-port a second listener serves the live
// telemetry plane (serve/admin.h): GET /metrics (Prometheus text),
// /metrics.json (lossless snapshot), /healthz, /readyz (503 while
// draining), /stats.json (uptime, rss/fd/cpu, per-connection table, slow-
// utterance exemplars). The serving loops are never involved in a scrape.
//
// With --store DIR the daemon serves tenant-scoped: clients AUTH as an
// enrolled tenant and every decision passes through that tenant's policy
// (speaker match, quota). SIGHUP or POST /reload on the admin plane
// hot-reloads the store without dropping connections; GET /tenants.json
// lists the live tenants.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "cli/args.h"
#include "cli/names.h"
#include "core/pipeline.h"
#include "ml/serialize.h"
#include "obs/export.h"
#include "obs/log.h"
#include "room/mic_array.h"
#include "serve/admin.h"
#include "serve/server.h"
#include "tenant/service.h"

using namespace headtalk;

namespace {

serve::Server* g_server = nullptr;
std::atomic<bool> g_reload_requested{false};

extern "C" void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

extern "C" void handle_reload_signal(int) {
  // Async-signal-safe: just flag it; the reload thread does the disk I/O.
  g_reload_requested.store(true, std::memory_order_relaxed);
}

std::string reload_json(tenant::TenantService& service) {
  const std::size_t count = service.reload();
  std::ostringstream body;
  body << "{\"reloaded\":true,\"tenants\":" << count
       << ",\"generation\":" << service.generation() << "}\n";
  return body.str();
}

core::VaMode parse_mode(const std::string& text) {
  if (text == "normal") return core::VaMode::kNormal;
  if (text == "headtalk") return core::VaMode::kHeadTalk;
  throw cli::ArgsError("--mode: expected normal|headtalk, got '" + text + "'");
}

struct ServeOptions {
  std::filesystem::path models_dir;
  serve::ServerConfig config;
  std::string store_dir;
  std::size_t max_metric_tenants = 32;
  std::filesystem::path admin_socket;
  int admin_port = 0;
  std::string mode_name = "headtalk";
  room::DeviceId device = room::DeviceId::kD2;
};

ServeOptions parse_options(const cli::ArgParser& args) {
  ServeOptions opt;
  opt.models_dir = args.get("--models");
  opt.config.socket_path = args.get("--socket");
  opt.config.tcp_port = static_cast<int>(args.get_int("--tcp-port"));
  opt.config.workers = cli::jobs_from(args);
  opt.config.request_deadline_ms = static_cast<int>(args.get_int("--deadline-ms"));
  opt.mode_name = args.get("--mode");
  opt.config.session.mode = parse_mode(opt.mode_name);
  opt.config.max_connections =
      static_cast<std::size_t>(args.get_int("--max-connections"));
  opt.store_dir = args.get("--store");
  opt.max_metric_tenants =
      static_cast<std::size_t>(args.get_int("--max-metric-tenants"));
  opt.admin_socket = args.get("--admin-socket");
  opt.admin_port = static_cast<int>(args.get_int("--admin-port"));
  opt.device = cli::parse_device(args.get("--device"));

  if (opt.config.request_deadline_ms <= 0) {
    throw cli::ArgsError("--deadline-ms must be positive");
  }
  if (opt.config.max_connections < 1) {
    throw cli::ArgsError("--max-connections must be >= 1");
  }
  return opt;
}

/// Runs the daemon until SIGINT/SIGTERM and its drain. Returns the exit
/// code.
int run_server(const ServeOptions& options) {
  auto orientation = ml::load_model_file<core::OrientationClassifier>(
      options.models_dir / "orientation.htm");
  auto liveness = ml::load_model_file<core::LivenessDetector>(
      options.models_dir / "liveness.htm");

  core::PipelineConfig pipeline_config;
  const auto device = room::DeviceSpec::get(options.device);
  pipeline_config.orientation_features.max_mic_distance_m =
      device.max_pair_distance(device.default_channels);
  const core::HeadTalkPipeline pipeline(std::move(orientation), std::move(liveness),
                                        pipeline_config);

  serve::ServerConfig config = options.config;
  std::unique_ptr<tenant::TenantService> tenants;
  if (!options.store_dir.empty()) {
    tenant::TenantServiceConfig tenant_config;
    tenant_config.max_metric_tenants = options.max_metric_tenants;
    tenants = std::make_unique<tenant::TenantService>(options.store_dir, tenant_config);
    config.session.tenants = tenants.get();
    std::printf("headtalk_serve: tenant store %s — %zu tenants, generation %llu\n",
                options.store_dir.c_str(), tenants->tenant_count(),
                static_cast<unsigned long long>(tenants->generation()));
  }

  serve::Server server(pipeline, config);

  g_server = &server;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  if (tenants) std::signal(SIGHUP, handle_reload_signal);

  server.start();

  // SIGHUP watcher: the handler only flags, this thread does the store
  // re-read so no filesystem work happens in signal context.
  std::thread reload_thread;
  std::atomic<bool> reload_thread_stop{false};
  if (tenants) {
    reload_thread = std::thread([&tenants, &reload_thread_stop] {
      while (!reload_thread_stop.load(std::memory_order_acquire)) {
        if (g_reload_requested.exchange(false, std::memory_order_relaxed)) {
          try {
            const std::size_t count = tenants->reload();
            obs::log_info("serve.sighup_reload", {{"tenants", count}});
          } catch (const std::exception& error) {
            obs::log_warn("serve.sighup_reload_failed", {{"error", error.what()}});
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      }
    });
  }

  serve::AdminConfig admin_config;
  admin_config.socket_path = options.admin_socket;
  admin_config.tcp_port = options.admin_port;
  std::unique_ptr<serve::AdminServer> admin;
  if (!admin_config.socket_path.empty() || admin_config.tcp_port > 0) {
    serve::AdminHooks hooks;
    hooks.ready = [&server] { return server.running() && !server.draining(); };
    hooks.connections = [&server] { return server.connections(); };
    hooks.extra_stats = [&server, mode = options.mode_name] {
      const serve::ServerStats stats = server.stats();
      std::ostringstream extra;
      extra << "\"mode\":\"" << mode << "\",\"decisions\":" << stats.decisions
            << ",\"busy_rejections\":" << stats.busy_rejections
            << ",\"connections_accepted\":" << stats.connections_accepted;
      return extra.str();
    };
    if (tenants) {
      tenant::TenantService* service = tenants.get();
      hooks.tenants = [service] { return service->tenants_json(); };
      hooks.reload = [service] { return reload_json(*service); };
    }
    admin = std::make_unique<serve::AdminServer>(admin_config, std::move(hooks));
    admin->start();
    std::printf("headtalk_serve: admin plane on %s%s\n",
                admin_config.socket_path.string().c_str(),
                admin_config.tcp_port > 0
                    ? (" and 127.0.0.1:" + std::to_string(admin_config.tcp_port))
                          .c_str()
                    : "");
  }

  std::printf("headtalk_serve: listening on %s%s — SIGINT/SIGTERM to stop\n",
              config.socket_path.string().c_str(),
              config.tcp_port > 0
                  ? (" and 127.0.0.1:" + std::to_string(config.tcp_port)).c_str()
                  : "");
  std::fflush(stdout);
  server.wait();
  if (reload_thread.joinable()) {
    reload_thread_stop.store(true, std::memory_order_release);
    reload_thread.join();
  }
  // Keep answering scrapes (reporting 503 /readyz) until the drain
  // summary below is assembled, then shut the admin plane down.
  if (admin) admin->stop();

  const serve::ServerStats stats = server.stats();
  g_server = nullptr;
  std::printf(
      "headtalk_serve: drained — %llu connections, %llu decisions, "
      "%llu busy rejections, %llu session errors, %llu deadline expirations\n",
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.decisions),
      static_cast<unsigned long long>(stats.busy_rejections),
      static_cast<unsigned long long>(stats.session_errors),
      static_cast<unsigned long long>(stats.deadline_expirations));
  // Final metrics snapshot through the exporter: the text form here for
  // the operator's terminal, and — via ObsSession at scope exit — the
  // same snapshot as lossless JSON when --metrics-out was given.
  std::puts("headtalk_serve: final metrics snapshot");
  std::fputs(obs::to_prometheus(obs::snapshot()).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args("headtalk_serve", "serve trained HeadTalk models over a socket");
  args.add_flag("--models", "directory containing orientation.htm / liveness.htm");
  args.add_flag("--socket", "Unix-domain socket path to listen on");
  args.add_flag("--tcp-port", "also listen on 127.0.0.1:<port> (0 = off)", "0");
  args.add_flag("--deadline-ms", "per-utterance deadline in milliseconds", "10000");
  args.add_flag("--mode", "scoring mode: normal|headtalk", "headtalk");
  args.add_flag("--device", "device the captures come from (aperture): D1|D2|D3", "D2");
  args.add_flag("--max-connections", "concurrent connections before BUSY", "4096");
  args.add_flag("--admin-socket",
                "Unix-domain socket for the admin/metrics plane (off if empty)", "");
  args.add_flag("--admin-port",
                "admin/metrics plane on 127.0.0.1:<port> (0 = off)", "0");
  args.add_flag("--store",
                "tenant model store directory (enables AUTH-scoped serving; "
                "SIGHUP or POST /reload hot-reloads it)",
                "");
  args.add_flag("--max-metric-tenants",
                "per-tenant metric series kept in the registry (rest aggregate "
                "into tenant._overflow)",
                "32");
  cli::add_jobs_flag(args);
  cli::add_obs_flags(args);

  try {
    args.parse(argc, argv);
    if (args.help_requested()) {
      std::fputs(args.usage().c_str(), stdout);
      return 0;
    }
    const ServeOptions options = parse_options(args);
    cli::ObsSession obs_session(args);
    return run_server(options);
  } catch (const std::exception& error) {
    g_server = nullptr;
    std::fprintf(stderr, "error: %s\n\n%s", error.what(), args.usage().c_str());
    return 1;
  }
}
