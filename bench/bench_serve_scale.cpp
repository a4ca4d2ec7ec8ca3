// Serving scale: the server under 1000+ multiplexed
// connections, plus SO_REUSEPORT shard scaling.
//
// Three phases:
//
//   1. one shard process on a SO_REUSEPORT TCP port, closed-loop load
//      -> rps_1shard;
//   2. two shard processes on the same port, the same load ->
//      rps_2shard and shard_speedup, plus a merged-vs-sum check of the
//      per-shard /metrics.json snapshots through obs::merge (the exact
//      path `headtalk_client --admin-merge` exercises);
//   3. the headline scale run: an in-process serve::Server on a Unix
//      socket driven by the multiplexed LoadDriver holding
//      $HEADTALK_SCALE_BENCH_CLIENTS (default 1000) concurrent
//      connections, firing utterances open-loop at a fixed global
//      arrival rate (latency measured from the *scheduled* arrival —
//      no coordinated omission).
//
// The perf record gains concurrent_connections, rps/offered_rps,
// p50/p95/p99, rps_1shard/rps_2shard/shard_speedup and
// merge_connections_delta. Gates: every fired utterance gets exactly one
// DECISION (no violations, errors, or abandoned requests), the scale
// phase really held the requested connection count, merged metrics equal
// the per-shard sum, and — only on hosts with >= 2 CPUs, where the
// kernel can actually run the shards in parallel — 2 shards reach >=
// 1.7x the single-shard RPS.
//
// Shard processes fork BEFORE the parent spawns any threads (the obs
// registry and scoring pipeline are process-global; fork-then-build is
// the only safe order); each child builds its own pipeline, server and
// admin plane, and exits on SIGTERM via the server's graceful drain.
//
// $HEADTALK_SCALE_BENCH_JOBS (default 2) sets each server's loop threads,
// which are also the threads that score.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <random>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/pipeline.h"
#include "obs/export.h"
#include "serve/admin.h"
#include "serve/load_driver.h"
#include "serve/server.h"

using namespace headtalk;

namespace {

unsigned env_or(const char* name, unsigned fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  const long value = std::strtol(env, nullptr, 10);
  return value > 0 ? static_cast<unsigned>(value) : fallback;
}

// Same synthetic-training shortcut as bench_serve_throughput: serving cost
// depends on feature dimension and model size, not on how the models were
// fit.
core::OrientationClassifier make_orientation() {
  core::OrientationFeatureExtractor extractor;
  const auto dim = extractor.dimension(4);
  std::mt19937 rng(1);
  std::normal_distribution<double> g(0.0, 1.0);
  ml::Dataset data;
  for (int i = 0; i < 80; ++i) {
    ml::FeatureVector a(dim), b(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      a[j] = g(rng) + 1.0;
      b[j] = g(rng) - 1.0;
    }
    data.add(std::move(a), core::kLabelFacing);
    data.add(std::move(b), core::kLabelNonFacing);
  }
  core::OrientationClassifier clf;
  clf.train(data);
  return clf;
}

core::LivenessDetector make_liveness() {
  core::LivenessFeatureExtractor extractor;
  const auto dim = extractor.dimension();
  std::mt19937 rng(2);
  std::normal_distribution<double> g(0.0, 1.0);
  ml::Dataset data;
  for (int i = 0; i < 80; ++i) {
    ml::FeatureVector a(dim), b(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      a[j] = g(rng) + 1.0;
      b[j] = g(rng) - 1.0;
    }
    data.add(std::move(a), core::kLabelLive);
    data.add(std::move(b), core::kLabelReplay);
  }
  core::LivenessDetector det;
  det.train(data);
  return det;
}

struct Knobs {
  unsigned clients, rps, utterances, jobs;
  unsigned shard_clients, shard_utterances, frames;
};

serve::Server* g_child_server = nullptr;
void child_term(int) {
  if (g_child_server != nullptr) g_child_server->request_stop();
}

/// Shard child body: builds its own pipeline + server on the
/// shared SO_REUSEPORT port plus a private admin plane, serves until
/// SIGTERM, drains, exits. Never returns to the bench main.
[[noreturn]] void run_shard_child(int tcp_port,
                                  const std::filesystem::path& admin_socket,
                                  const Knobs& knobs) {
  const core::HeadTalkPipeline pipeline(make_orientation(), make_liveness());
  serve::ServerConfig config;
  config.tcp_port = tcp_port;  // TCP only; fd passing is not under test
  config.request_deadline_ms = 120000;
  config.reuseport = true;
  config.workers = knobs.jobs;
  serve::Server server(pipeline, config);
  server.start();
  g_child_server = &server;
  std::signal(SIGTERM, child_term);

  serve::AdminConfig admin_config;
  admin_config.socket_path = admin_socket;
  serve::AdminServer admin(admin_config);
  admin.start();

  server.wait();
  server.stop();
  admin.stop();
  std::_Exit(0);
}

struct Fleet {
  std::vector<pid_t> pids;
  std::vector<std::filesystem::path> admin_sockets;
};

Fleet spawn_shards(unsigned count, int tcp_port, const Knobs& knobs) {
  Fleet fleet;
  for (unsigned k = 0; k < count; ++k) {
    auto admin_socket =
        std::filesystem::temp_directory_path() /
        ("headtalk_scale_admin_" + std::to_string(::getpid()) + "_" +
         std::to_string(tcp_port) + "_" + std::to_string(k) + ".sock");
    const pid_t pid = ::fork();
    if (pid == 0) run_shard_child(tcp_port, admin_socket, knobs);
    if (pid < 0) {
      std::perror("fork");
      std::exit(1);
    }
    fleet.pids.push_back(pid);
    fleet.admin_sockets.push_back(std::move(admin_socket));
  }
  return fleet;
}

/// admin_get_unix throws while the shard's admin socket does not exist
/// yet; treat any failure as "not up yet / scrape failed".
serve::AdminFetch try_admin_get(const std::filesystem::path& socket,
                                std::string_view target) {
  try {
    return serve::admin_get_unix(socket, target, 2000);
  } catch (const std::exception&) {
    return {};
  }
}

bool wait_shards_ready(const Fleet& fleet) {
  for (const auto& socket : fleet.admin_sockets) {
    bool up = false;
    for (int spin = 0; spin < 600 && !up; ++spin) {
      up = try_admin_get(socket, "/healthz").status == 200;
      if (!up) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (!up) {
      std::fprintf(stderr, "shard admin %s never became healthy\n",
                   socket.c_str());
      return false;
    }
  }
  return true;
}

/// SIGTERMs every shard and reaps it; true when all exited cleanly.
bool stop_shards(const Fleet& fleet) {
  for (const pid_t pid : fleet.pids) ::kill(pid, SIGTERM);
  bool ok = true;
  for (const pid_t pid : fleet.pids) {
    int status = 0;
    pid_t waited;
    do {
      waited = ::waitpid(pid, &status, 0);
    } while (waited < 0 && errno == EINTR);
    const bool clean = waited == pid && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!clean) {
      std::fprintf(stderr, "shard pid %d exited unclean (status 0x%x)\n",
                   static_cast<int>(pid), status);
      ok = false;
    }
  }
  for (const auto& socket : fleet.admin_sockets) {
    std::error_code ec;
    std::filesystem::remove(socket, ec);
  }
  return ok;
}

serve::LoadDriverConfig shard_load(int tcp_port, const Knobs& knobs) {
  serve::LoadDriverConfig load;
  load.tcp_port = tcp_port;
  load.connections = knobs.shard_clients;
  load.utterances = knobs.shard_utterances;
  load.utterance_frames = knobs.frames;
  load.ramp_ms = 100;
  load.drain_grace_seconds = 60.0;
  return load;
}

bool report_clean(const serve::LoadReport& report, std::uint64_t expected,
                  const char* phase) {
  const bool ok = report.decisions == expected && report.errors == 0 &&
                  report.protocol_violations == 0 && report.abandoned == 0;
  if (!ok) {
    std::fprintf(stderr,
                 "%s: decisions %llu/%llu errors %llu violations %llu abandoned %llu\n",
                 phase, static_cast<unsigned long long>(report.decisions),
                 static_cast<unsigned long long>(expected),
                 static_cast<unsigned long long>(report.errors),
                 static_cast<unsigned long long>(report.protocol_violations),
                 static_cast<unsigned long long>(report.abandoned));
  }
  return ok;
}

double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank =
      static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

}  // namespace

int main() {
  bench::print_title("serve_scale",
                     "serve::Server: 1000-connection load and shard speedup");

  Knobs knobs;
  knobs.clients = env_or("HEADTALK_SCALE_BENCH_CLIENTS", 1000);
  knobs.rps = env_or("HEADTALK_SCALE_BENCH_RPS", 120);
  knobs.utterances = env_or("HEADTALK_SCALE_BENCH_UTTERANCES", 1200);
  knobs.jobs = env_or("HEADTALK_SCALE_BENCH_JOBS", 2);
  knobs.shard_clients = env_or("HEADTALK_SCALE_BENCH_SHARD_CLIENTS", 64);
  knobs.shard_utterances = env_or("HEADTALK_SCALE_BENCH_SHARD_UTTERANCES", 384);
  knobs.frames = env_or("HEADTALK_SCALE_BENCH_FRAMES", 4800);

  // Distinct ports per phase so a lingering TIME_WAIT listener from phase
  // 1 cannot steal phase-2 accepts through SO_REUSEPORT.
  const int port_base = 7600 + static_cast<int>(::getpid() % 997);
  bool ok = true;

  // ---- Phase 1: one shard on a reuseport TCP port, closed-loop load.
  // Forks happen while this process is still single-threaded; the
  // LoadDriver multiplexes every client connection on the main thread.
  double rps_1shard = 0.0;
  {
    const Fleet fleet = spawn_shards(1, port_base, knobs);
    if (!wait_shards_ready(fleet)) return 1;
    const serve::LoadReport report = serve::run_load(shard_load(port_base, knobs));
    ok = report_clean(report, knobs.shard_utterances, "1-shard") && ok;
    rps_1shard = report.achieved_rps;
    ok = stop_shards(fleet) && ok;
    bench::PerfRecorder::instance().add_samples(report.decisions);
    std::printf("1 shard : %u conns closed-loop, %llu decisions, %.1f rps\n",
                knobs.shard_clients,
                static_cast<unsigned long long>(report.decisions), rps_1shard);
  }

  // ---- Phase 2: two shards sharing the port; the kernel spreads accepts.
  double rps_2shard = 0.0;
  double merge_delta = 0.0;
  {
    const Fleet fleet = spawn_shards(2, port_base + 1, knobs);
    if (!wait_shards_ready(fleet)) return 1;
    const serve::LoadReport report =
        serve::run_load(shard_load(port_base + 1, knobs));
    ok = report_clean(report, knobs.shard_utterances, "2-shard") && ok;
    rps_2shard = report.achieved_rps;

    // Merged-vs-sum: fold the per-shard /metrics.json snapshots with
    // obs::merge (the --admin-merge path) and require the merged
    // connection counter to equal the arithmetic per-shard sum.
    std::vector<obs::MetricsSnapshot> snapshots;
    std::uint64_t summed = 0;
    for (const auto& socket : fleet.admin_sockets) {
      const serve::AdminFetch fetch = try_admin_get(socket, "/metrics.json");
      if (fetch.status != 200) {
        std::fprintf(stderr, "metrics.json scrape failed (%d)\n", fetch.status);
        ok = false;
        continue;
      }
      snapshots.push_back(obs::parse_snapshot_json(fetch.body));
      const auto it = snapshots.back().counters.find("serve.connections");
      summed += it == snapshots.back().counters.end() ? 0 : it->second;
    }
    const obs::MetricsSnapshot merged = obs::merge(snapshots);
    const auto it = merged.counters.find("serve.connections");
    const std::uint64_t merged_connections =
        it == merged.counters.end() ? 0 : it->second;
    merge_delta = static_cast<double>(merged_connections) -
                  static_cast<double>(summed);
    if (merge_delta != 0.0 || summed == 0) {
      std::fprintf(stderr, "merge mismatch: merged %llu, per-shard sum %llu\n",
                   static_cast<unsigned long long>(merged_connections),
                   static_cast<unsigned long long>(summed));
      ok = false;
    }

    ok = stop_shards(fleet) && ok;
    bench::PerfRecorder::instance().add_samples(report.decisions);
    std::printf("2 shards: %u conns closed-loop, %llu decisions, %.1f rps  (merged ok: %s)\n",
                knobs.shard_clients,
                static_cast<unsigned long long>(report.decisions), rps_2shard,
                merge_delta == 0.0 ? "yes" : "NO");
  }

  const double speedup = rps_1shard > 0.0 ? rps_2shard / rps_1shard : 0.0;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf("shard speedup: %.2fx on %u core(s)%s\n", speedup, cores,
              cores >= 2 ? "" : "  [>=1.7x gate skipped: single core]");
  if (cores >= 2 && speedup < 1.7) {
    std::fprintf(stderr, "2-shard speedup %.2fx below the 1.7x gate\n", speedup);
    ok = false;
  }

  // ---- Phase 3: the headline scale run. One in-process server,
  // `clients` concurrent multiplexed connections, open-loop
  // arrivals at a fixed global rate.
  const core::HeadTalkPipeline pipeline(make_orientation(), make_liveness());
  serve::ServerConfig config;
  config.socket_path =
      std::filesystem::temp_directory_path() /
      ("headtalk_bench_scale_" + std::to_string(::getpid()) + ".sock");
  config.request_deadline_ms = 120000;
  config.workers = knobs.jobs;
  config.max_connections = knobs.clients + 64;
  serve::Server server(pipeline, config);
  server.start();

  serve::LoadDriverConfig load;
  load.socket_path = config.socket_path;
  load.connections = knobs.clients;
  load.arrival_rps = static_cast<double>(knobs.rps);
  load.utterances = knobs.utterances;
  load.utterance_frames = knobs.frames;
  // Ramp well inside the firing window so every connection is open at
  // once (the concurrent_connections gate) before arrivals stop.
  load.ramp_ms = 1000;
  load.drain_grace_seconds = 60.0;
  const serve::LoadReport report = serve::run_load(load);
  server.stop();

  ok = report_clean(report, knobs.utterances, "scale") && ok;
  if (report.peak_open_connections < knobs.clients) {
    std::fprintf(stderr, "peak %zu connections never reached the requested %u\n",
                 report.peak_open_connections, knobs.clients);
    ok = false;
  }

  std::vector<double> latencies = report.latencies_seconds;
  std::sort(latencies.begin(), latencies.end());
  const double p50 = sorted_quantile(latencies, 0.50);
  const double p95 = sorted_quantile(latencies, 0.95);
  const double p99 = sorted_quantile(latencies, 0.99);

  std::printf("scale   : %zu concurrent conns, %llu decisions open-loop @ %.0f rps offered\n",
              report.peak_open_connections,
              static_cast<unsigned long long>(report.decisions),
              report.offered_rps);
  std::printf("          achieved %.1f rps  p50 %.1f ms  p95 %.1f ms  p99 %.1f ms\n",
              report.achieved_rps, 1000.0 * p50, 1000.0 * p95, 1000.0 * p99);
  bench::print_note(
      "open-loop latency is measured from the scheduled arrival instant, so\n"
      "a server that falls behind shows honest queueing delay (no\n"
      "coordinated omission).");

  bench::PerfRecorder::instance().add_samples(report.decisions);
  auto& rec = bench::PerfRecorder::instance();
  rec.set_metric("concurrent_connections",
                 static_cast<double>(report.peak_open_connections));
  rec.set_metric("rps", report.achieved_rps);
  rec.set_metric("offered_rps", report.offered_rps);
  rec.set_metric("p50_seconds", p50);
  rec.set_metric("p95_seconds", p95);
  rec.set_metric("p99_seconds", p99);
  rec.set_metric("rps_1shard", rps_1shard);
  rec.set_metric("rps_2shard", rps_2shard);
  rec.set_metric("shard_speedup", speedup);
  rec.set_metric("merge_connections_delta", merge_delta);
  return ok ? 0 : 1;
}
