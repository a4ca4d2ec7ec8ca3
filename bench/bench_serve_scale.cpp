// Serving scale: the server under 1000+ multiplexed connections, and how
// its loops scale across cores at steady state.
//
// Two phases:
//
//   1. scaling: two in-process serve::Server instances, one with 2 loops
//      and one with 4, under the same closed-loop load (16 multiplexed
//      connections, each firing its next utterance the moment the previous
//      DECISION lands). Each side first runs a warm-up cut of half a
//      window, then kScalingWindows fixed-duration windows; the windows
//      alternate 2, 4, 2, 4, ... so drift on the host hits both sides
//      alike. A side's rps is the median over its windows and its spread
//      is the interquartile range over the median; loop_speedup is the
//      ratio of the medians. The 4-loop side needs every core of a 4-core
//      host, so CPU taken by anything else on the host lowers it more than
//      the 2-loop side; with 9 windows a side, a burst that hits a few of
//      them does not move the medians.
//   2. the headline scale run: an in-process serve::Server on a Unix
//      socket driven by the multiplexed LoadDriver holding
//      $HEADTALK_SCALE_BENCH_CLIENTS (default 1000) concurrent
//      connections, firing utterances open-loop at a fixed global
//      arrival rate (latency measured from the *scheduled* arrival —
//      no coordinated omission).
//
// The perf record gains concurrent_connections, rps/offered_rps,
// p50/p95/p99, rps_2loop/rps_4loop (medians), rps_2loop_spread/
// rps_4loop_spread and loop_speedup. Gates: every fired utterance gets
// exactly one DECISION (no violations, errors, or abandoned requests), the
// scale phase really held the requested connection count, and — only on
// hosts with >= 4 hardware threads, the loops the 4-loop side runs in
// parallel — 4 loops reach >= 1.7x the 2-loop median rps.
//
// $HEADTALK_SCALE_BENCH_WINDOW_MS (default 2000) sets the length of each
// scaling window. $HEADTALK_SCALE_BENCH_JOBS (default 2) sets the scale
// phase's loop threads, which are also the threads that score.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/pipeline.h"
#include "serve/load_driver.h"
#include "serve/server.h"

using namespace headtalk;

namespace {

struct Knobs {
  unsigned clients, rps, utterances, jobs, frames, window_ms;
};

// The scaling phase: loop counts compared, connections, windows per side.
constexpr std::array<unsigned, 2> kScalingLoops = {2, 4};
constexpr std::size_t kScalingClients = 16;
constexpr std::size_t kScalingWindows = 9;
constexpr double kScalingGate = 1.7;

std::filesystem::path socket_path(const std::string& tag) {
  return std::filesystem::temp_directory_path() /
         ("headtalk_bench_scale_" + std::to_string(::getpid()) + "_" + tag + ".sock");
}

/// True when the load lost nothing: no ERROR, protocol violation or
/// abandoned utterance, and `expected` DECISIONs (any nonzero count when
/// `expected` is 0, for a duration-bounded load).
bool report_clean(const serve::LoadReport& report, std::uint64_t expected,
                  const char* phase) {
  const bool counted =
      expected > 0 ? report.decisions == expected : report.decisions > 0;
  const bool ok = counted && report.errors == 0 &&
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

struct SideRps {
  double median = 0.0;
  double spread = 0.0;  ///< (q3 - q1) / median
};

SideRps summarize(std::vector<double> rps) {
  SideRps out;
  if (rps.empty()) return out;
  std::sort(rps.begin(), rps.end());
  const std::size_t n = rps.size();
  out.median = rps[n / 2];
  out.spread = out.median > 0.0 ? (rps[3 * n / 4] - rps[n / 4]) / out.median : 0.0;
  return out;
}

/// Phase 1: 2 vs 4 loops under the same closed-loop load, at steady state.
/// Fills `sides` with each loop count's median rps and spread; false when
/// a window lost a DECISION.
bool run_scaling(const core::HeadTalkPipeline& pipeline, const Knobs& knobs,
                 std::array<SideRps, kScalingLoops.size()>& sides) {
  std::vector<std::unique_ptr<serve::Server>> servers;
  std::vector<serve::LoadDriverConfig> loads;
  for (const unsigned loops : kScalingLoops) {
    serve::ServerConfig config;
    config.socket_path = socket_path("loops" + std::to_string(loops));
    config.request_deadline_ms = 120000;
    config.workers = loops;
    servers.push_back(std::make_unique<serve::Server>(pipeline, config));
    servers.back()->start();

    serve::LoadDriverConfig load;
    load.socket_path = config.socket_path;
    load.connections = kScalingClients;
    load.utterance_frames = knobs.frames;
    load.drain_grace_seconds = 60.0;
    loads.push_back(load);
  }

  bool ok = true;
  const double window_seconds = knobs.window_ms / 1000.0;
  // Warm-up cut: scoring workspaces, FFT plans and page faults settle
  // before anything is recorded.
  for (auto& load : loads) {
    load.duration_seconds = 0.5 * window_seconds;
    const serve::LoadReport report = serve::run_load(load);
    ok = report_clean(report, 0, "scaling warm-up") && ok;
  }

  std::array<std::vector<double>, kScalingLoops.size()> window_rps;
  for (std::size_t w = 0; w < kScalingWindows; ++w) {
    for (std::size_t side = 0; side < kScalingLoops.size(); ++side) {
      loads[side].duration_seconds = window_seconds;
      const serve::LoadReport report = serve::run_load(loads[side]);
      ok = report_clean(report, 0, "scaling") && ok;
      window_rps[side].push_back(report.achieved_rps);
      bench::PerfRecorder::instance().add_samples(report.decisions);
    }
  }
  for (auto& server : servers) server->stop();

  for (std::size_t side = 0; side < kScalingLoops.size(); ++side) {
    sides[side] = summarize(window_rps[side]);
    std::printf("%u loops : %zu conns closed-loop, %zu x %.1f s windows, median %.1f rps "
                "(spread %.1f%%):",
                kScalingLoops[side], kScalingClients, kScalingWindows, window_seconds,
                sides[side].median, 100.0 * sides[side].spread);
    for (const double rps : window_rps[side]) std::printf(" %.0f", rps);
    std::printf("\n");
  }
  return ok;
}

}  // namespace

int main() {
  bench::print_title("serve_scale",
                     "serve::Server: 1000-connection load and 2 -> 4 loop scaling");

  Knobs knobs;
  knobs.clients = bench::env_or("HEADTALK_SCALE_BENCH_CLIENTS", 1000);
  knobs.rps = bench::env_or("HEADTALK_SCALE_BENCH_RPS", 120);
  knobs.utterances = bench::env_or("HEADTALK_SCALE_BENCH_UTTERANCES", 1200);
  knobs.jobs = bench::env_or("HEADTALK_SCALE_BENCH_JOBS", 2);
  knobs.frames = bench::env_or("HEADTALK_SCALE_BENCH_FRAMES", 4800);
  knobs.window_ms = bench::env_or("HEADTALK_SCALE_BENCH_WINDOW_MS", 2000);

  const core::HeadTalkPipeline pipeline(bench::make_orientation(),
                                        bench::make_liveness());

  // ---- Phase 1: 2 -> 4 loops in one process, closed loop, steady state.
  std::array<SideRps, kScalingLoops.size()> sides{};
  bool ok = run_scaling(pipeline, knobs, sides);
  const double speedup = sides[0].median > 0.0 ? sides[1].median / sides[0].median : 0.0;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const bool gated = cores >= kScalingLoops.back();
  std::printf("loop speedup: %.2fx on %u core(s)%s\n", speedup, cores,
              gated ? "" : "  [>=1.7x gate skipped: fewer cores than loops]");
  if (gated && speedup < kScalingGate) {
    std::fprintf(stderr, "2 -> 4 loop speedup %.2fx below the %.1fx gate\n", speedup,
                 kScalingGate);
    ok = false;
  }

  // ---- Phase 2: the headline scale run. One in-process server,
  // `clients` concurrent multiplexed connections, open-loop
  // arrivals at a fixed global rate.
  serve::ServerConfig config;
  config.socket_path = socket_path("scale");
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
  const double p50 = bench::sorted_quantile(latencies, 0.50);
  const double p95 = bench::sorted_quantile(latencies, 0.95);
  const double p99 = bench::sorted_quantile(latencies, 0.99);

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
  rec.set_metric("rps_2loop", sides[0].median);
  rec.set_metric("rps_4loop", sides[1].median);
  rec.set_metric("rps_2loop_spread", sides[0].spread);
  rec.set_metric("rps_4loop_spread", sides[1].spread);
  rec.set_metric("loop_speedup", speedup);
  return ok ? 0 : 1;
}
