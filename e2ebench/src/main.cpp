// e2ebench — the repository's end-to-end benchmark.
//
//   bash e2ebench/run.sh --workload wake_open --seed 1 --seconds 12 --trace 0
//
// Renders a seeded corpus of wake words, trains and enrolls through the
// shipped headtalk_train, starts the real headtalk_serve with its default
// flags, and drives one workload from this single load-generator process
// (at most nproc connections and threads):
//
//   wake_open      whole utterances, open loop at a fixed Poisson rate;
//                  latency from the scheduled arrival
//   wake_closed    the same mix, closed loop: capacity
//   stream_sparse  AUTH'd always-listening streams paced at a fixed
//                  multiple of real time, with admin POST /reload beside
//
// Every DECISION / STREAM_DECISION is checked against the in-process
// reference (HeadTalkPipeline::score_capture). The last stdout line is
// one JSON object; --trace 1 reports the per-layer ledger instead of the
// end-to-end metrics. See e2ebench/README.md for every metric.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "corpus.h"
#include "ledger.h"
#include "loadgen.h"
#include "proc.h"
#include "reference.h"
#include "serve/admin.h"
#include "stats.h"
#include "tenant/service.h"

namespace e2e {
int run_self_tests();
}

using namespace e2e;
namespace fs = std::filesystem;

namespace {

constexpr int kSetups = 3;              // set-up repetitions; setup_s is their median
constexpr double kWarmupSeconds = 1.5;  // driven but excluded from every figure
constexpr double kOpenRateHz = 200.0;   // wake_open arrivals, ~half wake_closed capacity
constexpr double kStreamSpeed = 28.0;   // stream pacing, multiple of real time
constexpr std::size_t kScenes = 2;
constexpr int kSubWindows = 5;               // figures are medians over these
constexpr double kReloadEverySeconds = 1.0;  // stream_sparse: POST /reload cadence

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path tools;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = std::stoull(value());
    else if (flag == "--seconds") a.seconds = std::stod(value());
    else if (flag == "--trace") a.trace = value() != "0";
    else if (flag == "--tools") a.tools = fs::absolute(value());
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (a.workload != "wake_open" && a.workload != "wake_closed" &&
      a.workload != "stream_sparse") {
    throw std::runtime_error("--workload: expected wake_open|wake_closed|stream_sparse");
  }
  if (!(a.seconds >= 1.0 && a.seconds <= 120.0)) {
    throw std::runtime_error("--seconds: expected 1..120");
  }
  if (a.tools.empty()) {
    throw std::runtime_error("--tools <dir of the built tools> is required");
  }
  return a;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

struct Setup {
  double seconds = 0.0;
  double render_ms_per_capture = 0.0;
  double train_s = 0.0;
  double ready_ms = 0.0;
};

/// One complete set-up: render the training grid and the enrollment
/// captures (feature cache off), train, enroll, start the daemon and
/// wait for its first answered DECISION.
Setup set_up(const Args& args, const fs::path& dir, const Item& probe, unsigned jobs,
             std::unique_ptr<Child>& daemon) {
  Setup s;
  const double t0 = now_s();
  const auto collector = make_collector(args.seed);
  const std::size_t captures = render_training_set(collector, dir / "corpus", jobs);
  s.render_ms_per_capture = (now_s() - t0) * 1e3 / static_cast<double>(captures);

  const double t_train = now_s();
  run_tool({(args.tools / "headtalk_train").string(), "--data", (dir / "corpus").string(),
            "--out", (dir / "models").string(), "--jobs", std::to_string(jobs)},
           dir / "train.log");
  s.train_s = now_s() - t_train;
  for (const auto& tenant : kTenants) {
    std::string wavs;
    for (const auto& path : enrollment_wavs(dir / "corpus", tenant)) {
      wavs += (wavs.empty() ? "" : ",") + path.string();
    }
    run_tool({(args.tools / "headtalk_train").string(), "--enroll", "--tenant", tenant.id,
              "--store", (dir / "store").string(), "--wavs", wavs, "--policy",
              "enrolled_live_facing"},
             dir / "enroll.log");
  }

  const double t_spawn = now_s();
  daemon = std::make_unique<Child>(
      std::vector<std::string>{(args.tools / "headtalk_serve").string(), "--models",
                               (dir / "models").string(), "--socket",
                               (dir / "serve.sock").string(), "--admin-socket",
                               (dir / "admin.sock").string(), "--store",
                               (dir / "store").string()},
      dir / "serve.log");
  for (;;) {
    if (!daemon->alive()) {
      throw std::runtime_error("headtalk_serve exited during start-up");
    }
    if (now_s() - t_spawn > 30.0) {
      throw std::runtime_error("headtalk_serve never became ready");
    }
    if (fs::exists(dir / "admin.sock") && fs::exists(dir / "serve.sock")) {
      try {
        const auto ready =
            headtalk::serve::admin_get_unix(dir / "admin.sock", "/readyz", 1000);
        if (ready.status == 200) break;
      } catch (const std::exception&) {
        // Not accepting yet; poll again.
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  s.ready_ms = (now_s() - t_spawn) * 1e3;
  (void)first_decision(dir / "serve.sock", probe);
  s.seconds = now_s() - t0;
  return s;
}

struct Metric {
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::map<std::string, Metric>& metrics) {
  std::ostringstream out;
  out.precision(9);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << metric.value
        << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

double require(const Percentile& p, const char* what) {
  if (!p.supported) {
    throw std::runtime_error(std::string(what) + ": only " + std::to_string(p.beyond) +
                             " of " + std::to_string(p.samples) +
                             " samples lie beyond it (need " +
                             std::to_string(kMinSamplesBeyond) + ")");
  }
  return p.value;
}

void write_trace(const fs::path& path, const std::vector<Span>& spans) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path);
  out.precision(12);
  out << "{\"spans\":[\n";
  const auto self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << (i ? ",\n" : "") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start\":" << s.start << ",\"end\":" << s.end
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"self\":" << self[i] << "}";
  }
  out << "\n]}\n";
}

int run(const Args& args) {
  const double t_begin = now_s();
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const fs::path root = fs::current_path();
  const fs::path work = root / ".bench_build" / "e2ebench-work";
  fs::remove_all(work);
  fs::create_directories(work);
  // Relative paths from here on keep the Unix socket paths short.
  fs::current_path(work);
  ::setenv("HEADTALK_CACHE", (work / "cache").c_str(), 1);
  ::unsetenv("HEADTALK_JOBS");  // the daemon runs its default worker count

  const bool stream = args.workload == "stream_sparse";
  const auto collector = make_collector(args.seed);
  std::fprintf(stderr, "e2ebench: rendering inputs (seed %llu)\n",
               static_cast<unsigned long long>(args.seed));
  std::vector<Item> items = render_items(collector, args.seed, cores);
  std::vector<Scene> scenes;
  if (stream || args.trace) scenes = render_scenes(collector, args.seed, kScenes);

  // ---- set-up, several times; the last daemon serves the workload ---------
  std::vector<Setup> setups;
  std::unique_ptr<Child> daemon;
  for (int i = 0; i < kSetups; ++i) {
    if (daemon) daemon->stop(5000);
    setups.push_back(
        set_up(args, "setup" + std::to_string(i), items.front(), cores, daemon));
  }
  const fs::path dir = "setup" + std::to_string(kSetups - 1);
  bool models_identical = true;
  for (const char* model : {"orientation.htm", "liveness.htm"}) {
    models_identical &= read_file(fs::path("setup0") / "models" / model) ==
                        read_file(dir / "models" / model);
  }

  std::fprintf(stderr, "e2ebench: set-up done at %.1f s\n", now_s() - t_begin);

  // ---- reference verdicts -------------------------------------------------
  const auto pipeline = load_pipeline(dir / "models");
  const auto variants = reference_items(*pipeline, items, cores);
  const bool probe_ok =
      same_verdict(expected_frame(variants.front().result[0][0]),
                   first_decision(dir / "serve.sock", items.front()));
  headtalk::tenant::TenantService tenants(dir / "store");
  std::vector<StreamRef> refs;  // [scene * tenants + tenant]
  for (const auto& scene : scenes) {
    for (const auto& tenant : kTenants) {
      refs.push_back(reference_stream(*pipeline, scene, tenants, tenant));
    }
  }

  // ---- connections and the workload ---------------------------------------
  const std::size_t conns = cores;
  std::vector<int> fds;
  std::vector<ScriptGen> scripts;
  std::vector<const Scene*> conn_scenes;
  std::vector<const StreamRef*> conn_refs;
  for (std::size_t c = 0; c < conns; ++c) {
    if (stream) {
      const std::size_t s = c % kScenes, t = (c / kScenes) % std::size(kTenants);
      fds.push_back(open_connection(dir / "serve.sock", kTenants[t].id, true));
      conn_scenes.push_back(&scenes[s]);
      conn_refs.push_back(&refs[s * std::size(kTenants) + t]);
    } else {
      fds.push_back(open_connection(dir / "serve.sock", "", false));
      scripts.emplace_back(items, variants, args.seed, c);
    }
  }

  std::fprintf(stderr, "e2ebench: reference done at %.1f s\n", now_s() - t_begin);
  Phase phase;
  phase.start = now_s() + 0.05;
  phase.window_start = phase.start + kWarmupSeconds;
  phase.window_end = phase.window_start + args.seconds;
  phase.trace = args.trace;

  // Daemon-side accounting over the measured window only: CPU at every
  // sub-window edge, admin metrics at the window's edges, plus (streams)
  // the store reloads, from one helper thread so the load loop never
  // blocks on the admin plane.
  const fs::path admin = dir / "admin.sock";
  const pid_t pid = daemon->pid();
  const double sub_len = args.seconds / kSubWindows;
  std::vector<double> cpu_marks(kSubWindows + 1, 0.0);
  headtalk::obs::MetricsSnapshot metrics_before, metrics_after;
  std::size_t reloads = 0, reload_failures = 0;
  std::string sampler_error;
  std::thread sampler([&] {
    try {
      std::vector<std::pair<double, int>> events;  // (time, sub-window edge or -1)
      for (int k = 0; k <= kSubWindows; ++k) {
        events.emplace_back(phase.window_start + k * sub_len, k);
      }
      for (double t = phase.start + kReloadEverySeconds; stream && t < phase.window_end;
           t += kReloadEverySeconds) {
        events.emplace_back(t, -1);
      }
      std::sort(events.begin(), events.end());
      for (const auto& [t, edge] : events) {
        const double wait = t - now_s();
        if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        if (edge < 0) {
          // Warm-up reloads run too, but only the window's are counted.
          const bool ok = headtalk::serve::admin_post_unix(admin, "/reload").status == 200;
          if (t >= phase.window_start) {
            ++reloads;
            reload_failures += ok ? 0 : 1;
          }
          continue;
        }
        cpu_marks[static_cast<std::size_t>(edge)] = process_cpu_seconds(pid);
        if (edge == 0) metrics_before = scrape_metrics(admin);
        if (edge == kSubWindows) metrics_after = scrape_metrics(admin);
      }
    } catch (const std::exception& error) {
      sampler_error = error.what();
    }
  });

  LoadResult load;
  try {
    if (stream) {
      load = drive_stream(fds, conn_scenes, conn_refs, kStreamSpeed, phase);
    } else {
      WakeLoad wl;
      wl.open_loop = args.workload == "wake_open";
      wl.rate_hz = kOpenRateHz;
      wl.seed = args.seed;
      load = drive_wake(fds, scripts, items, wl, phase);
    }
  } catch (...) {
    sampler.join();
    throw;
  }
  sampler.join();
  for (const int fd : fds) ::close(fd);
  if (!sampler_error.empty()) throw std::runtime_error("accounting: " + sampler_error);
  std::fprintf(stderr, "e2ebench: load done at %.1f s\n", now_s() - t_begin);
  const double peak_rss_mb = process_peak_rss_mb(pid);
  if (const int code = daemon->stop(10000); code != 0) {
    std::fprintf(stderr, "e2ebench: headtalk_serve exited with %d\n", code);
  }
  daemon.reset();

  // ---- figures ------------------------------------------------------------
  std::size_t attempted = 0, failed = 0, mismatches = 0, deadline = 0;
  std::vector<double> latency_ms, score_ms, wait_ms;
  double skipped = 0.0, answered = 0.0;
  double should_reject = 0.0, false_accepts = 0.0;
  double should_accept = 0.0, false_rejects = 0.0;
  for (const auto& r : load.records) {
    if (!r.in(phase)) continue;
    ++attempted;
    if (r.outcome != Outcome::kOk) ++failed;
    if (r.outcome == Outcome::kMismatch) ++mismatches;
    if (r.outcome == Outcome::kDeadline) ++deadline;
    if (r.outcome != Outcome::kOk) continue;
    const double ms = scheduled_latency(r.sched, r.answered) * 1e3;
    latency_ms.push_back(ms);
    score_ms.push_back(r.score_s * 1e3);
    wait_ms.push_back(ms - r.score_s * 1e3);
    answered += 1.0;
    skipped += r.orientation_skipped ? 1.0 : 0.0;
    if (r.truth == Truth::kShouldReject) {
      should_reject += 1.0;
      false_accepts += r.accepted ? 1.0 : 0.0;
    } else if (r.truth == Truth::kShouldAccept) {
      should_accept += 1.0;
      false_rejects += r.accepted ? 0.0 : 1.0;
    }
  }
  {
    // Diagnostics on stderr: the per-second shape of the window (a steady
    // run reads flat), whole-window percentiles and the generator's lag.
    std::vector<int> per_second(static_cast<std::size_t>(std::ceil(args.seconds)), 0);
    for (const auto& r : load.records) {
      if (r.answered >= phase.window_start && r.answered < phase.window_end) {
        ++per_second[static_cast<std::size_t>(r.answered - phase.window_start)];
      }
    }
    std::string line;
    for (const int n : per_second) line += " " + std::to_string(n);
    std::fprintf(stderr, "e2ebench: verdicts per second:%s\n", line.c_str());
    std::string quantiles;
    for (const double q : {0.5, 0.9, 0.95, 0.99}) {
      const auto p = percentile(latency_ms, q);
      quantiles += " p" + std::to_string(static_cast<int>(q * 100)) + " " +
                   (p.supported ? std::to_string(p.value) : std::string("n/a"));
    }
    std::fprintf(stderr, "e2ebench: latency ms%s over %zu samples\n", quantiles.c_str(),
                 latency_ms.size());
    std::vector<double> lags = load.lag_s;
    std::sort(lags.begin(), lags.end());
    if (!lags.empty()) {
      std::fprintf(stderr,
                   "e2ebench: generator lag ms p50 %.3f p99.9 %.3f max %.3f "
                   "(%zu sends)\n",
                   lags[lags.size() / 2] * 1e3, lags[lags.size() * 999 / 1000] * 1e3,
                   lags.back() * 1e3, lags.size());
    }
  }
  attempted += reloads;
  failed += reload_failures;
  const bool correct = mismatches == 0 && models_identical && probe_ok;
  if (attempted == 0 || answered == 0.0) throw std::runtime_error("no request completed");

  // Rates and CPU shares per sub-window; the reported figure is their
  // median, so one disturbed stretch of the window does not move it.
  std::vector<double> rate, cpu_per_decision, cpu_per_audio_s, bytes_per_decision;
  std::vector<double> p50, p90;
  double window_decisions = 0.0;
  for (int k = 0; k < kSubWindows; ++k) {
    const double a = phase.window_start + k * sub_len, b = a + sub_len;
    double decisions = 0.0, audio = 0.0, bytes = 0.0;
    for (const auto& r : load.records) {
      decisions += r.answered >= a && r.answered < b ? 1.0 : 0.0;
    }
    for (const auto& send : load.sends) {
      if (send.at < a || send.at >= b) continue;
      audio += send.audio_s;
      bytes += send.bytes;
    }
    if (decisions == 0.0 || audio == 0.0) {
      throw std::runtime_error("a sub-window saw no verdict or no audio");
    }
    const double cpu = cpu_marks[k + 1] - cpu_marks[k];
    window_decisions += decisions;
    rate.push_back(decisions / sub_len);
    std::vector<double> sub_latency;
    for (const auto& r : load.records) {
      if (r.outcome == Outcome::kOk && r.sched >= a && r.sched < b) {
        sub_latency.push_back(scheduled_latency(r.sched, r.answered) * 1e3);
      }
    }
    p50.push_back(require(percentile(sub_latency, 0.50), "sub-window p50"));
    p90.push_back(require(percentile(sub_latency, 0.90), "sub-window p90"));
    cpu_per_decision.push_back(cpu * 1e3 / decisions);
    cpu_per_audio_s.push_back(cpu * 1e3 / audio);
    bytes_per_decision.push_back(bytes / decisions);
  }

  std::fprintf(stderr,
               "e2ebench: %s seed %llu: %zu attempted, %zu failed (%zu mismatched), "
               "%zu latency samples, %.0f verdicts in the window, "
               "setup %.3f/%.3f/%.3f s\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               attempted, failed, mismatches, latency_ms.size(), window_decisions,
               setups[0].seconds, setups[1].seconds, setups[2].seconds);
  if (!models_identical) {
    std::fprintf(stderr, "e2ebench: set-ups trained different models\n");
  }
  if (!probe_ok) std::fprintf(stderr, "e2ebench: the set-up probe DECISION mismatched\n");

  std::map<std::string, Metric> out;
  if (!args.trace) {
    std::vector<double> setup_s;
    for (const auto& s : setups) setup_s.push_back(s.seconds);
    out["setup_s"] = {median(setup_s), "s"};
    out["decision_p50_ms"] = {median(p50), "ms"};
    out["decision_p90_ms"] = {median(p90), "ms"};
    out["decisions_per_s"] = {median(rate), "1/s"};
    out["cpu_ms_per_decision"] = {median(cpu_per_decision), "ms"};
    out["cpu_ms_per_audio_s"] = {median(cpu_per_audio_s), "ms/s"};
    out["peak_rss_mb"] = {peak_rss_mb, "MB"};
    print_result(correct, attempted, failed, out);
    return 0;
  }

  // ---- traced run: the per-layer ledger -----------------------------------
  const Ledger ledger = measure_layers(*pipeline, items, scenes.front(), refs, tenants);
  for (const auto& [name, value] : ledger.metrics) out[name] = {value.value, value.unit};
  out["serve.wire_bytes_per_utt"] = {median(bytes_per_decision), "bytes"};
  out["serve.score_ms"] = {median(score_ms), "ms"};
  out["serve.engine_wait_ms"] = {median(wait_ms), "ms"};
  const auto occupancy =
      histogram_delta(metrics_before, metrics_after, "serve.batch.occupancy");
  out["serve.batch_occupancy"] = {
      occupancy.count > 0 ? occupancy.sum / occupancy.count : 1.0, "utterances"};
  out["serve.busy_rejections"] = {
      counter_delta(metrics_before, metrics_after, "serve.busy"), "count"};
  out["serve.deadline_expirations"] = {static_cast<double>(deadline), "count"};
  // The daemon's glue around the pipeline stages: the time of its whole
  // scoring calls minus the stage histograms they wrap, per verdict, over
  // the window. The threaded engine times each utterance
  // (serve.score_seconds), the event loop each batch; a stream's segment
  // is timed by pipeline.finalize_seconds, its accumulation having run
  // earlier in the detector.
  {
    const auto delta = [&](const std::string& name) {
      return histogram_delta(metrics_before, metrics_after, name);
    };
    const auto utterances = delta("serve.score_seconds");
    const auto batches = delta("serve.batch.score_seconds");
    const auto segments = delta("pipeline.finalize_seconds");
    double glue = 0.0, verdicts = 0.0;
    std::vector<std::string> stages = {"liveness_features", "liveness_score",
                                       "orientation_features", "orientation_score"};
    if (utterances.count > 0) {
      glue = utterances.sum;
      verdicts = utterances.count;
    } else if (batches.count > 0) {
      glue = batches.sum;
      verdicts = delta("serve.batch.occupancy").sum;
    } else {
      glue = segments.sum;
      verdicts = segments.count;
    }
    if (utterances.count > 0 || batches.count > 0) stages.push_back("incremental_accumulate");
    for (const auto& stage : stages) {
      glue -= delta("pipeline.stage." + stage + "_seconds").sum;
    }
    out["serve.glue_us_per_utt"] = {glue * 1e6 / std::max(1.0, verdicts), "us"};
  }
  out["core.orientation_skipped_share"] = {skipped / answered, "ratio"};
  out["dsp.fft_plan_misses_after_warmup"] = {
      counter_delta(metrics_before, metrics_after, "dsp.fft_plan.miss"), "count"};
  std::vector<double> render, train, ready;
  for (const auto& s : setups) {
    render.push_back(s.render_ms_per_capture);
    train.push_back(s.train_s);
    ready.push_back(s.ready_ms);
  }
  out["sim.render_ms_per_capture"] = {median(render), "ms"};
  out["ml.train_s"] = {median(train), "s"};
  out["daemon.ready_ms"] = {median(ready), "ms"};
  std::vector<double> lag_ms;
  for (const double lag : load.lag_s) lag_ms.push_back(lag * 1e3);
  out["loadgen.lag_p99_ms"] = {require(percentile(lag_ms, 0.99), "generator lag p99"),
                               "ms"};
  out["false_accept_rate"] = {false_accepts / std::max(1.0, should_reject), "ratio"};
  out["false_reject_rate"] = {false_rejects / std::max(1.0, should_accept), "ratio"};
  out["failed_share"] = {static_cast<double>(failed) / static_cast<double>(attempted),
                         "ratio"};
  out["latency_samples"] = {static_cast<double>(latency_ms.size()), "count"};

  std::vector<Span> spans = load.spans;
  for (auto span : ledger.spans) {
    if (span.parent >= 0) span.parent += static_cast<int>(load.spans.size());
    span.request += 1u << 30;  // ledger requests after the wire's
    spans.push_back(span);
  }
  out["trace.spans"] = {static_cast<double>(spans.size()), "count"};
  write_trace(root / ".bench_build" / "e2ebench-traces" /
                  (args.workload + "-seed" + std::to_string(args.seed) + ".json"),
              spans);
  print_result(correct, attempted, failed, out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "e2ebench: error: %s\n", error.what());
    return 1;
  }
  if (run_self_tests() != 0) return 1;
  const fs::path root = fs::current_path();
  int code = 1;
  try {
    code = run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "e2ebench: error: %s\n", error.what());
  }
  std::error_code ignored;
  fs::current_path(root, ignored);
  fs::remove_all(root / ".bench_build" / "e2ebench-work", ignored);
  return code;
}
