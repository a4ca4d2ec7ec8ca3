// §IV-B15: runtime of the HeadTalk pipeline stages.
// Paper (PC, i7-2600): liveness ~42 ms, orientation ~136 ms per wake word;
// the prototype ARM board needs 527 ms for orientation. The absolute
// numbers depend on hardware; the shape claim is that orientation costs a
// small multiple of liveness and both fit a VA's response budget.
//
// Two measurements share this binary:
//  1. A cold-vs-warm comparison of the feature extractors: cold rebuilds
//     FFT plans every call (FftPlanCache disabled) and allocates all
//     scratch per call; warm reuses cached plans and a ScoringWorkspace.
//     The per-utterance latencies, the speedup, and the plan-cache traffic
//     land in the BENCH_runtime.json perf record; the run fails if cold
//     and warm features are not bit-identical.
//  2. The google-benchmark stage timings (skipped when
//     $HEADTALK_RUNTIME_SKIP_GBENCH=1, e.g. in the bench-smoke ctest).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <random>

#include <algorithm>
#include <cmath>
#include <string>

#include "bench_common.h"
#include "core/liveness_detector.h"
#include "core/liveness_features.h"
#include "core/orientation_classifier.h"
#include "core/orientation_features.h"
#include "core/preprocess.h"
#include "core/scoring_workspace.h"
#include "dsp/fft_plan.h"
#include "dsp/simd/dispatch.h"
#include "sim/collector.h"

using namespace headtalk;

namespace {

// One fixed rendered capture shared by all benchmarks. The extractors
// band-pass and trim internally, so every stage is fed this raw capture.
const audio::MultiBuffer& capture() {
  static const audio::MultiBuffer instance = [] {
    sim::CollectorConfig cfg;
    cfg.cache_enabled = false;
    sim::Collector collector(cfg);
    sim::SampleSpec spec;
    spec.location = {sim::GridRadial::kMiddle, 3.0};
    return collector.capture(spec);
  }();
  return instance;
}

core::OrientationClassifier& trained_orientation() {
  static core::OrientationClassifier instance = [] {
    // A small synthetic training set: runtime depends on support-vector
    // count and feature dimension, both matched to the real pipeline.
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
  }();
  return instance;
}

core::LivenessDetector& trained_liveness() {
  static core::LivenessDetector instance = [] {
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
  }();
  return instance;
}

void BM_Preprocess(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::preprocess(capture()));
  }
}
BENCHMARK(BM_Preprocess)->Unit(benchmark::kMillisecond);

void BM_LivenessDetection(benchmark::State& state) {
  // One channel -> features -> network score (the paper's 42 ms stage).
  core::LivenessFeatureExtractor extractor;
  auto& detector = trained_liveness();
  for (auto _ : state) {
    const auto features = extractor.extract(capture().channel(0));
    benchmark::DoNotOptimize(detector.score(features));
  }
}
BENCHMARK(BM_LivenessDetection)->Unit(benchmark::kMillisecond);

void BM_OrientationDetection(benchmark::State& state) {
  // Four channels -> SRP/GCC/directivity features -> SVM (the 136 ms stage).
  core::OrientationFeatureExtractor extractor;
  auto& classifier = trained_orientation();
  for (auto _ : state) {
    const auto features = extractor.extract(capture());
    benchmark::DoNotOptimize(classifier.predict(features));
  }
}
BENCHMARK(BM_OrientationDetection)->Unit(benchmark::kMillisecond);

void BM_FullHeadTalkDecision(benchmark::State& state) {
  // Liveness + orientation on the raw capture, each extraction
  // preprocessing its own input once.
  core::LivenessFeatureExtractor liveness_extractor;
  core::OrientationFeatureExtractor orientation_extractor;
  auto& liveness = trained_liveness();
  auto& orientation = trained_orientation();
  for (auto _ : state) {
    const double live_score =
        liveness.score(liveness_extractor.extract(capture().channel(0)));
    benchmark::DoNotOptimize(live_score);
    benchmark::DoNotOptimize(
        orientation.predict(orientation_extractor.extract(capture())));
  }
}
BENCHMARK(BM_FullHeadTalkDecision)->Unit(benchmark::kMillisecond);

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::atoi(value);
}

template <typename Fn>
double time_ms_per_iter(int iterations, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) fn();
  const auto elapsed =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start);
  return elapsed.count() / static_cast<double>(iterations);
}

/// Cold-vs-warm scoring-engine measurement; returns false when the
/// determinism contract (cold features == warm features, bitwise) breaks.
bool run_plan_cache_record() {
  const int iters = env_int("HEADTALK_RUNTIME_BENCH_ITERS", 10);
  auto& cache = dsp::FftPlanCache::global();
  const core::OrientationFeatureExtractor orientation_extractor;
  const core::LivenessFeatureExtractor liveness_extractor;
  auto& recorder = bench::PerfRecorder::instance();

  bench::print_note("\nScoring-engine warm-up effect (plan cache + workspace reuse):");

  // --- Cold: every call rebuilds its FFT plans and scratch buffers ---
  cache.set_enabled(false);
  cache.clear();
  const auto orientation_cold = orientation_extractor.extract(capture());
  const double orientation_cold_ms = time_ms_per_iter(iters, [&] {
    benchmark::DoNotOptimize(orientation_extractor.extract(capture()));
  });
  const auto liveness_cold = liveness_extractor.extract(capture().channel(0));
  const double liveness_cold_ms = time_ms_per_iter(iters, [&] {
    benchmark::DoNotOptimize(liveness_extractor.extract(capture().channel(0)));
  });

  // --- Warm: cached plans + per-thread workspace, one warm-up call ---
  cache.set_enabled(true);
  cache.clear();
  const auto stats_before = cache.stats();
  core::ScoringWorkspace workspace;
  const auto orientation_warm = orientation_extractor.extract(capture(), &workspace);
  const double orientation_warm_ms = time_ms_per_iter(iters, [&] {
    benchmark::DoNotOptimize(orientation_extractor.extract(capture(), &workspace));
  });
  const auto liveness_warm = liveness_extractor.extract(capture().channel(0), &workspace);
  const double liveness_warm_ms = time_ms_per_iter(iters, [&] {
    benchmark::DoNotOptimize(
        liveness_extractor.extract(capture().channel(0), &workspace));
  });
  const auto stats_after = cache.stats();

  const double orientation_speedup =
      orientation_warm_ms > 0.0 ? orientation_cold_ms / orientation_warm_ms : 0.0;
  const double liveness_speedup =
      liveness_warm_ms > 0.0 ? liveness_cold_ms / liveness_warm_ms : 0.0;

  std::printf("  orientation: cold %8.2f ms  warm %8.2f ms  speedup %.2fx  (paper: 136 ms)\n",
              orientation_cold_ms, orientation_warm_ms, orientation_speedup);
  std::printf("  liveness:    cold %8.2f ms  warm %8.2f ms  speedup %.2fx  (paper: 42 ms)\n",
              liveness_cold_ms, liveness_warm_ms, liveness_speedup);
  std::printf("  plan cache:  %llu hits / %llu misses over the warm phase; "
              "workspace served %llu extractions\n",
              static_cast<unsigned long long>(stats_after.hits - stats_before.hits),
              static_cast<unsigned long long>(stats_after.misses - stats_before.misses),
              static_cast<unsigned long long>(workspace.uses()));

  recorder.add_samples(static_cast<std::size_t>(4 * iters + 4));
  recorder.set_metric("orientation_cold_ms", orientation_cold_ms);
  recorder.set_metric("orientation_warm_ms", orientation_warm_ms);
  recorder.set_metric("orientation_speedup", orientation_speedup);
  recorder.set_metric("liveness_cold_ms", liveness_cold_ms);
  recorder.set_metric("liveness_warm_ms", liveness_warm_ms);
  recorder.set_metric("liveness_speedup", liveness_speedup);
  recorder.set_metric("plan_cache_hits",
                      static_cast<double>(stats_after.hits - stats_before.hits));
  recorder.set_metric("plan_cache_misses",
                      static_cast<double>(stats_after.misses - stats_before.misses));

  if (orientation_cold != orientation_warm || liveness_cold != liveness_warm) {
    std::fprintf(stderr,
                 "bench_runtime: cold and warm features are NOT bit-identical — "
                 "the plan cache / workspace changed scoring results\n");
    return false;
  }
  bench::print_note("  cold and warm features are bit-identical");
  return true;
}

/// Warm orientation scoring swept across every SIMD dispatch level the
/// host supports, enforcing the numerical contract of the kernel layer:
/// per-feature deltas <= 1e-9 relative against the scalar reference and a
/// bit-identical classifier verdict at every level. Returns false when the
/// contract breaks.
bool run_simd_level_record() {
  const int iters = env_int("HEADTALK_RUNTIME_BENCH_ITERS", 10);
  const core::OrientationFeatureExtractor extractor;
  auto& classifier = trained_orientation();
  auto& recorder = bench::PerfRecorder::instance();

  const dsp::simd::Level original = dsp::simd::active_level();
  bench::print_note("\nSIMD dispatch sweep (warm orientation scoring):");

  dsp::simd::set_level(dsp::simd::Level::kScalar);
  core::ScoringWorkspace reference_workspace;
  const auto reference = extractor.extract(capture(), &reference_workspace);
  const int reference_verdict = classifier.predict(reference);

  bool ok = true;
  double max_delta = 0.0;
  const int max_level = static_cast<int>(dsp::simd::max_supported_level());
  for (int l = 0; l <= max_level; ++l) {
    const auto level = static_cast<dsp::simd::Level>(l);
    dsp::simd::set_level(level);
    core::ScoringWorkspace workspace;
    const auto features = extractor.extract(capture(), &workspace);
    const double warm_ms = time_ms_per_iter(iters, [&] {
      benchmark::DoNotOptimize(extractor.extract(capture(), &workspace));
    });
    double level_delta = 0.0;
    for (std::size_t k = 0; k < features.size(); ++k) {
      const double scale = std::max(1.0, std::abs(reference[k]));
      level_delta = std::max(level_delta, std::abs(features[k] - reference[k]) / scale);
    }
    max_delta = std::max(max_delta, level_delta);
    const int verdict = classifier.predict(features);
    const char* name = dsp::simd::level_name(level);
    std::printf("  %-6s warm %8.2f ms  max feature delta %.3g  verdict %s\n",
                name, warm_ms, level_delta,
                verdict == reference_verdict ? "identical" : "DIFFERS");
    recorder.set_metric(std::string("orientation_warm_") + name + "_ms", warm_ms);
    if (level_delta > 1e-9 || verdict != reference_verdict) ok = false;
  }
  dsp::simd::set_level(original);

  recorder.add_samples(static_cast<std::size_t>((max_level + 1) * (iters + 1) + 1));
  recorder.set_metric("simd_level", static_cast<double>(static_cast<int>(original)));
  recorder.set_metric("simd_max_feature_delta", max_delta);

  if (!ok) {
    std::fprintf(stderr,
                 "bench_runtime: SIMD levels disagree beyond the 1e-9 contract "
                 "or flipped a verdict\n");
  } else {
    bench::print_note("  all levels within 1e-9 with identical verdicts");
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  bench::print_title("runtime",
                     "§IV-B15 stage runtime + scoring-engine warm-up (plan cache)");

  const bool deterministic = run_plan_cache_record() && run_simd_level_record();

  // The bench-smoke ctest sets this: the stage benchmarks repeat each stage
  // until statistically stable, far too slow for a smoke gate.
  if (env_int("HEADTALK_RUNTIME_SKIP_GBENCH", 0) == 0) {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return deterministic ? 0 : 1;
}
