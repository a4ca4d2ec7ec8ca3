// Exposition of metrics snapshots (obs/export.h): exact Prometheus text,
// JSON round-trips, and the quantile estimator applied to shipped data.
#include "obs/export.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace headtalk::obs {
namespace {

TEST(MetricsExportTest, PrometheusNameSanitization) {
  EXPECT_EQ(prometheus_name("pipeline.decision.accepted"),
            "pipeline_decision_accepted");
  EXPECT_EQ(prometheus_name("already_fine:v2"), "already_fine:v2");
  EXPECT_EQ(prometheus_name("a-b c"), "a_b_c");
}

TEST(MetricsExportTest, PrometheusTextIsExactForHandBuiltRegistry) {
  Registry registry;
  registry.counter("serve.decisions").add(7);
  registry.gauge("serve.active").set(2.5);
  // Dyadic observations so the accumulated sum has one exact, short
  // decimal form and the expected text is deterministic.
  Histogram& h = registry.histogram("stage.seconds", {0.25, 0.5, 1.0});
  h.observe(0.125);   // bucket 0
  h.observe(0.375);   // bucket 1
  h.observe(0.4375);  // bucket 1
  h.observe(2.0);     // overflow

  const std::string text = to_prometheus(snapshot(registry));
  EXPECT_EQ(text,
            "# TYPE serve_decisions counter\n"
            "serve_decisions 7\n"
            "# TYPE serve_active gauge\n"
            "serve_active 2.5\n"
            "# TYPE stage_seconds histogram\n"
            "stage_seconds_bucket{le=\"0.25\"} 1\n"
            "stage_seconds_bucket{le=\"0.5\"} 3\n"
            "stage_seconds_bucket{le=\"1\"} 3\n"
            "stage_seconds_bucket{le=\"+Inf\"} 4\n"
            "stage_seconds_sum 2.9375\n"
            "stage_seconds_count 4\n");
}

TEST(MetricsExportTest, BucketsAreCumulativeAndEndAtInf) {
  Registry registry;
  Histogram& h = registry.histogram("h", {1.0, 2.0});
  for (int i = 0; i < 5; ++i) h.observe(0.5);
  h.observe(1.5);
  const std::string text = to_prometheus(snapshot(registry));
  EXPECT_NE(text.find("h_bucket{le=\"1\"} 5\n"), std::string::npos);
  EXPECT_NE(text.find("h_bucket{le=\"2\"} 6\n"), std::string::npos);
  EXPECT_NE(text.find("h_bucket{le=\"+Inf\"} 6\n"), std::string::npos);
  EXPECT_NE(text.find("h_count 6\n"), std::string::npos);
}

TEST(MetricsExportTest, SnapshotJsonRoundTrips) {
  Registry registry;
  registry.counter("events.total").add(123456789);
  registry.gauge("queue.depth").set(-3.25);
  registry.gauge("precise").set(0.1 + 0.2);  // needs %.17g to round-trip
  Histogram& h = registry.histogram("latency.seconds", {0.01, 0.1, 1.0});
  h.observe(0.005);
  h.observe(0.05);
  h.observe(5.0);

  const MetricsSnapshot before = snapshot(registry);
  const MetricsSnapshot after = parse_snapshot_json(to_snapshot_json(before));
  EXPECT_EQ(before, after);
}

TEST(MetricsExportTest, EmptySnapshotRoundTrips) {
  const MetricsSnapshot empty;
  EXPECT_EQ(parse_snapshot_json(to_snapshot_json(empty)), empty);
}

TEST(MetricsExportTest, ParseRejectsStructurallyWrongSnapshots) {
  EXPECT_THROW((void)parse_snapshot_json("[]"), std::invalid_argument);
  EXPECT_THROW((void)parse_snapshot_json("{\"counters\":{}}"),
               std::invalid_argument);
  // buckets must be bounds.size() + 1 long.
  EXPECT_THROW(
      (void)parse_snapshot_json(
          "{\"counters\":{},\"gauges\":{},\"histograms\":"
          "{\"h\":{\"bounds\":[1,2],\"buckets\":[0,0],\"count\":0,\"sum\":0}}}"),
      std::invalid_argument);
}

TEST(MetricsExportTest, SnapshotQuantileInterpolatesAndClampsOverflow) {
  Registry registry;
  Histogram& h = registry.histogram("h", {1.0, 2.0});
  for (int i = 0; i < 100; ++i) h.observe(0.5);
  const HistogramSnapshot hs = snapshot(registry).histograms.at("h");
  const double p50 = snapshot_quantile(hs, 0.5);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, 1.0);
  // All mass past the last bound reports the last bound.
  Registry overflow;
  Histogram& o = overflow.histogram("o", {1.0});
  o.observe(100.0);
  EXPECT_DOUBLE_EQ(snapshot_quantile(snapshot(overflow).histograms.at("o"), 0.99),
                   1.0);
  EXPECT_DOUBLE_EQ(snapshot_quantile(HistogramSnapshot{}, 0.5), 0.0);
}

TEST(MetricsExportTest, SnapshotIsInternallyConsistentUnderConcurrentWriters) {
  // Racing writers must never produce a snapshot whose bucket total
  // disagrees with its count, render unparseable JSON, or trip TSan.
  Registry registry;
  Counter& counter = registry.counter("stress.events");
  Histogram& histogram = registry.histogram("stress.seconds", {0.001, 0.01, 0.1});
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(t));
      std::uniform_real_distribution<double> value(0.0, 0.2);
      while (!stop.load(std::memory_order_acquire)) {
        counter.increment();
        histogram.observe(value(rng));
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    const MetricsSnapshot snap = snapshot(registry);
    const HistogramSnapshot& hs = snap.histograms.at("stress.seconds");
    std::uint64_t total = 0;
    for (const auto bucket : hs.buckets) total += bucket;
    EXPECT_EQ(total, hs.count);
    EXPECT_EQ(parse_snapshot_json(to_snapshot_json(snap)), snap);
  }
  stop.store(true, std::memory_order_release);
  for (auto& writer : writers) writer.join();
}

}  // namespace
}  // namespace headtalk::obs
