// Self-tests of the benchmark's own arithmetic. Every run executes them
// before measuring; a failure stops the run without a result.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace e2e {

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "e2ebench self-test failed: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

void percentile_rule() {
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  // p50 of 1..100 is 50 with 50 samples beyond: printable.
  const auto p50 = percentile(hundred, 0.50);
  check(p50.supported && near(p50.value, 50.0) && p50.beyond == 50, "p50 of 1..100");
  // p99 of 100 samples has 1 sample beyond: must not be printed.
  check(!percentile(hundred, 0.99).supported, "p99 of 100 samples is refused");
  // p90 of 100 has exactly 10 beyond: the smallest sample that supports it.
  const auto p90 = percentile(hundred, 0.90);
  check(p90.supported && near(p90.value, 90.0) && p90.beyond == 10, "p90 of 1..100");
  // A 3-sample p99 (the old stream bench's) is refused.
  check(!percentile({1.0, 2.0, 3.0}, 0.99).supported, "3-sample p99 is refused");
  // p99 needs 1000 samples; order of input does not matter.
  std::vector<double> thousand;
  for (int i = 1000; i >= 1; --i) thousand.push_back(i);
  const auto p99 = percentile(thousand, 0.99);
  check(p99.supported && near(p99.value, 990.0) && p99.beyond == 10, "p99 of 1000");
  check(!percentile({}, 0.5).supported, "empty sample");
}

void scheduled_arrival_latency() {
  // Arrivals due at 0, 10, 20 ms; the generator stalls until 25 ms and
  // sends all three; answers come back at 26, 27, 28 ms. Timed from the
  // schedule, the stall is charged to every request it delayed.
  const double due[] = {0.000, 0.010, 0.020};
  const double answered[] = {0.026, 0.027, 0.028};
  const double expected[] = {0.026, 0.017, 0.008};
  for (int i = 0; i < 3; ++i) {
    check(near(scheduled_latency(due[i], answered[i]), expected[i]),
          "latency runs from the scheduled arrival");
    check(near(generator_lag(due[i], 0.025), 0.025 - due[i]), "lag is send - due");
  }
  check(near(generator_lag(0.030, 0.025), 0.0), "an early send has no lag");
}

void close_chunk_arithmetic() {
  CloseGeometry g;  // 960-sample VAD frames, hangover 15, post-roll 5, 4800-sample chunks
  // Segment ending at VAD frame 100 (sample 96000): the close needs
  // frames up to 110, i.e. sample 105600, which chunk 21 completes.
  check(close_chunk(96000, false, g) == 21, "close chunk of a normal segment");
  // Exactly on a chunk boundary: sample 4800*22 = 105600 needed -> chunk 21.
  check(close_chunk(105600 - 9600, false, g) == 21, "close chunk on a boundary");
  // One more VAD frame spills into the next chunk.
  check(close_chunk(105600 - 9600 + 960, false, g) == 22, "close chunk past a boundary");
  // A force-closed segment closes on its own last frame.
  check(close_chunk(96000, true, g) == 19, "force-closed segment");
  CloseGeometry small = g;
  small.chunk_frames = 960;
  check(close_chunk(960, false, small) == 10, "one VAD frame per chunk");
}

void nested_self_time() {
  // root [0,10) with children [1,4) and [3,6) (overlapping) and [8,9);
  // the grandchild [2,3) only counts against its parent.
  std::vector<Span> spans = {
      {"root", 0, 10, -1, 1}, {"a", 1, 4, 0, 1}, {"b", 3, 6, 0, 1},
      {"c", 8, 9, 0, 1},      {"a.x", 2, 3, 1, 1},
  };
  const auto self = self_times(spans);
  check(near(self[0], 10 - 5 - 1), "root self time excludes the union of its children");
  check(near(self[1], 3 - 1), "child self time excludes its own child");
  check(near(self[2], 3) && near(self[3], 1) && near(self[4], 1), "leaf self times");
  // A child running past its parent counts only inside the parent.
  const auto clipped = self_times({{"p", 0, 5, -1, 2}, {"k", 4, 7, 0, 2}});
  check(near(clipped[0], 4), "children are clipped to the parent");
}

}  // namespace

int run_self_tests() {
  failures = 0;
  percentile_rule();
  scheduled_arrival_latency();
  close_chunk_arithmetic();
  nested_self_time();
  return failures;
}

}  // namespace e2e
