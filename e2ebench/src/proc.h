// Child processes (the shipped tools and the daemon) and the daemon-side
// accounting read from outside it: /proc CPU and peak RSS, admin-plane
// metric snapshots.
#pragma once

#include <sys/types.h>

#include <filesystem>
#include <string>
#include <vector>

#include "obs/export.h"

namespace e2e {

/// Seconds on the steady clock (one epoch for the whole benchmark).
[[nodiscard]] double now_s();

/// One child process, stdout+stderr appended to a log file. The child is
/// killed with the benchmark if the benchmark dies, and the destructor
/// stops and reaps it, so no process outlives a run.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::filesystem::path& log);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  /// True while the child has not exited.
  [[nodiscard]] bool alive();
  /// Blocks until exit; returns the exit code (128 + signal if killed).
  int wait();
  /// SIGTERM, up to `grace_ms` for a clean exit, then SIGKILL; reaps.
  /// Returns the exit code.
  int stop(int grace_ms);

 private:
  pid_t pid_ = -1;
  int status_ = 0;
  bool reaped_ = false;
};

/// Runs a tool to completion; throws with the log's tail on failure.
void run_tool(const std::vector<std::string>& argv, const std::filesystem::path& log);

/// utime + stime of a process, seconds (clock-tick resolution).
[[nodiscard]] double process_cpu_seconds(pid_t pid);
/// VmHWM (peak resident set) of a process, MiB.
[[nodiscard]] double process_peak_rss_mb(pid_t pid);

/// GET /metrics.json from the daemon's admin socket.
[[nodiscard]] headtalk::obs::MetricsSnapshot scrape_metrics(
    const std::filesystem::path& admin_socket);

/// Counter delta between two snapshots (0 when absent from both).
[[nodiscard]] double counter_delta(const headtalk::obs::MetricsSnapshot& before,
                                   const headtalk::obs::MetricsSnapshot& after,
                                   const std::string& name);

/// Histogram (count, sum) delta between two snapshots.
struct HistogramDelta {
  double count = 0.0;
  double sum = 0.0;
};
[[nodiscard]] HistogramDelta histogram_delta(const headtalk::obs::MetricsSnapshot& before,
                                             const headtalk::obs::MetricsSnapshot& after,
                                             const std::string& name);

}  // namespace e2e
