#include "proc.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "serve/admin.h"

namespace e2e {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Child::Child(const std::vector<std::string>& argv, const std::filesystem::path& log) {
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) throw std::runtime_error("cannot open " + log.string());
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(log_fd);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    // Die with the benchmark, whatever way it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log_fd);
}

Child::~Child() { (void)stop(2000); }

bool Child::alive() {
  if (reaped_ || pid_ <= 0) return false;
  const pid_t r = ::waitpid(pid_, &status_, WNOHANG);
  if (r == pid_) reaped_ = true;
  return !reaped_;
}

int Child::wait() {
  while (!reaped_ && pid_ > 0) {
    const pid_t r = ::waitpid(pid_, &status_, 0);
    if (r == pid_) reaped_ = true;
    if (r < 0 && errno != EINTR) break;
  }
  if (WIFEXITED(status_)) return WEXITSTATUS(status_);
  if (WIFSIGNALED(status_)) return 128 + WTERMSIG(status_);
  return 1;
}

int Child::stop(int grace_ms) {
  if (pid_ <= 0) return 0;
  if (alive()) {
    ::kill(pid_, SIGTERM);
    const double deadline = now_s() + grace_ms / 1000.0;
    while (alive() && now_s() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (alive()) ::kill(pid_, SIGKILL);
  }
  return wait();
}

void run_tool(const std::vector<std::string>& argv, const std::filesystem::path& log) {
  Child child(argv, log);
  const int code = child.wait();
  if (code == 0) return;
  std::ifstream in(log);
  std::stringstream text;
  text << in.rdbuf();
  std::string tail = text.str();
  if (tail.size() > 800) tail = tail.substr(tail.size() - 800);
  throw std::runtime_error(argv[0] + " exited with " + std::to_string(code) + ": " +
                           tail);
}

double process_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text;
  std::getline(in, text);
  // The command name (field 2) may hold spaces; fields resume after ')'.
  const auto close = text.rfind(')');
  if (close == std::string::npos) throw std::runtime_error("unreadable /proc stat");
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int index = 3; rest >> field; ++index) {
    if (index == 14) utime = std::stoull(field);
    if (index == 15) {
      stime = std::stoull(field);
      break;
    }
  }
  return static_cast<double>(utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double process_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc status");
}

headtalk::obs::MetricsSnapshot scrape_metrics(const std::filesystem::path& admin_socket) {
  const auto fetch = headtalk::serve::admin_get_unix(admin_socket, "/metrics.json");
  if (fetch.status != 200) {
    throw std::runtime_error("/metrics.json answered " + std::to_string(fetch.status));
  }
  return headtalk::obs::parse_snapshot_json(fetch.body);
}

double counter_delta(const headtalk::obs::MetricsSnapshot& before,
                     const headtalk::obs::MetricsSnapshot& after,
                     const std::string& name) {
  const auto value = [&name](const headtalk::obs::MetricsSnapshot& s) {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  return value(after) - value(before);
}

HistogramDelta histogram_delta(const headtalk::obs::MetricsSnapshot& before,
                               const headtalk::obs::MetricsSnapshot& after,
                               const std::string& name) {
  HistogramDelta out;
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return out;
  out.count = static_cast<double>(a->second.count);
  out.sum = a->second.sum;
  const auto b = before.histograms.find(name);
  if (b != before.histograms.end()) {
    out.count -= static_cast<double>(b->second.count);
    out.sum -= b->second.sum;
  }
  return out;
}

}  // namespace e2e
