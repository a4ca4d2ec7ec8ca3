#include "cli/args.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "obs/export.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace headtalk::cli {

void ArgParser::add_flag(const std::string& name, const std::string& help,
                         std::optional<std::string> default_value) {
  declarations_.emplace_back(name, Flag{help, std::move(default_value), false});
}

void ArgParser::add_switch(const std::string& name, const std::string& help) {
  declarations_.emplace_back(name, Flag{help, std::nullopt, true});
}

const ArgParser::Flag* ArgParser::find(const std::string& name) const {
  for (const auto& [flag_name, flag] : declarations_) {
    if (flag_name == name) return &flag;
  }
  return nullptr;
}

namespace {

/// Plain Levenshtein distance; flag names are short, so the quadratic
/// rolling-row version is plenty.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitution = diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
    }
  }
  return row[b.size()];
}

}  // namespace

std::string ArgParser::suggest(const std::string& name) const {
  std::string best;
  std::size_t best_distance = std::string::npos;
  for (const auto& [flag_name, flag] : declarations_) {
    const std::size_t distance = edit_distance(name, flag_name);
    if (distance < best_distance) {
      best_distance = distance;
      best = flag_name;
    }
  }
  // Only offer a close match: a typo is 1-2 edits, not a different word.
  const std::size_t threshold = name.size() <= 5 ? 1 : 2;
  if (!best.empty() && best_distance <= threshold) return best;
  return {};
}

void ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token == "--help" || token == "-h") {
      help_requested_ = true;
      return;
    }
    if (token.rfind("--", 0) != 0) {
      throw ArgsError("unexpected positional argument '" + token + "'");
    }
    std::string name = token;
    std::optional<std::string> inline_value;
    if (const auto eq = token.find('='); eq != std::string::npos) {
      name = token.substr(0, eq);
      inline_value = token.substr(eq + 1);
    }
    const Flag* flag = find(name);
    if (flag == nullptr) {
      std::string message = "unknown flag '" + name + "'";
      if (const std::string closest = suggest(name); !closest.empty()) {
        message += " (did you mean '" + closest + "'?)";
      }
      message += "; run with --help for the flag list";
      throw ArgsError(message);
    }
    if (flag->is_switch) {
      if (inline_value) throw ArgsError("switch '" + name + "' takes no value");
      values_[name] = "1";
      continue;
    }
    if (inline_value) {
      values_[name] = *inline_value;
      continue;
    }
    if (i + 1 >= argc) throw ArgsError("flag '" + name + "' needs a value");
    values_[name] = argv[++i];
  }
}

bool ArgParser::has(const std::string& name) const {
  if (values_.contains(name)) return true;
  const Flag* flag = find(name);
  return flag != nullptr && flag->default_value.has_value();
}

std::string ArgParser::get(const std::string& name) const {
  if (const auto it = values_.find(name); it != values_.end()) return it->second;
  const Flag* flag = find(name);
  if (flag == nullptr) throw ArgsError("flag '" + name + "' was never declared");
  if (flag->default_value) return *flag->default_value;
  throw ArgsError("required flag '" + name + "' missing");
}

double ArgParser::get_double(const std::string& name) const {
  const std::string text = get(name);
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    throw ArgsError("flag '" + name + "' expects a number, got '" + text + "'");
  }
  return value;
}

long ArgParser::get_int(const std::string& name) const {
  const std::string text = get(name);
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    throw ArgsError("flag '" + name + "' expects an integer, got '" + text + "'");
  }
  return value;
}

bool ArgParser::get_switch(const std::string& name) const {
  return values_.contains(name);
}

std::string ArgParser::usage() const {
  std::ostringstream out;
  out << program_ << " — " << description_ << "\n\nflags:\n";
  for (const auto& [name, flag] : declarations_) {
    out << "  " << name;
    if (!flag.is_switch) {
      out << " <value>";
      if (flag.default_value) out << " (default: " << *flag.default_value << ")";
    }
    out << "\n      " << flag.help << "\n";
  }
  out << "  --help\n      show this text\n";
  return out.str();
}

void add_jobs_flag(ArgParser& args) {
  args.add_flag("--jobs", "worker threads (0 = auto: $HEADTALK_JOBS or all cores)", "0");
}

unsigned jobs_from(const ArgParser& args) {
  const long requested = args.get_int("--jobs");
  if (requested < 0) throw ArgsError("--jobs must be >= 0");
  return util::resolve_jobs(static_cast<unsigned>(requested));
}

void add_obs_flags(ArgParser& args) {
  args.add_flag("--metrics-out", "write a JSON metrics dump to this file on exit", "");
  args.add_flag("--trace-out",
                "record spans and write Chrome trace-event JSON to this file on exit",
                "");
}

ObsSession::ObsSession(const ArgParser& args)
    : metrics_path_(args.get("--metrics-out")), trace_path_(args.get("--trace-out")) {
  if (!trace_path_.empty()) obs::set_tracing_enabled(true);
}

ObsSession::~ObsSession() {
  if (!trace_path_.empty()) {
    obs::set_tracing_enabled(false);
    if (obs::Tracer::global().write_chrome_trace_file(trace_path_)) {
      obs::log_info("obs.trace.written",
                    {{"path", trace_path_},
                     {"spans", obs::Tracer::global().span_count()},
                     {"dropped", obs::Tracer::global().dropped_count()}});
    }
  }
  if (!metrics_path_.empty()) {
    // The lossless snapshot form (obs/export.h), not the quantile dump:
    // a file written at exit and a live /metrics.json scrape are the same
    // bytes, so one reader handles both sources.
    if (obs::write_snapshot_json_file(metrics_path_, obs::snapshot())) {
      obs::log_info("obs.metrics.written", {{"path", metrics_path_}});
    }
  }
}

}  // namespace headtalk::cli
