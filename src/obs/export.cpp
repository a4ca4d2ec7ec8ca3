#include "obs/export.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/log.h"
#include "util/json.h"

namespace headtalk::obs {
namespace {

/// Shortest round-trip decimal: try %g (compact: "0.1", "1e-05"), fall
/// back to %.17g when 6 significant digits would lose information. Keeps
/// the exposition readable *and* lossless, and gives tests a deterministic
/// expected text.
std::string fmt_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%g", value);
  if (std::strtod(buffer, nullptr) != value) {
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
  }
  return buffer;
}

/// JSON forbids NaN/Infinity; a poisoned gauge must not make the whole
/// snapshot unparseable.
double json_safe(double value) { return std::isfinite(value) ? value : 0.0; }

HistogramSnapshot snapshot_histogram(const Histogram& histogram) {
  HistogramSnapshot out;
  out.bounds = histogram.bounds();
  out.buckets = histogram.bucket_counts();
  // Readers race writers (relaxed atomics): derive count from the buckets
  // we actually copied so `sum(buckets) == count` holds inside a snapshot.
  out.count = 0;
  for (const auto c : out.buckets) out.count += c;
  out.sum = histogram.sum();
  return out;
}

const util::JsonValue& require(const util::JsonValue& object, std::string_view key) {
  const util::JsonValue* value = object.find(key);
  if (value == nullptr) {
    throw std::invalid_argument("metrics snapshot: missing key '" + std::string(key) +
                                "'");
  }
  return *value;
}

std::uint64_t as_u64(const util::JsonValue& value) {
  const double number = value.as_number();
  if (number < 0.0) throw std::invalid_argument("metrics snapshot: negative count");
  return static_cast<std::uint64_t>(number);
}

}  // namespace

MetricsSnapshot snapshot(const Registry& registry) {
  MetricsSnapshot out;
  registry.visit(
      [&](const std::string& name, const Counter& counter) {
        out.counters.emplace(name, counter.value());
      },
      [&](const std::string& name, const Gauge& gauge) {
        out.gauges.emplace(name, gauge.value());
      },
      [&](const std::string& name, const Histogram& histogram) {
        out.histograms.emplace(name, snapshot_histogram(histogram));
      });
  return out;
}

double snapshot_quantile(const HistogramSnapshot& histogram, double q) {
  std::uint64_t total = 0;
  for (const auto c : histogram.buckets) total += c;
  if (total == 0) return 0.0;
  const double rank =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < histogram.buckets.size(); ++i) {
    const auto in_bucket = static_cast<double>(histogram.buckets[i]);
    if (cumulative + in_bucket < rank) {
      cumulative += in_bucket;
      continue;
    }
    if (i >= histogram.bounds.size()) return histogram.bounds.back();
    const double lower = i == 0 ? 0.0 : histogram.bounds[i - 1];
    const double upper = histogram.bounds[i];
    const double fraction = in_bucket == 0.0 ? 1.0 : (rank - cumulative) / in_bucket;
    return lower + fraction * (upper - lower);
  }
  return histogram.bounds.empty() ? 0.0 : histogram.bounds.back();
}

std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void write_prometheus(std::ostream& out, const MetricsSnapshot& snapshot) {
  for (const auto& [name, value] : snapshot.counters) {
    const std::string metric = prometheus_name(name);
    out << "# TYPE " << metric << " counter\n" << metric << ' ' << value << '\n';
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string metric = prometheus_name(name);
    out << "# TYPE " << metric << " gauge\n"
        << metric << ' ' << fmt_double(value) << '\n';
  }
  for (const auto& [name, histogram] : snapshot.histograms) {
    const std::string metric = prometheus_name(name);
    out << "# TYPE " << metric << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < histogram.bounds.size(); ++i) {
      cumulative += i < histogram.buckets.size() ? histogram.buckets[i] : 0;
      out << metric << "_bucket{le=\"" << fmt_double(histogram.bounds[i]) << "\"} "
          << cumulative << '\n';
    }
    if (!histogram.buckets.empty()) cumulative += histogram.buckets.back();
    out << metric << "_bucket{le=\"+Inf\"} " << cumulative << '\n'
        << metric << "_sum " << fmt_double(histogram.sum) << '\n'
        << metric << "_count " << cumulative << '\n';
  }
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  write_prometheus(out, snapshot);
  return out.str();
}

void write_snapshot_json(std::ostream& out, const MetricsSnapshot& snapshot) {
  out << "{\"snapshot_version\":1,\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out << (first ? "" : ",") << '"' << util::json_escape(name) << "\":" << value;
    first = false;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out << (first ? "" : ",") << '"' << util::json_escape(name)
        << "\":" << fmt_double(json_safe(value));
    first = false;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : snapshot.histograms) {
    out << (first ? "" : ",") << '"' << util::json_escape(name) << "\":{\"bounds\":[";
    for (std::size_t i = 0; i < histogram.bounds.size(); ++i) {
      out << (i == 0 ? "" : ",") << fmt_double(histogram.bounds[i]);
    }
    out << "],\"buckets\":[";
    for (std::size_t i = 0; i < histogram.buckets.size(); ++i) {
      out << (i == 0 ? "" : ",") << histogram.buckets[i];
    }
    out << "],\"count\":" << histogram.count
        << ",\"sum\":" << fmt_double(json_safe(histogram.sum)) << '}';
    first = false;
  }
  out << "}}";
}

std::string to_snapshot_json(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  write_snapshot_json(out, snapshot);
  return out.str();
}

bool write_snapshot_json_file(const std::filesystem::path& path,
                              const MetricsSnapshot& snapshot) {
  std::ofstream out(path);
  if (out) {
    write_snapshot_json(out, snapshot);
    out << '\n';
  }
  if (!out) {
    log_warn("obs.export.write_failed", {{"path", path.string()}});
    return false;
  }
  return true;
}

MetricsSnapshot parse_snapshot_json(std::string_view text) {
  const util::JsonValue root = util::JsonValue::parse(text);
  if (!root.is_object()) {
    throw std::invalid_argument("metrics snapshot: root must be an object");
  }
  MetricsSnapshot out;
  for (const auto& [name, value] : require(root, "counters").as_object()) {
    out.counters.emplace(name, as_u64(value));
  }
  for (const auto& [name, value] : require(root, "gauges").as_object()) {
    out.gauges.emplace(name, value.as_number());
  }
  for (const auto& [name, value] : require(root, "histograms").as_object()) {
    HistogramSnapshot histogram;
    for (const auto& bound : require(value, "bounds").as_array()) {
      histogram.bounds.push_back(bound.as_number());
    }
    for (const auto& bucket : require(value, "buckets").as_array()) {
      histogram.buckets.push_back(as_u64(bucket));
    }
    if (histogram.buckets.size() != histogram.bounds.size() + 1) {
      throw std::invalid_argument("metrics snapshot: histogram '" + name +
                                  "' needs bounds.size()+1 buckets");
    }
    histogram.count = as_u64(require(value, "count"));
    histogram.sum = require(value, "sum").as_number();
    out.histograms.emplace(name, std::move(histogram));
  }
  return out;
}

}  // namespace headtalk::obs
