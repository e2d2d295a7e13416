#include <sys/resource.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"
#include "util/telemetry.hpp"

namespace e2ebench {

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::uint64_t Draw::next() {
  state_ += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Draw::rounded(double lo, double hi, double step) {
  const double unit = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return std::round((lo + unit * (hi - lo)) / step) * step;
}

bool Ledger::record(bool ok, std::size_t ops, const std::string& what) {
  attempted_ += ops;
  if (!ok) {
    failed_ += ops;
    if (failures_.size() < 20) {
      failures_.push_back(what);
    }
  }
  return ok;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer), index_(tracer.spans_.size()) {
  Span span;
  span.name = name;
  span.id = static_cast<int>(index_);
  span.parent = tracer.open_.empty() ? -1 : static_cast<int>(tracer.open_.back());
  span.rep = tracer.rep_;
  tracer.spans_.push_back(std::move(span));
  tracer.open_.push_back(index_);
  // Last, so the bookkeeping above stays outside the measured interval.
  tracer.spans_[index_].start_ns = tracer.now_ns();
}

Tracer::Scope::~Scope() {
  tracer_.spans_[index_].end_ns = tracer_.now_ns();
  tracer_.open_.pop_back();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
}

namespace {

double span_seconds(const Span& s) { return static_cast<double>(s.end_ns - s.start_ns) * 1e-9; }

/// Seconds of each span covered by its direct children (siblings never
/// overlap: the recorder is serial).
std::vector<double> child_seconds(const std::vector<Span>& spans) {
  std::vector<double> covered(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      covered[static_cast<std::size_t>(s.parent)] += span_seconds(s);
    }
  }
  return covered;
}

}  // namespace

std::map<std::string, LayerStats> layer_stats(const std::vector<Span>& spans) {
  const std::vector<double> covered = child_seconds(spans);
  std::map<std::string, LayerStats> layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerStats& layer = layers[spans[i].name];
    const double dur = span_seconds(spans[i]);
    layer.calls += 1;
    layer.total_s += dur;
    layer.self_s += dur - covered[i];
    layer.durations_s.push_back(dur);
  }
  return layers;
}

std::vector<double> rep_coverage(const std::vector<Span>& spans) {
  const std::vector<double> covered = child_seconds(spans);
  std::vector<double> coverage;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == kRepSpan) {
      const double dur = span_seconds(spans[i]);
      coverage.push_back(dur > 0.0 ? covered[i] / dur : 0.0);
    }
  }
  return coverage;
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::vector<std::pair<std::string, std::string>>& manifest) {
  std::ofstream out(path);
  PH_REQUIRE(out.good(), "cannot open trace output file: " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"manifest\":{";
  for (std::size_t i = 0; i < manifest.size(); ++i) {
    // Manifest values are plain identifiers and version strings.
    out << (i == 0 ? "" : ",") << "\"" << manifest[i].first << "\":\"" << manifest[i].second
        << "\"";
  }
  out << "},\"traceEvents\":[\n"
      << " {\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"e2ebench layer walk\"}}";
  const auto us = [](std::int64_t ns) {
    return photherm::format_shortest(static_cast<double>(ns) / 1e3);
  };
  for (const Span& s : spans) {
    out << ",\n {\"ph\":\"X\",\"name\":\"" << s.name << "\",\"pid\":1,\"tid\":1,\"ts\":"
        << us(s.start_ns) << ",\"dur\":" << us(s.end_ns - s.start_ns) << ",\"args\":{\"id\":"
        << s.id << ",\"parent\":" << s.parent << ",\"rep\":" << s.rep << "}}";
  }
  out << "\n]}\n";
  out.flush();
  PH_REQUIRE(out.good(), "failed while writing trace output file: " + path);
}

double ProgramTelemetry::total(const std::string& name) const {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second;
}

double ProgramTelemetry::span_seconds(const std::string& name) const {
  const auto it = span_s.find(name);
  return it == span_s.end() ? 0.0 : it->second;
}

ProgramTelemetry read_program_telemetry() {
  ProgramTelemetry read;
  // Metrics CSV rows: metric,kind,count,total,min,max,p50,p90,p99.
  std::istringstream csv(photherm::telemetry::metrics_table().to_csv());
  std::string line;
  std::getline(csv, line);  // header
  while (std::getline(csv, line)) {
    const std::vector<std::string> cells = photherm::split(line, ',');
    if (cells.size() >= 4 && !cells[3].empty()) {
      read.totals[cells[0]] = std::stod(cells[3]);
    }
  }
  // trace_json() writes one event per line; only complete ("X") spans count.
  std::istringstream json(photherm::telemetry::trace_json());
  const std::string name_key = "\"name\":\"";
  const std::string dur_key = "\"dur\":";
  while (std::getline(json, line)) {
    if (line.find("\"ph\":\"X\"") == std::string::npos) {
      continue;
    }
    const std::size_t n = line.find(name_key);
    const std::size_t d = line.find(dur_key);
    if (n == std::string::npos || d == std::string::npos) {
      continue;
    }
    const std::size_t begin = n + name_key.size();
    const std::string name = line.substr(begin, line.find('"', begin) - begin);
    read.span_s[name] += std::stod(line.substr(d + dur_key.size())) * 1e-6;
  }
  return read;
}

}  // namespace e2ebench
