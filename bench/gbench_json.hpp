/// \file gbench_json.hpp
/// \brief Google-Benchmark-shaped JSON for the plain bench binaries
/// (`--benchmark_format=json`): a `context` object and a `benchmarks` array
/// with one single-iteration entry per run, its wall time and its user
/// counters, so photherm_report can diff these binaries' output like the
/// real gbench ones and the CI gate can pin their deterministic counters.
#pragma once

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/string_util.hpp"

namespace photherm::bench {

/// One `benchmarks` entry: a run's name, its wall time, and its user
/// counters in output order.
struct GbenchEntry {
  std::string name;
  double seconds = 0.0;
  std::vector<std::pair<std::string, double>> counters;
};

/// Write `entries` as one gbench-shaped document. photherm_build_type is
/// the build type of *this* binary (what photherm_report's diff uses to
/// refuse debug-vs-release comparisons), as opposed to gbench's
/// library_build_type, which reports the benchmark library's own build.
inline void write_gbench_json(std::ostream& os, const std::string& executable,
                              const std::vector<GbenchEntry>& entries) {
  os << "{\n  \"context\": {\n"
     << "    \"executable\": \"" << executable << "\",\n"
#ifdef NDEBUG
     << "    \"photherm_build_type\": \"release\"\n"
#else
     << "    \"photherm_build_type\": \"debug\"\n"
#endif
     << "  },\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const GbenchEntry& entry = entries[i];
    os << "    {\n"
       << "      \"name\": \"" << entry.name << "\",\n"
       << "      \"run_name\": \"" << entry.name << "\",\n"
       << "      \"run_type\": \"iteration\",\n"
       << "      \"repetitions\": 1,\n"
       << "      \"iterations\": 1,\n"
       << "      \"real_time\": " << format_shortest(entry.seconds) << ",\n"
       << "      \"cpu_time\": " << format_shortest(entry.seconds) << ",\n"
       << "      \"time_unit\": \"s\"";
    for (const auto& [counter, value] : entry.counters) {
      os << ",\n      \"" << counter << "\": " << format_shortest(value);
    }
    os << "\n    }" << (i + 1 == entries.size() ? "\n" : ",\n");
  }
  os << "  ]\n}\n";
}

}  // namespace photherm::bench
