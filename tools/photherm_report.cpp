/// photherm_report — the analysis half of the observability stack: turns
/// the artifacts photherm_cli and the bench binaries emit (metrics CSV,
/// Chrome trace-event JSON, Google-Benchmark-shaped JSON) into answers.
///
///   photherm_report summarize <metrics.csv|trace.json|bench.json> [--top N]
///       Roll-ups: manifest, non-zero counters with derived iters/solve,
///       timers sorted by total wall with p50/p90/p99, span roll-ups with
///       each span's self time (its duration minus its direct children's)
///       and the top-k scenarios by wall time (traces), benchmark entries
///       by real_time (bench JSON).
///   photherm_report diff <baseline> <candidate> [--gate RULES]
///       Delta table over the two artifacts' scalar values (metric totals
///       for metrics CSVs, per-benchmark numeric fields for bench JSONs).
///       Refuses to compare artifacts whose manifests disagree on
///       build_type (a debug baseline is useless as a perf anchor — exit
///       2). With --gate, the rules file classifies every value:
///       deterministic counters gate exactly, wall times within a relative
///       tolerance; any violation exits 1 (the CI perf-regression gate).
///       Under GitHub Actions (GITHUB_ACTIONS set) violations and warnings
///       are also emitted as ::error::/::warning:: annotations.
///   photherm_report convergence <trace.json> [-o FILE]
///       Rebuild per-solve convergence histories from the solver residual
///       counter events (photherm_cli play --convergence --trace ...) as an
///       exact CSV: solver, tid, solve ordinal, iteration, residual.
///
/// Gate rules file: one rule per line, first match wins, `*` wildcards:
///
///   # deterministic counters: any drift fails the build
///   exact solver.*.iterations
///   fail  */cells 0.0
///   warn  *.wall 0.5        # relative tolerance, violations warn only
///   ignore solver.*.relative_residual
///
/// Values matched by no rule are informational (shown, never gated).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "report/json.hpp"
#include "report/metrics_csv.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace {

using namespace photherm;
using report::JsonValue;

int usage(std::ostream& os, int exit_code) {
  os << "usage: photherm_report <command> [args]\n"
        "  summarize <metrics.csv|trace.json|bench.json> [--top N]\n"
        "                                         roll-ups and slowest spans\n"
        "  diff <baseline> <candidate> [--gate RULES]\n"
        "                                         delta table; --gate exits 1\n"
        "                                         on gated regressions\n"
        "  convergence <trace.json> [-o FILE]     per-solve residual CSV from\n"
        "                                         --convergence counter events\n"
        "Artifacts come from photherm_cli run|play --metrics/--trace and the\n"
        "bench binaries' --benchmark_format=json. diff refuses mismatched\n"
        "build types (regenerate the baseline instead). Exit codes: 0 ok,\n"
        "1 gated regression, 2 usage/error/build-type mismatch.\n";
  return exit_code;
}

// --- artifact loading ------------------------------------------------------

enum class ArtifactType { kMetrics, kBench, kTrace };

const char* artifact_type_name(ArtifactType type) {
  switch (type) {
    case ArtifactType::kMetrics:
      return "metrics CSV";
    case ArtifactType::kBench:
      return "bench JSON";
    default:
      return "trace JSON";
  }
}

struct Artifact {
  ArtifactType type = ArtifactType::kMetrics;
  std::string path;
  /// Provenance: metrics-CSV `# key=value` comments, bench-JSON context
  /// (with photherm_build_type/library_build_type folded to "build_type"),
  /// trace-JSON "manifest" object.
  std::map<std::string, std::string> manifest;
  /// The scalars `diff` compares: metric name -> total for metrics CSVs,
  /// "<benchmark>/<field>" for every numeric per-benchmark field of a
  /// bench JSON.
  std::map<std::string, double> values;
  std::map<std::string, report::MetricRow> metrics;  ///< metrics CSVs only
  JsonValue json;                                    ///< bench/trace only
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  PH_REQUIRE(in.good(), "cannot open artifact: " + path);
  std::ostringstream os;
  os << in.rdbuf();
  PH_REQUIRE(!in.bad(), "failed while reading artifact: " + path);
  return os.str();
}

void load_metrics_csv(Artifact& artifact, const std::string& content) {
  artifact.type = ArtifactType::kMetrics;
  report::MetricsCsv csv = report::parse_metrics_csv(content, artifact.path);
  artifact.manifest = std::move(csv.manifest);
  for (const auto& [name, row] : csv.metrics) {
    artifact.values[name] = row.total;
  }
  artifact.metrics = std::move(csv.metrics);
}

void load_bench_json(Artifact& artifact) {
  artifact.type = ArtifactType::kBench;
  if (const JsonValue* context = artifact.json.find("context")) {
    for (const auto& [key, value] : context->members) {
      if (value.kind == JsonValue::Kind::kString) {
        artifact.manifest[key] = value.text;
      } else if (value.kind == JsonValue::Kind::kNumber) {
        artifact.manifest[key] = format_shortest(value.number);
      } else if (value.kind == JsonValue::Kind::kBool) {
        artifact.manifest[key] = value.boolean ? "true" : "false";
      }
    }
    // Our bench binaries stamp the build type they were compiled at
    // (photherm_build_type); the library_build_type fallback is how a stock
    // google-benchmark reports its *own* build. Fold to one key so diff's
    // build-type refusal sees whichever is most truthful.
    const std::string own = artifact.manifest.count("photherm_build_type")
                                ? artifact.manifest.at("photherm_build_type")
                                : std::string();
    if (!own.empty()) {
      artifact.manifest["build_type"] = own;
    } else if (artifact.manifest.count("library_build_type")) {
      artifact.manifest["build_type"] = artifact.manifest.at("library_build_type");
    }
  }
  const JsonValue* benchmarks = artifact.json.find("benchmarks");
  PH_REQUIRE(benchmarks != nullptr && benchmarks->kind == JsonValue::Kind::kArray,
             artifact.path + ": bench JSON has no `benchmarks` array");
  // Structural gbench fields that describe the run layout rather than a
  // measurement; diffing them would only report that the file format grew.
  const std::vector<std::string> skip = {"family_index", "per_family_instance_index",
                                         "repetitions", "repetition_index", "threads"};
  for (const JsonValue& bench : benchmarks->items) {
    const std::string name = bench.text_or("name", "");
    PH_REQUIRE(!name.empty(), artifact.path + ": benchmark entry without a name");
    for (const auto& [key, value] : bench.members) {
      if (value.kind != JsonValue::Kind::kNumber) {
        continue;
      }
      bool skipped = false;
      for (const std::string& s : skip) {
        skipped = skipped || key == s;
      }
      if (!skipped) {
        artifact.values[name + "/" + key] = value.number;
      }
    }
  }
}

Artifact load_artifact(const std::string& path) {
  Artifact artifact;
  artifact.path = path;
  const std::string content = read_file(path);
  std::size_t first = 0;
  while (first < content.size() &&
         (content[first] == ' ' || content[first] == '\n' || content[first] == '\r' ||
          content[first] == '\t')) {
    ++first;
  }
  if (first < content.size() && content[first] == '{') {
    artifact.json = report::parse_json(content, path);
    if (artifact.json.find("traceEvents") != nullptr) {
      artifact.type = ArtifactType::kTrace;
      if (const JsonValue* manifest = artifact.json.find("manifest")) {
        for (const auto& [key, value] : manifest->members) {
          if (value.kind == JsonValue::Kind::kString) {
            artifact.manifest[key] = value.text;
          }
        }
      }
    } else {
      load_bench_json(artifact);
    }
    return artifact;
  }
  load_metrics_csv(artifact, content);
  return artifact;
}

// --- gate rules ------------------------------------------------------------

struct GateRule {
  enum class Action { kExact, kFail, kWarn, kIgnore };
  Action action = Action::kExact;
  std::string glob;
  double tolerance = 0.0;  ///< relative, for kFail/kWarn
};

/// `*`-wildcard match (two-pointer with star backtracking); no other
/// metacharacters.
bool glob_match(const std::string& pattern, const std::string& text) {
  std::size_t p = 0;
  std::size_t t = 0;
  std::size_t star = std::string::npos;
  std::size_t mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p;
      ++p;
      mark = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      ++mark;
      t = mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') {
    ++p;
  }
  return p == pattern.size();
}

std::vector<GateRule> load_gate_rules(const std::string& path) {
  std::ifstream in(path);
  PH_REQUIRE(in.good(), "cannot open gate rules file: " + path);
  std::vector<GateRule> rules;
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    const std::string line = trim(hash == std::string::npos ? raw : raw.substr(0, hash));
    if (line.empty()) {
      continue;
    }
    std::istringstream tokens(line);
    std::string action;
    GateRule rule;
    tokens >> action >> rule.glob;
    std::ostringstream context;
    context << path << ":" << line_no;
    PH_REQUIRE(!rule.glob.empty(), context.str() + ": rule needs `<action> <glob>`");
    if (action == "exact") {
      rule.action = GateRule::Action::kExact;
    } else if (action == "fail" || action == "warn") {
      rule.action = action == "fail" ? GateRule::Action::kFail : GateRule::Action::kWarn;
      std::string tol;
      tokens >> tol;
      PH_REQUIRE(!tol.empty(), context.str() + ": `" + action +
                                   "` needs a relative tolerance (e.g. `warn *.wall 0.5`)");
      rule.tolerance = parse_double(tol, context.str());
    } else if (action == "ignore") {
      rule.action = GateRule::Action::kIgnore;
    } else {
      PH_REQUIRE(false, context.str() + ": unknown action `" + action +
                            "` (expected exact|fail|warn|ignore)");
    }
    std::string excess;
    tokens >> excess;
    PH_REQUIRE(excess.empty(), context.str() + ": trailing tokens after the rule");
    rules.push_back(std::move(rule));
  }
  return rules;
}

const GateRule* match_rule(const std::vector<GateRule>& rules, const std::string& key) {
  for (const GateRule& rule : rules) {
    if (glob_match(rule.glob, key)) {
      return &rule;
    }
  }
  return nullptr;
}

// --- diff ------------------------------------------------------------------

int cmd_diff(const std::vector<std::string>& args) {
  std::vector<std::string> paths;
  std::optional<std::string> gate_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--gate") {
      PH_REQUIRE(i + 1 < args.size(), "--gate needs a rules file path");
      gate_path = args[++i];
    } else {
      paths.push_back(args[i]);
    }
  }
  PH_REQUIRE(paths.size() == 2, "diff takes exactly two artifact paths");

  const Artifact base = load_artifact(paths[0]);
  const Artifact cand = load_artifact(paths[1]);
  PH_REQUIRE(base.type != ArtifactType::kTrace && cand.type != ArtifactType::kTrace,
             "diff compares metrics CSVs or bench JSONs; trace spans carry no "
             "stable scalars (use `summarize` on traces)");
  PH_REQUIRE(base.type == cand.type,
             std::string("cannot diff a ") + artifact_type_name(base.type) +
                 " against a " + artifact_type_name(cand.type));

  // A debug-vs-release comparison is never a perf signal — refuse instead
  // of producing a plausible-looking table (exit 2, distinct from the
  // gate's exit 1).
  const auto base_bt = base.manifest.find("build_type");
  const auto cand_bt = cand.manifest.find("build_type");
  if (base_bt != base.manifest.end() && cand_bt != cand.manifest.end() &&
      base_bt->second != cand_bt->second) {
    std::cerr << "photherm_report: refusing to compare a `" << base_bt->second
              << "` baseline (" << base.path << ") against a `" << cand_bt->second
              << "` candidate (" << cand.path
              << "); regenerate the baseline from the same build type\n";
    return 2;
  }

  const std::vector<GateRule> rules =
      gate_path ? load_gate_rules(*gate_path) : std::vector<GateRule>{};

  // Manifest context first: the keys whose values changed between the runs.
  for (const auto& [key, value] : base.manifest) {
    const auto it = cand.manifest.find(key);
    if (it != cand.manifest.end() && it->second != value) {
      std::cout << "manifest: " << key << ": " << value << " -> " << it->second << "\n";
    }
  }

  std::map<std::string, char> keys;
  for (const auto& [key, value] : base.values) {
    keys[key] = 'b';
  }
  for (const auto& [key, value] : cand.values) {
    keys.try_emplace(key, 'c');
  }

  Table table({"value", "baseline", "candidate", "delta", "rel", "verdict"});
  table.set_exact();
  std::size_t compared = 0;
  std::size_t identical = 0;
  std::size_t changed = 0;
  std::size_t regressions = 0;
  std::size_t warnings = 0;
  std::vector<std::string> annotations;
  const bool github = std::getenv("GITHUB_ACTIONS") != nullptr;

  for (const auto& [key, origin] : keys) {
    const GateRule* rule = match_rule(rules, key);
    const GateRule::Action action =
        rule != nullptr ? rule->action : GateRule::Action::kIgnore;
    if (rule != nullptr && action == GateRule::Action::kIgnore) {
      continue;
    }
    const auto base_it = base.values.find(key);
    const auto cand_it = cand.values.find(key);
    if (base_it == base.values.end() || cand_it == cand.values.end()) {
      const bool in_base = base_it != base.values.end();
      const bool gated =
          action == GateRule::Action::kExact || action == GateRule::Action::kFail;
      const char* verdict = rule == nullptr ? "info" : gated ? "REGRESS" : "warn";
      table.add_row({key, in_base ? TableCell(base_it->second) : TableCell(std::string("-")),
                     in_base ? TableCell(std::string("-")) : TableCell(cand_it->second),
                     std::string("-"), std::string("-"), std::string(verdict)});
      if (rule != nullptr && gated) {
        ++regressions;
        std::ostringstream os;
        os << "::error::photherm_report: `" << key << "` present only in the "
           << (in_base ? "baseline" : "candidate");
        annotations.push_back(os.str());
      } else if (rule != nullptr) {
        ++warnings;
      }
      continue;
    }

    ++compared;
    const double b = base_it->second;
    const double c = cand_it->second;
    if (b == c) {
      ++identical;
      continue;
    }
    ++changed;
    const double delta = c - b;
    const bool has_rel = b != 0.0;
    const double rel = has_rel ? delta / std::abs(b) : 0.0;

    const char* verdict = "info";
    if (action == GateRule::Action::kExact) {
      verdict = "REGRESS";
      ++regressions;
      std::ostringstream os;
      os << "::error::photherm_report: `" << key << "` changed exactly-gated value: "
         << format_shortest(b) << " -> " << format_shortest(c);
      annotations.push_back(os.str());
    } else if (action == GateRule::Action::kFail || action == GateRule::Action::kWarn) {
      // NaN compares false against any tolerance, so a non-finite value on
      // either side violates the rule outright.
      const bool violated = !has_rel || !std::isfinite(b) || !std::isfinite(c) ||
                            std::abs(rel) > rule->tolerance;
      if (violated && action == GateRule::Action::kFail) {
        verdict = "REGRESS";
        ++regressions;
        std::ostringstream os;
        os << "::error::photherm_report: `" << key << "` drifted "
           << format_shortest(rel * 100.0) << "% (> " << format_shortest(rule->tolerance * 100.0)
           << "% tolerance): " << format_shortest(b) << " -> " << format_shortest(c);
        annotations.push_back(os.str());
      } else if (violated) {
        verdict = "warn";
        ++warnings;
        std::ostringstream os;
        os << "::warning::photherm_report: `" << key << "` drifted "
           << format_shortest(rel * 100.0) << "% (> " << format_shortest(rule->tolerance * 100.0)
           << "% tolerance): " << format_shortest(b) << " -> " << format_shortest(c);
        annotations.push_back(os.str());
      } else {
        verdict = "ok";
      }
    }
    table.add_row({key, b, c, delta,
                   has_rel ? TableCell(rel) : TableCell(std::string("-")),
                   std::string(verdict)});
  }

  if (table.row_count() > 0) {
    print_table(std::cout, "diff: " + base.path + " -> " + cand.path, table);
  }
  std::cout << "diff: compared " << compared << " values: " << identical << " identical, "
            << changed << " changed, " << warnings << " warnings, " << regressions
            << " regressions\n";
  if (github) {
    for (const std::string& annotation : annotations) {
      std::cout << annotation << "\n";
    }
  }
  return regressions > 0 ? 1 : 0;
}

// --- summarize -------------------------------------------------------------

/// Sorts (value, item) pairs largest value first and NaN last: a strict
/// weak ordering even when values are NaN, which `a.first > b.first` is
/// not, so std::sort stays defined on any artifact.
template <typename Item>
void sort_largest_first(std::vector<std::pair<double, Item>>& items) {
  std::sort(items.begin(), items.end(), [](const auto& a, const auto& b) {
    return !std::isnan(a.first) && (std::isnan(b.first) || a.first > b.first);
  });
}

void print_manifest(const std::map<std::string, std::string>& manifest) {
  if (manifest.empty()) {
    return;
  }
  std::cout << "manifest:\n";
  for (const auto& [key, value] : manifest) {
    std::cout << "  " << key << "=" << value << "\n";
  }
}

void summarize_metrics(const Artifact& artifact, std::size_t top) {
  print_manifest(artifact.manifest);

  Table counters({"counter", "count", "total"});
  counters.set_exact();
  std::size_t zero_counters = 0;
  for (const auto& [name, row] : artifact.metrics) {
    if (row.kind != "counter") {
      continue;
    }
    if (row.total == 0.0) {
      ++zero_counters;
      continue;
    }
    counters.add_row({name, row.count, row.total});
  }
  if (counters.row_count() > 0) {
    print_table(std::cout, "counters (non-zero)", counters);
  }
  if (zero_counters > 0) {
    std::cout << zero_counters << " counters at zero suppressed\n";
  }

  // Derived solver economics: the first question a report answers.
  const auto solves = artifact.metrics.find("solver.conjugate_gradient.solves");
  const auto iters = artifact.metrics.find("solver.conjugate_gradient.iterations");
  if (solves != artifact.metrics.end() && iters != artifact.metrics.end() &&
      solves->second.total > 0.0) {
    std::cout << "solver.conjugate_gradient: " << iters->second.total << " iterations / "
              << solves->second.total << " solves = "
              << iters->second.total / solves->second.total << " iters/solve\n";
  }

  // Timers by total wall, slowest first; durations are nanoseconds in the
  // CSV, shown in milliseconds.
  std::vector<std::pair<double, std::string>> by_total;
  for (const auto& [name, row] : artifact.metrics) {
    if (row.kind == "timer" && row.count > 0.0) {
      by_total.emplace_back(row.total, name);
    }
  }
  sort_largest_first(by_total);
  Table timers({"timer", "count", "total ms", "mean ms", "p50 ns", "p90 ns", "p99 ns"});
  for (std::size_t i = 0; i < by_total.size() && i < top; ++i) {
    const report::MetricRow& row = artifact.metrics.at(by_total[i].second);
    timers.add_row({by_total[i].second, row.count, row.total / 1e6,
                    row.total / 1e6 / row.count, row.p50, row.p90, row.p99});
  }
  if (timers.row_count() > 0) {
    print_table(std::cout, "timers by total wall", timers);
  }

  Table gauges({"gauge", "count", "mean", "min", "max"});
  for (const auto& [name, row] : artifact.metrics) {
    if (row.kind == "gauge" && row.count > 0.0) {
      gauges.add_row({name, row.count, row.total / row.count, row.min, row.max});
    }
  }
  if (gauges.row_count() > 0) {
    print_table(std::cout, "gauges", gauges);
  }
}

void summarize_trace(const Artifact& artifact, std::size_t top) {
  print_manifest(artifact.manifest);
  const JsonValue* events = artifact.json.find("traceEvents");
  PH_REQUIRE(events != nullptr && events->kind == JsonValue::Kind::kArray,
             artifact.path + ": trace has no traceEvents array");

  struct SpanStats {
    double count = 0.0;
    double total_us = 0.0;
    double self_ns = 0.0;
    double children_ns = 0.0;  ///< wall covered by direct children
    double max_us = 0.0;
  };
  /// One "X" event, timed in whole nanoseconds (the exporter writes
  /// integer-nanosecond times as microseconds). Whole numbers below 2^53
  /// add exactly in a double, so the nesting tests are exact, and a
  /// malformed time cannot overflow.
  struct Interval {
    double ts_ns = 0.0;
    double dur_ns = 0.0;
    SpanStats* stats = nullptr;
    double children_ns = 0.0;
  };
  std::map<std::string, SpanStats> spans;
  std::map<double, std::vector<Interval>> intervals_by_tid;
  std::map<std::string, double> scenarios;  ///< detail -> total us
  std::map<std::string, double> counter_samples;
  std::size_t instants = 0;
  for (const JsonValue& event : events->items) {
    const std::string ph = event.text_or("ph", "");
    const std::string name = event.text_or("name", "");
    if (ph == "X") {
      const double dur = event.number_or("dur", 0.0);
      SpanStats& stats = spans[name];
      stats.count += 1.0;
      stats.total_us += dur;
      stats.max_us = std::max(stats.max_us, dur);
      intervals_by_tid[event.number_or("tid", 0.0)].push_back(
          {std::round(event.number_or("ts", 0.0) * 1e3), std::round(dur * 1e3), &stats});
      if (const JsonValue* event_args = event.find("args")) {
        const std::string detail = event_args->text_or("detail", "");
        if (!detail.empty() && name.size() > 9 &&
            name.compare(name.size() - 9, 9, ".scenario") == 0) {
          scenarios[detail] += dur;
        }
      }
    } else if (ph == "C") {
      counter_samples[name] += 1.0;
    } else if (ph == "i") {
      ++instants;
    }
  }

  // Self time: a span's duration minus its direct children's. Spans nest
  // strictly within a thread, so once a thread's spans are sorted by start
  // (the longer first on a tie), each span's parent is the innermost span
  // still open when it starts.
  for (auto& [tid, intervals] : intervals_by_tid) {
    std::sort(intervals.begin(), intervals.end(), [](const Interval& a, const Interval& b) {
      return a.ts_ns != b.ts_ns ? a.ts_ns < b.ts_ns : a.dur_ns > b.dur_ns;
    });
    std::vector<Interval*> open;
    for (Interval& span : intervals) {
      while (!open.empty() && span.ts_ns >= open.back()->ts_ns + open.back()->dur_ns) {
        open.pop_back();
      }
      if (!open.empty()) {
        open.back()->children_ns += span.dur_ns;
      }
      open.push_back(&span);
    }
    for (const Interval& span : intervals) {
      span.stats->self_ns += span.dur_ns - span.children_ns;
      span.stats->children_ns += span.children_ns;
    }
  }

  std::vector<std::pair<double, std::string>> by_total;
  for (const auto& [name, stats] : spans) {
    by_total.emplace_back(stats.total_us, name);
  }
  sort_largest_first(by_total);
  // cover %: the share of a span's wall its direct children account for,
  // 100 x (total - self) / total in the same whole nanoseconds.
  Table span_table({"span", "count", "total ms", "self ms", "cover %", "mean ms", "max ms"});
  for (std::size_t i = 0; i < by_total.size() && i < top; ++i) {
    const SpanStats& stats = spans.at(by_total[i].second);
    const double wall_ns = stats.self_ns + stats.children_ns;
    const double cover = wall_ns > 0.0 ? 100.0 * stats.children_ns / wall_ns : 0.0;
    span_table.add_row({by_total[i].second, stats.count, stats.total_us / 1e3,
                        stats.self_ns / 1e6, cover, stats.total_us / 1e3 / stats.count,
                        stats.max_us / 1e3});
  }
  if (span_table.row_count() > 0) {
    print_table(std::cout, "spans by total wall", span_table);
  }

  std::vector<std::pair<double, std::string>> hot;
  for (const auto& [detail, total] : scenarios) {
    hot.emplace_back(total, detail);
  }
  sort_largest_first(hot);
  Table hot_table({"scenario", "wall ms"});
  for (std::size_t i = 0; i < hot.size() && i < top; ++i) {
    hot_table.add_row({hot[i].second, hot[i].first / 1e3});
  }
  if (hot_table.row_count() > 0) {
    print_table(std::cout, "top scenarios by wall", hot_table);
  }

  for (const auto& [name, samples] : counter_samples) {
    std::cout << "counter track `" << name << "`: " << samples
              << " samples (rebuild per-solve series with `photherm_report convergence`)\n";
  }
  if (instants > 0) {
    std::cout << instants << " instant events\n";
  }
}

void summarize_bench(const Artifact& artifact, std::size_t top) {
  print_manifest(artifact.manifest);
  const JsonValue* benchmarks = artifact.json.find("benchmarks");
  std::vector<std::pair<double, const JsonValue*>> by_time;
  for (const JsonValue& bench : benchmarks->items) {
    by_time.emplace_back(bench.number_or("real_time", 0.0), &bench);
  }
  sort_largest_first(by_time);
  Table table({"benchmark", "real_time", "cpu_time", "unit", "label"});
  for (std::size_t i = 0; i < by_time.size() && i < top; ++i) {
    const JsonValue& bench = *by_time[i].second;
    table.add_row({bench.text_or("name", ""), bench.number_or("real_time", 0.0),
                   bench.number_or("cpu_time", 0.0), bench.text_or("time_unit", ""),
                   bench.text_or("label", "")});
  }
  print_table(std::cout, "benchmarks by real_time", table);
  std::cout << benchmarks->items.size() << " benchmark entries\n";
}

int cmd_summarize(const std::vector<std::string>& args) {
  std::optional<std::string> path;
  std::size_t top = 10;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--top") {
      PH_REQUIRE(i + 1 < args.size(), "--top needs a count");
      top = static_cast<std::size_t>(parse_uint(args[++i], "--top"));
      PH_REQUIRE(top > 0, "--top must be positive");
    } else {
      PH_REQUIRE(!path, "summarize takes exactly one artifact path");
      path = args[i];
    }
  }
  PH_REQUIRE(path, "summarize needs an artifact path");
  const Artifact artifact = load_artifact(*path);
  switch (artifact.type) {
    case ArtifactType::kMetrics:
      summarize_metrics(artifact, top);
      break;
    case ArtifactType::kTrace:
      summarize_trace(artifact, top);
      break;
    case ArtifactType::kBench:
      summarize_bench(artifact, top);
      break;
  }
  return 0;
}

// --- convergence -----------------------------------------------------------

int cmd_convergence(const std::vector<std::string>& args) {
  std::optional<std::string> path;
  std::optional<std::string> out_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-o" || args[i] == "--out") {
      PH_REQUIRE(i + 1 < args.size(), args[i] + " needs a file path");
      out_path = args[++i];
    } else {
      PH_REQUIRE(!path, "convergence takes exactly one trace path");
      path = args[i];
    }
  }
  PH_REQUIRE(path, "convergence needs a trace.json path");
  const Artifact artifact = load_artifact(*path);
  PH_REQUIRE(artifact.type == ArtifactType::kTrace,
             *path + ": convergence needs a trace JSON (photherm_cli play "
                     "--convergence --trace FILE)");
  const JsonValue* events = artifact.json.find("traceEvents");

  // Counter events arrive grouped per thread in chronological order; a new
  // solve starts whenever the iteration ordinal resets on its
  // (solver, thread) track.
  struct TrackState {
    double last_iteration = -1.0;
    double solve = 0.0;
  };
  std::map<std::pair<std::string, double>, TrackState> tracks;
  Table table({"solver", "tid", "solve", "iteration", "residual"});
  table.set_exact();
  for (const JsonValue& event : events->items) {
    if (event.text_or("ph", "") != "C") {
      continue;
    }
    const JsonValue* event_args = event.find("args");
    if (event_args == nullptr) {
      continue;
    }
    const std::string name = event.text_or("name", "");
    const double tid = event.number_or("tid", 0.0);
    const double iteration = event_args->number_or("iteration", 0.0);
    const double residual = event_args->number_or("value", 0.0);
    TrackState& track = tracks[{name, tid}];
    if (iteration <= track.last_iteration) {
      track.solve += 1.0;
    }
    track.last_iteration = iteration;
    table.add_row({name, tid, track.solve, iteration, residual});
  }
  if (table.row_count() == 0) {
    std::cerr << "photherm_report: no counter events in " << *path
              << " (record them with photherm_cli play --convergence --trace FILE)\n";
  }
  if (out_path) {
    table.write_csv(*out_path);
    std::cerr << "wrote " << table.row_count() << " convergence rows to " << *out_path
              << "\n";
  } else {
    std::cout << table.to_csv();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty() || args[0] == "-h" || args[0] == "--help" || args[0] == "help") {
    return usage(args.empty() ? std::cerr : std::cout, args.empty() ? 2 : 0);
  }
  const std::string command = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  try {
    if (command == "summarize") {
      return cmd_summarize(rest);
    }
    if (command == "diff") {
      return cmd_diff(rest);
    }
    if (command == "convergence") {
      return cmd_convergence(rest);
    }
    std::cerr << "photherm_report: unknown command `" << command << "`\n";
    return usage(std::cerr, 2);
  } catch (const photherm::Error& e) {
    std::cerr << "photherm_report: " << e.what() << "\n";
    return 2;
  }
}
