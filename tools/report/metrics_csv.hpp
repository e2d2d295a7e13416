/// \file metrics_csv.hpp
/// \brief The metrics-CSV reader behind photherm_report: the telemetry
/// export of `photherm_cli run|play --metrics`. A library of its own, like
/// the JSON reader, so the parser fuzz suite can drive it directly.
#pragma once

#include <map>
#include <string>

namespace photherm::report {

/// One metric row. `count` and `total` are numbers; the percentile and
/// range cells stay as written (they may be empty).
struct MetricRow {
  std::string kind;
  double count = 0.0;
  double total = 0.0;
  std::string min, max, p50, p90, p99;
};

/// A parsed metrics CSV: the `# key=value` manifest comments and the rows
/// by metric name (a repeated name keeps its last row).
struct MetricsCsv {
  std::map<std::string, std::string> manifest;
  std::map<std::string, MetricRow> metrics;
};

/// Parse `text` as a metrics CSV: comment lines, a header whose first cell
/// is `metric`, then one row per metric, its cells found by header name.
/// A `count` or `total` cell must be a decimal number in parse_json's
/// grammar or exactly one of the non-finite spellings the exporter writes
/// (`nan`, `-nan`, `inf`, `-inf`). Anything else — `0x10`, `infinity`,
/// `+1`, an empty cell — throws photherm::Error naming `context`, the
/// metric and the column.
MetricsCsv parse_metrics_csv(const std::string& text, const std::string& context);

}  // namespace photherm::report
