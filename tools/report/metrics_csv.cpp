#include "report/metrics_csv.hpp"

#include <cstdlib>
#include <utility>
#include <vector>

#include "report/json.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace photherm::report {

namespace {

double parse_number_cell(const std::string& cell, const std::string& where) {
  const std::string text = trim(cell);
  const bool non_finite = text == "nan" || text == "-nan" || text == "inf" || text == "-inf";
  const DecimalScan scan = scan_decimal(text, 0);
  PH_REQUIRE(non_finite || (scan.error == nullptr && scan.end == text.size()),
             where + ": expected a decimal number, nan, -nan, inf or -inf, got `" + cell + "`");
  return std::strtod(text.c_str(), nullptr);
}

}  // namespace

MetricsCsv parse_metrics_csv(const std::string& text, const std::string& context) {
  MetricsCsv csv;
  std::map<std::string, std::size_t> columns;
  for (const std::string& raw_line : split(text, '\n')) {
    const std::string line = trim(raw_line);
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      // Manifest comment block: `# key=value` (the `# photherm-manifest v1`
      // marker has no `=` and is skipped).
      const std::size_t eq = line.find('=');
      if (eq != std::string::npos) {
        csv.manifest[trim(line.substr(1, eq - 1))] = trim(line.substr(eq + 1));
      }
      continue;
    }
    const std::vector<std::string> cells = split(line, ',');
    if (columns.empty()) {
      PH_REQUIRE(!cells.empty() && cells[0] == "metric",
                 context + ": not a photherm metrics CSV (header must start with `metric`)");
      for (std::size_t i = 0; i < cells.size(); ++i) {
        columns[cells[i]] = i;
      }
      continue;
    }
    const auto cell_text = [&](const char* column) -> std::string {
      const auto it = columns.find(column);
      return it != columns.end() && it->second < cells.size() ? cells[it->second]
                                                              : std::string();
    };
    const auto number = [&](const char* column) {
      return parse_number_cell(cell_text(column), context + ": metric `" + cells[0] +
                                                      "`, column `" + column + "`");
    };
    MetricRow row;
    row.kind = cell_text("kind");
    row.count = number("count");
    row.total = number("total");
    row.min = cell_text("min");
    row.max = cell_text("max");
    row.p50 = cell_text("p50");
    row.p90 = cell_text("p90");
    row.p99 = cell_text("p99");
    csv.metrics[cells[0]] = std::move(row);
  }
  PH_REQUIRE(!columns.empty(), context + ": no metrics header found");
  return csv;
}

}  // namespace photherm::report
