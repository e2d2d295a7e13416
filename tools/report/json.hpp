/// \file json.hpp
/// \brief The JSON reader behind photherm_report: a recursive-descent
/// parser for the two JSON shapes the tool consumes (its own trace exports
/// and Google-Benchmark output). A library of its own so the parser fuzz
/// suite can drive it directly.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace photherm::report {

/// One parsed JSON value. Object members keep insertion order.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  /// The member named `key`, or nullptr.
  const JsonValue* find(const std::string& key) const;
  double number_or(const std::string& key, double fallback) const;
  std::string text_or(const std::string& key, const std::string& fallback) const;
};

/// Parse `text` as one JSON value. Numbers follow the JSON grammar
/// (RFC 8259 §6) and convert with strtod, so util::format_shortest values
/// round-trip to identical doubles. The non-finite spellings the emitters
/// write are numbers too: `inf`, `-inf`, `nan` and `-nan`
/// (util::format_shortest) and `NaN`, `Infinity` and `-Infinity` (Google
/// Benchmark, Python's json). Anything else — `0x10`, `+1`, `.5`, `1.`,
/// `01`, `infinity`, nesting deeper than 256 levels — throws photherm::Error
/// naming `context` and the byte offset.
JsonValue parse_json(const std::string& text, const std::string& context);

/// Where a finite number of parse_json's grammar,
/// -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?, starting at a
/// byte offset ends: `end` is the offset after it, or where it breaks with
/// `error` saying why (nullptr for a number). The metrics-CSV reader
/// shares the grammar through this.
struct DecimalScan {
  std::size_t end = 0;
  const char* error = nullptr;
};
DecimalScan scan_decimal(const std::string& text, std::size_t pos);

}  // namespace photherm::report
