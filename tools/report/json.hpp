/// \file json.hpp
/// \brief The JSON reader behind photherm_report: a recursive-descent
/// parser for the two JSON shapes the tool consumes (its own trace exports
/// and Google-Benchmark output). A library of its own so the parser fuzz
/// suite can drive it directly.
#pragma once

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

}  // namespace photherm::report
