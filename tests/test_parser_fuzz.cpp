/// Deterministic mutation fuzzing of the two text formats a user hands to
/// the CLI, scenario suites (scenario::parse_scenarios) and playback
/// checkpoints (timeline::parse_checkpoints), and of the bench and trace
/// JSON and the metrics CSVs photherm_report reads (report::parse_json,
/// report::parse_metrics_csv). Each mutant of a valid
/// serialized input must either parse or throw photherm::Error — never
/// crash, read out of bounds or throw anything else — and a mutant that
/// parses must reach a fixed point: serializing it, parsing that text and
/// serializing again gives the same text. Mutants come from a fixed Rng
/// seed, so every run replays the same corpus; the sanitizer CI jobs run
/// this file like any other test.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "report/json.hpp"
#include "report/metrics_csv.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "timeline/checkpoint.hpp"
#include "timeline/runner.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace photherm {
namespace {

/// Values that have broken parsers before or sit on a numeric edge: 2^32 + 1
/// (wrapped to 1 by an int cast), 2^64 (overflows a 64-bit integer),
/// negatives for counters, the largest doubles and their overflow, NaN,
/// infinities, underflow, hex floats and empties.
const std::vector<std::string>& hostile_values() {
  static const std::vector<std::string> values{
      "4294967297", "18446744073709551616", "9223372036854775808", "-1", "-0", "0",
      "1e308",      "-1e308",               "1e999",               "nan", "inf", "-inf",
      "1e-400",     "0x1p-1074",            "9007199254740993",    "",    " ",  "true",
      "1:1",        "0.5:-1",               "1e308:1, 1e308:1",    "x y"};
  return values;
}

std::size_t random_index(Rng& rng, std::size_t size) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(size) - 1));
}

/// Bytes a byte edit writes: the format's own punctuation, digits and
/// letters, whitespace, and a few that never belong in a text file.
char random_byte(Rng& rng) {
  static constexpr char kBytes[] = "0123456789.-+eExp=#:, \t\r\n\v\fabcnstuyz_\0\x7f\xff";
  const std::string_view alphabet(kBytes, sizeof(kBytes) - 1);  // keeps the NUL byte
  return alphabet[random_index(rng, alphabet.size())];
}

/// One to three edits of `text`, each picked by line so that the short
/// structural lines are hit as often as the long field vectors: a byte
/// edit, a deletion of up to 8 bytes, a truncation, a duplicated or
/// dropped line, or a hostile value in place of a value or one of its
/// tokens.
std::string mutate(const std::string& text, Rng& rng) {
  std::vector<std::string> lines = split(text, '\n');
  const int edits = rng.uniform_int(1, 3);
  for (int e = 0; e < edits && !lines.empty(); ++e) {
    std::string& line = lines[random_index(rng, lines.size())];
    switch (rng.uniform_int(0, 5)) {
      case 0:  // byte edit (an insertion on an empty line)
        if (line.empty()) {
          line.push_back(random_byte(rng));
        } else {
          line[random_index(rng, line.size())] = random_byte(rng);
        }
        break;
      case 1:  // delete up to 8 bytes
        if (!line.empty()) {
          const std::size_t at = random_index(rng, line.size());
          line.erase(at, static_cast<std::size_t>(rng.uniform_int(1, 8)));
        }
        break;
      case 2: {  // truncate the text inside this line
        const std::size_t keep = line.empty() ? 0 : random_index(rng, line.size());
        line.resize(keep);
        const std::size_t index = static_cast<std::size_t>(&line - lines.data());
        lines.resize(index + 1);
        return join(lines, "\n");
      }
      case 3: {  // duplicate a line to a random position
        const std::string copy = line;
        const auto at = static_cast<std::ptrdiff_t>(random_index(rng, lines.size()));
        lines.insert(lines.begin() + at, copy);
        break;
      }
      case 4: {  // drop a line
        const std::size_t index = static_cast<std::size_t>(&line - lines.data());
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(index));
        break;
      }
      default: {  // hostile value, whole or in place of one token
        const std::vector<std::string>& values = hostile_values();
        const std::string& hostile = values[random_index(rng, values.size())];
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos) {
          line += " " + hostile;
          break;
        }
        std::vector<std::string> tokens = split(line.substr(eq + 1), ' ');
        if (tokens.size() > 2 && rng.uniform_int(0, 1) == 1) {
          tokens[random_index(rng, tokens.size())] = hostile;
          line = line.substr(0, eq + 1) + join(tokens, " ");
        } else {
          line = line.substr(0, eq + 1) + " " + hostile;
        }
        break;
      }
    }
  }
  return join(lines, "\n");
}

/// The first 400 bytes of a mutant, for a failure message.
std::string excerpt(const std::string& text) {
  return text.size() <= 400 ? text : text.substr(0, 400) + "...";
}

struct FuzzCounts {
  std::size_t parsed = 0;
  std::size_t rejected = 0;
};

/// Feed `count` mutants of `seed_text` to `parse`. A photherm::Error from
/// it is a rejected mutant. Anything else that escapes, a parsed mutant
/// that does not serialize, or a serialization that changes on a second
/// serialize -> parse -> serialize pass fails the test.
template <typename Parse, typename Serialize>
FuzzCounts fuzz(const std::string& seed_text, std::size_t count, std::uint64_t seed,
                const Parse& parse, const Serialize& serialize) {
  Rng rng(seed);
  FuzzCounts counts;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string mutant = mutate(seed_text, rng);
    std::optional<decltype(parse(mutant))> parsed;
    try {
      parsed = parse(mutant);
    } catch (const Error&) {
      ++counts.rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw a non-photherm exception: " << e.what()
                    << "\n" << excerpt(mutant);
      continue;
    }
    ++counts.parsed;
    try {
      const std::string once = serialize(*parsed);
      const std::string twice = serialize(parse(once));
      EXPECT_EQ(once, twice) << "mutant " << i << " is not a serialization fixed point:\n"
                             << excerpt(mutant);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " parsed, but its serialization does not round-trip: "
                    << e.what() << "\n" << excerpt(mutant);
    }
  }
  return counts;
}

TEST(ParserFuzz, ScenarioMutantsParseOrThrowAndReachAFixedPoint) {
  const std::string text = scenario::serialize_scenarios(scenario::builtin_suite("corners"));
  const auto parse = [](const std::string& t) { return scenario::parse_scenarios(t); };
  const auto serialize = [](const std::vector<scenario::ScenarioSpec>& s) {
    return scenario::serialize_scenarios(s);
  };
  ASSERT_EQ(serialize(parse(text)), text);

  const FuzzCounts counts = fuzz(text, 4000, 0x5ce7a210, parse, serialize);
  // Both outcomes must be common, or the corpus tests only one of them.
  EXPECT_GT(counts.parsed, 400u);
  EXPECT_GT(counts.rejected, 400u);
}

TEST(ParserFuzz, CheckpointMutantsParseOrThrowAndReachAFixedPoint) {
  // Two playbacks of builtin:transient paused after 3 steps: every key, the
  // repeated history and row lines, and a second `playback` section, in a
  // text short enough to parse a few hundred times per second.
  std::vector<scenario::ScenarioSpec> suite = scenario::builtin_suite("transient");
  ASSERT_GE(suite.size(), 2u);
  suite.resize(2);
  timeline::TimelineBatchOptions options;
  options.pause_after_steps = 3;
  const timeline::TimelineBatchResult paused = timeline::TimelineRunner(options).run(suite);
  ASSERT_EQ(paused.checkpoints.size(), 2u);
  const std::string text = timeline::serialize_checkpoints(paused.checkpoints);
  const auto parse = [](const std::string& t) { return timeline::parse_checkpoints(t); };
  const auto serialize = [](const std::vector<timeline::PlaybackCheckpoint>& c) {
    return timeline::serialize_checkpoints(c);
  };
  ASSERT_EQ(serialize(parse(text)), text);

  const FuzzCounts counts = fuzz(text, 400, 0xc4ec4b01, parse, serialize);
  EXPECT_GT(counts.parsed, 40u);
  EXPECT_GT(counts.rejected, 40u);
}

/// JSON text of a parsed value, numbers in format_shortest: the reader's
/// inverse, so a parsed mutant can be checked for a fixed point.
std::string write_json(const report::JsonValue& value) {
  using Kind = report::JsonValue::Kind;
  const auto quote = [](const std::string& text) {
    std::string out = "\"";
    for (const char ch : text) {
      if (ch == '"' || ch == '\\') {
        out.push_back('\\');
      }
      out.push_back(ch);
    }
    return out + "\"";
  };
  switch (value.kind) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return value.boolean ? "true" : "false";
    case Kind::kNumber:
      return format_shortest(value.number);
    case Kind::kString:
      return quote(value.text);
    case Kind::kArray: {
      std::vector<std::string> items;
      for (const report::JsonValue& item : value.items) {
        items.push_back(write_json(item));
      }
      return std::string("[").append(join(items, ",")).append("]");
    }
    case Kind::kObject: {
      std::vector<std::string> members;
      for (const auto& [key, member] : value.members) {
        members.push_back(quote(key) + ":" + write_json(member));
      }
      return std::string("{").append(join(members, ",")).append("}");
    }
  }
  return "";
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ParserFuzz, ReportJsonMutantsParseOrThrowAndReachAFixedPoint) {
  const auto parse = [](const std::string& t) { return report::parse_json(t, "mutant"); };
  // The committed solver bench baseline (Google-Benchmark shape) and the
  // hand-written trace photherm_report_smoke summarizes.
  const struct {
    const char* path;
    std::uint64_t seed;
  } corpora[] = {{"/../BENCH_solver.json", 0x6be4c501},
                 {"/report/self_time_trace.json", 0x7ace1d02}};
  for (const auto& corpus : corpora) {
    SCOPED_TRACE(corpus.path);
    const std::string text = read_text(std::string(PHOTHERM_TESTS_DIR) + corpus.path);
    ASSERT_FALSE(text.empty());
    const std::string written = write_json(parse(text));
    ASSERT_EQ(write_json(parse(written)), written);

    const FuzzCounts counts = fuzz(text, 2000, corpus.seed, parse, write_json);
    EXPECT_GT(counts.parsed, 200u);
    EXPECT_GT(counts.rejected, 200u);
  }
}

/// Metrics-CSV text of a parsed artifact, numbers in format_shortest: the
/// reader's inverse, so a parsed mutant can be checked for a fixed point.
std::string write_metrics_csv(const report::MetricsCsv& csv) {
  std::string out;
  for (const auto& [key, value] : csv.manifest) {
    out.append("# ").append(key).append("=").append(value).append("\n");
  }
  out += "metric,kind,count,total,min,max,p50,p90,p99\n";
  for (const auto& [name, row] : csv.metrics) {
    out += join({name, row.kind, format_shortest(row.count), format_shortest(row.total), row.min,
                 row.max, row.p50, row.p90, row.p99},
                ",");
    out += "\n";
  }
  return out;
}

TEST(ParserFuzz, MetricsCsvMutantsParseOrThrowAndReachAFixedPoint) {
  const auto parse = [](const std::string& t) { return report::parse_metrics_csv(t, "mutant"); };
  // The committed gate fixture: a manifest block, counters, timers and a
  // gauge with percentile cells.
  const std::string text =
      read_text(std::string(PHOTHERM_TESTS_DIR) + "/report/baseline_metrics.csv");
  ASSERT_FALSE(text.empty());
  const std::string written = write_metrics_csv(parse(text));
  ASSERT_EQ(write_metrics_csv(parse(written)), written);

  const FuzzCounts counts = fuzz(text, 2000, 0x3e7c5c03, parse, write_metrics_csv);
  EXPECT_GT(counts.parsed, 200u);
  EXPECT_GT(counts.rejected, 200u);
}

}  // namespace
}  // namespace photherm
