#include "util/telemetry.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "support/fixtures.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"

namespace photherm::telemetry {
namespace {

/// Every test starts from a blank slate and leaves telemetry disabled so
/// the other suites in this binary (and their physics assertions) never see
/// a recording session bleed through.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    reset();
  }
  void TearDown() override {
    set_enabled(false);
    reset();
  }
};

/// One parsed "X"/"i" trace event. parse_events deliberately re-parses the
/// JSON with a regex over the emitted shape: the test asserting
/// well-formedness must not reuse the emitter's own serializer.
struct ParsedEvent {
  std::string ph;
  std::string name;
  int tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;  ///< 0 for instant events
  int depth = -1;       ///< -1 when absent (instant events)
};

std::vector<ParsedEvent> parse_events(const std::string& json) {
  // One event object per line (the emitter writes them that way); match the
  // fields the assertions need.
  static const std::regex complete_re(
      "\\{\"ph\":\"X\",\"name\":\"([^\"]*)\",\"pid\":1,\"tid\":([0-9]+),"
      "\"ts\":([-0-9.e+]+),\"dur\":([-0-9.e+]+),\"args\":\\{\"depth\":([0-9]+)");
  static const std::regex instant_re(
      "\\{\"ph\":\"i\",\"name\":\"([^\"]*)\",\"pid\":1,\"tid\":([0-9]+),"
      "\"ts\":([-0-9.e+]+),\"s\":\"t\"\\}");
  std::vector<ParsedEvent> events;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    std::smatch m;
    if (std::regex_search(line, m, complete_re)) {
      events.push_back({"X", m[1], std::stoi(m[2]), std::stod(m[3]), std::stod(m[4]),
                        std::stoi(m[5])});
    } else if (std::regex_search(line, m, instant_re)) {
      events.push_back({"i", m[1], std::stoi(m[2]), std::stod(m[3]), 0.0, -1});
    }
  }
  return events;
}

/// Structural well-formedness without a JSON library: balanced braces and
/// brackets outside strings, no trailing comma before a closer.
void check_json_well_formed(const std::string& json) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  bool escaped = false;
  char last_significant = '\0';
  for (char ch : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (ch == '\\') {
        escaped = true;
      } else if (ch == '"') {
        in_string = false;
        last_significant = '"';
      }
      continue;
    }
    switch (ch) {
      case '"':
        in_string = true;
        break;
      case '{':
        ++braces;
        break;
      case '}':
        --braces;
        ASSERT_NE(last_significant, ',') << "trailing comma before }";
        break;
      case '[':
        ++brackets;
        break;
      case ']':
        --brackets;
        ASSERT_NE(last_significant, ',') << "trailing comma before ]";
        break;
      default:
        break;
    }
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
    if (!std::isspace(static_cast<unsigned char>(ch))) {
      last_significant = ch;
    }
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

// The catalog is held by the type system: a misspelled ID is no
// enumerator, and each recording entry point accepts only its own kind.
template <typename Kind>
constexpr bool kDeclaresSpmvStencil = requires { Kind::kSpmvStencil; };
template <typename Kind>
constexpr bool kDeclaresSpmvStencl = requires { Kind::kSpmvStencl; };
static_assert(kDeclaresSpmvStencil<Counter>);
static_assert(!kDeclaresSpmvStencl<Counter>);
static_assert(!kDeclaresSpmvStencil<Timer>);

template <typename Id>
constexpr bool kCountable = requires(Id id) { count(id); };
template <typename Id>
constexpr bool kTimeable = requires(Id id) { ScopedTimer{id}; };
static_assert(kCountable<Counter> && !kCountable<Gauge> && !kCountable<Timer>);
static_assert(kTimeable<Timer> && !kTimeable<Counter> && !kTimeable<Gauge>);

/// Every declared metric as {name, kind}, expanded from the catalog lists.
std::vector<std::pair<std::string, std::string>> declared_metrics() {
#define PHOTHERM_TEST_COUNTER_ROW(id, name) {name, "counter"},
#define PHOTHERM_TEST_GAUGE_ROW(id, name) {name, "gauge"},
#define PHOTHERM_TEST_TIMER_ROW(id, name) {name, "timer"},
  // clang-format off
  return {PHOTHERM_TELEMETRY_COUNTERS(PHOTHERM_TEST_COUNTER_ROW)
          PHOTHERM_TELEMETRY_GAUGES(PHOTHERM_TEST_GAUGE_ROW)
          PHOTHERM_TELEMETRY_TIMERS(PHOTHERM_TEST_TIMER_ROW)};
  // clang-format on
#undef PHOTHERM_TEST_COUNTER_ROW
#undef PHOTHERM_TEST_GAUGE_ROW
#undef PHOTHERM_TEST_TIMER_ROW
}

std::map<std::string, std::vector<std::string>> metrics_by_name() {
  const Table table = metrics_table();
  const std::string csv = table.to_csv();
  std::map<std::string, std::vector<std::string>> rows;
  std::istringstream in(csv);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream cells_in(line);
    while (std::getline(cells_in, cell, ',')) {
      cells.push_back(cell);
    }
    cells.resize(9);  // empty trailing min/max/percentile cells
    rows[cells[0]] = cells;
  }
  return rows;
}

TEST_F(TelemetryTest, DisabledRecordsNothingAndEmitsValidJson) {
  ASSERT_FALSE(enabled());
  count(Counter::kCgIterations, 7);
  gauge(Gauge::kCgRelativeResidual, 1e-9);
  timer_add(Timer::kPoolQueueWait, 123);
  instant(Counter::kCheckpointPauses);
  {
    Span span("solver.conjugate_gradient");
    ScopedTimer wall(Timer::kPlaybackScenarioWall);
  }
  const auto rows = metrics_by_name();
  EXPECT_EQ(rows.size(), declared_metrics().size());
  for (const auto& [name, cells] : rows) {
    EXPECT_EQ(cells[2], "0") << name;
    EXPECT_EQ(cells[3], "0") << name;
  }
  const std::string json = trace_json();
  check_json_well_formed(json);
  EXPECT_TRUE(parse_events(json).empty());
}

TEST_F(TelemetryTest, EnableSeedsTheCatalogAtZero) {
  // Every declared metric exports exactly one row, at zero until recorded.
  set_enabled(true);
  const auto rows = metrics_by_name();
  ASSERT_EQ(rows.size(), declared_metrics().size());
  for (const auto& [name, kind] : declared_metrics()) {
    ASSERT_TRUE(rows.count(name)) << name;
    EXPECT_EQ(rows.at(name)[1], kind) << name;
    EXPECT_EQ(rows.at(name)[2], "0") << name;
    EXPECT_EQ(rows.at(name)[3], "0") << name;
  }
}

TEST_F(TelemetryTest, MetricsCsvGolden) {
  set_enabled(true);
  count(Counter::kBatchScenarios, 2);
  count(Counter::kBatchScenarios, 3);
  gauge(Gauge::kCgRelativeResidual, 2.5);
  gauge(Gauge::kCgRelativeResidual, -1.25);
  timer_add(Timer::kPoolQueueWait, 40);
  timer_add(Timer::kPoolQueueWait, 60);
  const std::string csv = metrics_table().to_csv();
  // The golden pins the exact-mode serialization contract: header shape,
  // lexicographic row order, counters with empty min/max, gauges carrying
  // per-observation extremes, timers in integer nanoseconds with
  // log2-histogram percentiles (40 and 60 ns both land in the [32,63]
  // bucket, whose inclusive upper bound 63 every percentile reports,
  // clamped to the largest observation, 60).
  EXPECT_NE(csv.find("metric,kind,count,total,min,max,p50,p90,p99\n"), std::string::npos);
  EXPECT_NE(csv.find("batch.scenarios,counter,2,5,,,,,\n"), std::string::npos);
  EXPECT_NE(csv.find("solver.conjugate_gradient.relative_residual,gauge,2,1.25,-1.25,2.5,,,\n"),
            std::string::npos);
  EXPECT_NE(csv.find("pool.queue_wait,timer,2,100,40,60,60,60,60\n"), std::string::npos);
  // Lexicographic order: the three recorded rows appear in name order.
  EXPECT_LT(csv.find("batch.scenarios"), csv.find("pool.queue_wait"));
  EXPECT_LT(csv.find("pool.queue_wait"), csv.find("solver.conjugate_gradient.relative_residual"));
  // And name order interleaves the kinds, whatever their declaration order.
  EXPECT_LT(csv.find("batch.scenario.wall"), csv.find("batch.scenarios"));
  EXPECT_LT(csv.find("playback.steps"), csv.find("pool.queue_wait"));
}

TEST_F(TelemetryTest, SpanNestingDepthAndContainment) {
  set_enabled(true);
  {
    Span outer("outer");
    {
      Span middle("middle");
      Span inner("inner");
    }
    Span sibling("sibling");
  }
  const std::string json = trace_json();
  check_json_well_formed(json);
  const auto events = parse_events(json);
  ASSERT_EQ(events.size(), 4u);
  // Spans close inner-first, so completion order is inner, middle,
  // sibling, outer.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "middle");
  EXPECT_EQ(events[2].name, "sibling");
  EXPECT_EQ(events[3].name, "outer");
  EXPECT_EQ(events[0].depth, 2);
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].depth, 1);
  EXPECT_EQ(events[3].depth, 0);
  // Containment: every child interval sits inside its parent's.
  const ParsedEvent& outer = events[3];
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(events[i].ts_us, outer.ts_us) << events[i].name;
    EXPECT_LE(events[i].ts_us + events[i].dur_us, outer.ts_us + outer.dur_us)
        << events[i].name;
  }
  EXPECT_GE(events[0].ts_us, events[1].ts_us);  // inner starts inside middle
  EXPECT_LE(events[0].ts_us + events[0].dur_us, events[1].ts_us + events[1].dur_us);
}

TEST_F(TelemetryTest, CountersAccumulateAcrossPoolWorkers) {
  set_enabled(true);
  constexpr std::size_t kChunks = 64;
  fixtures::ScopedConcurrency budget(4);
  util::parallel_for(kChunks, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      Span span("worker.chunk");
      count(Counter::kTransientSteps);
      gauge(Gauge::kCgRelativeResidual, static_cast<double>(i));
    }
  });
  const auto rows = metrics_by_name();
  const auto& steps = rows.at("transient.steps");
  EXPECT_EQ(steps[3], "64");
  const auto& value = rows.at("solver.conjugate_gradient.relative_residual");
  EXPECT_EQ(value[2], "64");
  EXPECT_EQ(value[4], "0");   // min over 0..63
  EXPECT_EQ(value[5], "63");  // max over 0..63
  const auto events = parse_events(trace_json());
  std::size_t spans = 0;
  for (const ParsedEvent& e : events) {
    spans += e.name == "worker.chunk" ? 1 : 0;
  }
  EXPECT_EQ(spans, kChunks);
}

TEST_F(TelemetryTest, InstantEventsBumpTheirCounter) {
  set_enabled(true);
  instant(Counter::kCheckpointPauses);
  instant(Counter::kCheckpointPauses);
  const auto rows = metrics_by_name();
  EXPECT_EQ(rows.at("checkpoint.pauses")[3], "2");
  const auto events = parse_events(trace_json());
  std::size_t instants = 0;
  for (const ParsedEvent& e : events) {
    if (e.ph == "i" && e.name == "checkpoint.pauses") {
      ++instants;
    }
  }
  EXPECT_EQ(instants, 2u);
}

TEST_F(TelemetryTest, ThreadLabelsAndDetailAreEscaped) {
  set_enabled(true);
  set_thread_label("label \"quoted\"\\back");
  {
    Span span("escaping", std::string("line1\nline2\ttab"));
  }
  const std::string json = trace_json();
  check_json_well_formed(json);
  EXPECT_NE(json.find("label \\\"quoted\\\"\\\\back"), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2\\ttab"), std::string::npos);
  set_thread_label("main");
}

TEST_F(TelemetryTest, ResetClearsAndReseeds) {
  set_enabled(true);
  count(Counter::kSpmvCsr, 9);
  {
    Span span("ephemeral.span");
  }
  reset();
  const auto rows = metrics_by_name();
  EXPECT_EQ(rows.size(), declared_metrics().size());  // every row still exports
  EXPECT_EQ(rows.at("spmv.csr")[2], "0");
  EXPECT_EQ(rows.at("spmv.csr")[3], "0");
  EXPECT_TRUE(parse_events(trace_json()).empty());
}

TEST_F(TelemetryTest, WritersMatchInMemoryExports) {
  set_enabled(true);
  count(Counter::kSpmvStencil, 3);
  {
    Span span("written.span");
  }
  const std::string metrics_path = ::testing::TempDir() + "telemetry_metrics.csv";
  const std::string trace_path = ::testing::TempDir() + "telemetry_trace.json";
  write_metrics_csv(metrics_path);
  write_trace_json(trace_path);
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  };
  // The CSV on disk is metrics_csv(): the manifest comment block followed
  // by the exact table serialization.
  EXPECT_EQ(slurp(metrics_path), metrics_csv());
  EXPECT_EQ(slurp(trace_path), trace_json());
  std::remove(metrics_path.c_str());
  std::remove(trace_path.c_str());
}

TEST_F(TelemetryTest, TimerHistogramPercentileGolden) {
  set_enabled(true);
  // Observations spanning decades. Bucket b holds [2^(b-1), 2^b - 1] and a
  // percentile reports its bucket's inclusive upper bound, clamped to the
  // largest observation, so the goldens are exact integers: bucket counts
  // are 1@[1,1], 2@[2,3], 1@[4,7], 1@[64,127], 2@[512,1023], 1@[4096,8191],
  // 1@[65536,131071], 1@[524288,1048575]. With N=10: p50 hits rank 5 (the
  // 100 ns value's bucket), p90 rank 9 (100 us), p99 rank 10 (1 ms, which
  // is also the max).
  for (const std::uint64_t ns :
       {1ull, 2ull, 3ull, 4ull, 100ull, 1000ull, 1000ull, 5000ull, 100000ull, 1000000ull}) {
    timer_add(Timer::kBatchScenarioWall, ns);
  }
  timer_add(Timer::kPoolQueueWait, 0);  // zero durations get their own bucket 0
  const auto rows = metrics_by_name();
  const auto& hist = rows.at("batch.scenario.wall");
  EXPECT_EQ(hist[6], "127");     // p50
  EXPECT_EQ(hist[7], "131071");  // p90
  EXPECT_EQ(hist[8], "1e+06");   // p99: 1048575 clamped to the max
  const auto& zero = rows.at("pool.queue_wait");
  EXPECT_EQ(zero[6], "0");
  EXPECT_EQ(zero[8], "0");
}

TEST_F(TelemetryTest, HistogramsMergeDeterministicallyAcrossWorkers) {
  set_enabled(true);
  // The same multiset of durations recorded from pool workers must produce
  // the same percentiles as a serial recording: bucket counts are summed at
  // export, so the merge cannot depend on which thread saw which value.
  fixtures::ScopedConcurrency budget(4);
  util::parallel_for(64, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      timer_add(Timer::kPlaybackScenarioWall, 100 * (i + 1));
    }
  });
  const auto rows = metrics_by_name();
  const auto& merged = rows.at("playback.scenario.wall");
  EXPECT_EQ(merged[2], "64");
  // Values 100..6400 ns; rank 32 (p50) is 3200 ns -> bucket [2048,4095],
  // rank 58 (p90) is 5800 -> [4096,8191], rank 64 (p99) likewise; both
  // clamp to the largest observation, 6400.
  EXPECT_EQ(merged[6], "4095");
  EXPECT_EQ(merged[7], "6400");
  EXPECT_EQ(merged[8], "6400");
}

TEST_F(TelemetryTest, ManifestRoundTripsThroughBothExports) {
  set_enabled(true);
  set_manifest("suite", "builtin:unit");
  set_manifest("custom key", "custom value");
  // The merged view carries the build-time entries plus the runtime ones.
  bool saw_build_type = false;
  for (const auto& [key, value] : manifest()) {
    if (key == "build_type") {
      saw_build_type = true;
      // CMAKE_BUILD_TYPE, lower-cased: any of CMake's four build types.
      EXPECT_TRUE(value == "debug" || value == "release" || value == "relwithdebinfo" ||
                  value == "minsizerel")
          << value;
    }
  }
  EXPECT_TRUE(saw_build_type);

  const std::string csv = metrics_csv();
  EXPECT_EQ(csv.find("# photherm-manifest v1\n"), 0u);
  EXPECT_NE(csv.find("# suite=builtin:unit\n"), std::string::npos);
  EXPECT_NE(csv.find("# custom key=custom value\n"), std::string::npos);
  EXPECT_NE(csv.find("# git_sha="), std::string::npos);
  EXPECT_NE(csv.find("metric,kind,count,total,min,max,p50,p90,p99\n"), std::string::npos);

  const std::string json = trace_json();
  check_json_well_formed(json);
  EXPECT_NE(json.find("\"manifest\":{"), std::string::npos);
  EXPECT_NE(json.find("\"suite\":\"builtin:unit\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\":"), std::string::npos);

  // reset() clears the runtime entries but keeps the build-time constants.
  reset();
  const std::string cleared = metrics_csv();
  EXPECT_EQ(cleared.find("builtin:unit"), std::string::npos);
  EXPECT_NE(cleared.find("# build_type="), std::string::npos);
}

TEST_F(TelemetryTest, CounterEventsCarryValueAndIteration) {
  set_enabled(true);
  counter("conv.residual", 0.5, 0);
  counter("conv.residual", 0.25, 1);
  const std::string json = trace_json();
  check_json_well_formed(json);
  EXPECT_NE(json.find("\"ph\":\"C\",\"name\":\"conv.residual\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"value\":0.5,\"iteration\":0}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"value\":0.25,\"iteration\":1}"), std::string::npos);
}

TEST_F(TelemetryTest, CounterEventsDropWhenDisabled) {
  ASSERT_FALSE(enabled());
  counter("conv.residual", 0.5, 0);
  set_enabled(true);
  const std::string json = trace_json();
  EXPECT_EQ(json.find("conv.residual"), std::string::npos);
}

TEST_F(TelemetryTest, DisableKeepsCollectedData) {
  set_enabled(true);
  count(Counter::kBatchCacheHits, 5);
  set_enabled(false);
  count(Counter::kBatchCacheHits, 100);  // dropped: recording is off
  const auto rows = metrics_by_name();
  EXPECT_EQ(rows.at("batch.cache.hits")[3], "5");
}

}  // namespace
}  // namespace photherm::telemetry
