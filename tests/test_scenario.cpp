/// Scenario subsystem: spec parse/serialize round-trip, registry family
/// expansion, batch-runner determinism across thread counts and the
/// coarse-solve cache equivalence guarantee (cached fields bit-identical to
/// cold solves).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "scenario/batch_runner.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "support/fixtures.hpp"
#include "util/error.hpp"

namespace photherm {
namespace {

using scenario::BatchOptions;
using scenario::BatchResult;
using scenario::BatchRunner;
using scenario::FamilySpec;
using scenario::ScenarioSpec;

/// Fast base for the solver-touching tests: smoke-suite resolution.
ScenarioSpec fast_scenario(const std::string& name) {
  ScenarioSpec s;
  s.name = name;
  s.design = fixtures::coarse_onoc_spec();
  s.design.oni_cell_xy = 40e-6;
  return s;
}

/// The batch suite used by the determinism/cache tests: three WDM-ladder
/// scenarios sharing one global scene plus one hotspot scenario.
std::vector<ScenarioSpec> fast_suite() {
  FamilySpec wdm;
  wdm.family = "wdm_ladder";
  wdm.base = fast_scenario("base");
  auto suite = scenario::expand_family(wdm);
  ScenarioSpec hotspot = fast_scenario("hotspot");
  hotspot.design.activity = power::ActivityKind::kHotspot;
  suite.push_back(std::move(hotspot));
  return suite;
}

void expect_same_design(const core::OnocDesignSpec& a, const core::OnocDesignSpec& b) {
  EXPECT_EQ(a.activity, b.activity);
  EXPECT_EQ(a.chip_power, b.chip_power);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.ring_case_id, b.ring_case_id);
  EXPECT_EQ(a.p_vcsel, b.p_vcsel);
  EXPECT_EQ(a.heater_ratio, b.heater_ratio);
  EXPECT_EQ(a.active_tx_per_waveguide, b.active_tx_per_waveguide);
  EXPECT_EQ(a.p_driver_equals_p_vcsel, b.p_driver_equals_p_vcsel);
  EXPECT_EQ(a.package.t_ambient, b.package.t_ambient);
  EXPECT_EQ(a.package.h_top, b.package.h_top);
  EXPECT_EQ(a.package.h_bottom, b.package.h_bottom);
  EXPECT_EQ(a.fanout, b.fanout);
  EXPECT_EQ(a.waveguides, b.waveguides);
  EXPECT_EQ(a.wdm_channels, b.wdm_channels);
  EXPECT_EQ(a.global_cell_xy, b.global_cell_xy);
  EXPECT_EQ(a.oni_cell_xy, b.oni_cell_xy);
  EXPECT_EQ(a.oni_cell_z, b.oni_cell_z);
  EXPECT_EQ(a.window_margin, b.window_margin);
}

TEST(ScenarioSpec, SerializeParseRoundTripIsExact) {
  ScenarioSpec a;
  a.name = "corner.hot-1";
  a.design.activity = power::ActivityKind::kCheckerboard;
  a.design.chip_power = 31.25;
  a.design.seed = 42;
  a.design.placement = core::OniPlacementMode::kAllTiles;
  a.design.ring_case_id = 2;
  a.design.p_vcsel = 3.3e-3;
  a.design.heater_ratio = 0.45;
  a.design.active_tx_per_waveguide = 2;
  a.design.p_driver_equals_p_vcsel = false;
  a.design.package.t_ambient = -40.0;
  a.design.package.h_top = 5000.0;
  a.design.package.h_bottom = 35.5;
  a.design.fanout = 5;
  a.design.waveguides = 2;
  a.design.wdm_channels = 16;
  a.design.global_cell_xy = 1.5e-3;
  a.design.oni_cell_xy = 7e-6;
  a.design.oni_cell_z = 1.5e-6;
  a.design.window_margin = 2e-4;
  a.schedule = {{0.6, 1.0}, {0.4, 0.25}};

  ScenarioSpec b = fast_scenario("plain");

  const std::string text = scenario::serialize_scenarios({a, b});
  const auto parsed = scenario::parse_scenarios(text);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].name, a.name);
  expect_same_design(parsed[0].design, a.design);
  ASSERT_EQ(parsed[0].schedule.size(), 2u);
  EXPECT_EQ(parsed[0].schedule[0].duration, 0.6);
  EXPECT_EQ(parsed[0].schedule[0].scale, 1.0);
  EXPECT_EQ(parsed[0].schedule[1].duration, 0.4);
  EXPECT_EQ(parsed[0].schedule[1].scale, 0.25);
  EXPECT_EQ(parsed[1].name, b.name);
  expect_same_design(parsed[1].design, b.design);
  EXPECT_TRUE(parsed[1].schedule.empty());

  // A second trip produces the same text: serialization is a fixed point.
  EXPECT_EQ(scenario::serialize_scenarios(parsed), text);
}

TEST(ScenarioSpec, ParserReportsActionableErrors) {
  // Unknown key, with the line number and the known-key list.
  try {
    scenario::parse_scenarios("scenario a\nchip_powerr = 25\n");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("chip_powerr"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("chip_power"), std::string::npos) << e.what();
  }
  // Value before any scenario header.
  EXPECT_THROW(scenario::parse_scenarios("chip_power = 25\n"), SpecError);
  // Bad number.
  EXPECT_THROW(scenario::parse_scenarios("scenario a\nchip_power = twenty\n"), SpecError);
  // Duplicate and invalid names.
  EXPECT_THROW(scenario::parse_scenarios("scenario a\nscenario a\n"), SpecError);
  EXPECT_THROW(scenario::parse_scenarios("scenario bad name\n"), SpecError);
  // Malformed schedule.
  EXPECT_THROW(scenario::parse_scenarios("scenario a\nschedule = 0.5\n"), SpecError);
  EXPECT_THROW(scenario::parse_scenarios("scenario a\nschedule = -1:0.5\n"), SpecError);
  // Non-finite and overflowing values fail at the parser, not in a solver.
  EXPECT_THROW(scenario::parse_scenarios("scenario a\nt_ambient = nan\n"), SpecError);
  EXPECT_THROW(scenario::parse_scenarios("scenario a\nh_top = inf\n"), SpecError);
  EXPECT_THROW(scenario::parse_scenarios("scenario a\nchip_power = 1e999\n"), SpecError);
  EXPECT_THROW(scenario::parse_scenarios("scenario a\nseed = 99999999999999999999\n"),
               SpecError);
  // A ring case that does not fit an int is refused, not wrapped to 1.
  try {
    scenario::parse_scenarios("scenario a\nring_case = 4294967297\n");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("ring_case"), std::string::npos) << e.what();
  }
}

TEST(ScenarioSpec, CommentsAndBaseDefaultsApply) {
  core::OnocDesignSpec base = fixtures::coarse_onoc_spec();
  base.chip_power = 19.0;
  const auto parsed = scenario::parse_scenarios(
      "# header comment\n"
      "scenario only  # trailing comment\n"
      "heater_ratio = 0.6\n",
      base);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].design.chip_power, 19.0);        // inherited from base
  EXPECT_EQ(parsed[0].design.heater_ratio, 0.6);       // overridden
  EXPECT_EQ(parsed[0].design.oni_cell_xy, base.oni_cell_xy);
}

TEST(ScenarioSpec, DutyScaleFoldsScheduleIntoChipPower) {
  ScenarioSpec s = fast_scenario("duty");
  s.design.chip_power = 24.0;
  EXPECT_EQ(s.duty_scale(), 1.0);
  s.schedule = {{0.5, 1.0}, {0.5, 0.0}};
  EXPECT_DOUBLE_EQ(s.duty_scale(), 0.5);
  EXPECT_DOUBLE_EQ(s.effective_design().chip_power, 12.0);
  // The nominal design is untouched.
  EXPECT_EQ(s.design.chip_power, 24.0);
}

TEST(ScenarioRegistry, FamiliesExpandToDocumentedCounts) {
  const ScenarioSpec base = fast_scenario("base");
  const auto count = [&base](const std::string& family) {
    FamilySpec request;
    request.family = family;
    request.base = base;
    return scenario::expand_family(request).size();
  };
  EXPECT_EQ(count("traffic"), 4u);
  EXPECT_EQ(count("ambient"), 3u);
  EXPECT_EQ(count("heater_ladder"), 5u);
  EXPECT_EQ(count("duty_ramp"), 4u);
  EXPECT_EQ(count("wdm_ladder"), 3u);

  FamilySpec custom;
  custom.family = "ambient";
  custom.prefix = "amb";
  custom.base = base;
  custom.values = {-40.0, 85.0};
  const auto expanded = scenario::expand_family(custom);
  ASSERT_EQ(expanded.size(), 2u);
  EXPECT_EQ(expanded[0].name, "amb_m40c");
  EXPECT_EQ(expanded[0].design.package.t_ambient, -40.0);
  EXPECT_EQ(expanded[1].name, "amb_85c");

  FamilySpec unknown;
  unknown.family = "nope";
  unknown.base = base;
  EXPECT_THROW(scenario::expand_family(unknown), SpecError);

  // Ladder values that alias in the generated names are rejected up front,
  // keeping every expansion serializable.
  FamilySpec aliasing;
  aliasing.family = "heater_ladder";
  aliasing.base = base;
  aliasing.values = {0.1234561, 0.1234562};
  EXPECT_THROW(scenario::expand_family(aliasing), Error);
}

TEST(ScenarioRegistry, BuiltinSuitesAreWellFormed) {
  for (const std::string& name : scenario::builtin_suite_names()) {
    const auto suite = scenario::builtin_suite(name);
    ASSERT_FALSE(suite.empty()) << name;
    std::vector<std::string> names;
    for (const ScenarioSpec& s : suite) {
      s.effective_design().validate();
      names.push_back(s.name);
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end())
        << "duplicate scenario names in suite " << name;
  }
  EXPECT_EQ(scenario::builtin_suite("smoke").size(), 4u);
  EXPECT_GE(scenario::builtin_suite("corners").size(), 8u);
  EXPECT_THROW(scenario::builtin_suite("nope"), SpecError);
}

TEST(ScenarioBatch, ReportsAreBitIdenticalAcrossThreadCounts) {
  const auto suite = fast_suite();
  const auto run_at = [&suite](std::size_t threads) {
    fixtures::ScopedConcurrency budget(threads);
    return BatchRunner().run(suite);
  };
  const BatchResult serial = run_at(1);
  const BatchResult threaded = run_at(4);
  ASSERT_EQ(serial.reports.size(), suite.size());
  // The full-precision CSV rendering captures every reported number, so
  // string equality is bit equality of the results.
  EXPECT_EQ(scenario::batch_table(suite, serial).to_csv(),
            scenario::batch_table(suite, threaded).to_csv());
}

TEST(ScenarioBatch, CoarseSolveCacheIsBitIdenticalToColdSolves) {
  const auto suite = fast_suite();
  fixtures::ScopedConcurrency budget(2);
  BatchOptions cold_options;
  cold_options.share_global_solves = false;
  const BatchResult cold = BatchRunner(cold_options).run(suite);
  const BatchResult cached = BatchRunner().run(suite);

  // Three WDM scenarios share one global scene; the hotspot one is its own.
  EXPECT_EQ(cold.stats.global_solves, suite.size());
  EXPECT_EQ(cold.stats.cache_hits, 0u);
  EXPECT_EQ(cached.stats.global_solves, 2u);
  EXPECT_EQ(cached.stats.cache_hits, suite.size() - 2u);

  EXPECT_EQ(scenario::batch_table(suite, cold).to_csv(),
            scenario::batch_table(suite, cached).to_csv());
}

TEST(ScenarioBatch, SceneKeySeparatesThermalKnobsFromSnrKnobs) {
  const ScenarioSpec base = fast_scenario("base");
  const core::ThermalAwareDesigner designer(base.design);
  const std::string key = designer.global_scene_key();

  // SNR/local-resolution knobs do not touch the global scene.
  ScenarioSpec snr = base;
  snr.design.wdm_channels = 16;
  snr.design.fanout = 2;
  snr.design.oni_cell_xy = 20e-6;
  EXPECT_EQ(core::ThermalAwareDesigner(snr.design).global_scene_key(), key);

  // Thermal knobs do.
  ScenarioSpec hot = base;
  hot.design.package.t_ambient = 85.0;
  EXPECT_NE(core::ThermalAwareDesigner(hot.design).global_scene_key(), key);
  ScenarioSpec heater = base;
  heater.design.heater_ratio = 0.6;
  EXPECT_NE(core::ThermalAwareDesigner(heater.design).global_scene_key(), key);
}

TEST(ScenarioBatch, WorkerFailuresSurfaceAsErrorsNamingTheScenario) {
  // The poisoned design passes validate() — every knob is positive and
  // finite — but explodes the coarse mesh past its cell budget when the
  // worker runs the designer. The failure must surface as a catchable
  // Error naming the scenario on the calling thread, not terminate the
  // process; both the cached coarse pass and the cold path are covered.
  auto suite = fast_suite();
  ScenarioSpec poisoned = fast_scenario("poisoned");
  poisoned.design.global_cell_xy = 1e-6;
  poisoned.design.oni_cell_xy = 1e-6;
  poisoned.design.validate();  // the poison is invisible to validation
  suite.push_back(std::move(poisoned));

  fixtures::ScopedConcurrency budget(4);
  for (bool share : {true, false}) {
    BatchOptions options;
    options.share_global_solves = share;
    try {
      BatchRunner(options).run(suite);
      FAIL() << "poisoned scenario must throw (share_global_solves = " << share << ")";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("poisoned"), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find("cell budget"), std::string::npos) << e.what();
    }
  }
}

TEST(ScenarioBatch, InvalidScenarioNamesTheScenarioInTheError) {
  auto suite = fast_suite();
  suite[1].design.oni_cell_xy = -1.0;
  try {
    BatchRunner().run(suite);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find(suite[1].name), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("oni_cell_xy"), std::string::npos) << e.what();
  }
  EXPECT_THROW(BatchRunner().run({}), Error);
}

}  // namespace
}  // namespace photherm
