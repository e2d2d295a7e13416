/// \file scenario.hpp
/// \brief Declarative workload scenarios: a named design point
/// (OnocDesignSpec overrides), an activity schedule (power/activity duty
/// phases) and ambient/heater corners, with a text round-trip so scenario
/// suites live in files. The batch runner (batch_runner.hpp) executes lists
/// of these; the registry (registry.hpp) expands parameterized families
/// into them.
///
/// File format — line oriented, `#` starts a comment:
///
///     scenario hotspot_85c
///     activity = hotspot
///     chip_power = 25
///     t_ambient = 85
///     heater_ratio = 0.3
///     schedule = 0.6:1, 0.4:0.25
///
/// A `scenario <name>` line opens a scenario; `key = value` lines override
/// fields until the next one. Unlisted fields keep the values of the base
/// design passed to the parser (package geometry, ONI layout and technology
/// parameters are only reachable through that base). Serialization writes
/// every covered key at full precision, so parse(serialize(x)) reproduces x
/// bit for bit.
#pragma once

#include <string>
#include <vector>

#include "core/spec.hpp"

namespace photherm::scenario {

/// One named workload scenario.
struct ScenarioSpec {
  std::string name;
  core::OnocDesignSpec design;
  /// Optional activity schedule. Steady-state evaluation folds it into the
  /// chip power through the time-weighted average scale (duty factor); the
  /// laser/heater powers are run-time constants and are not scaled.
  std::vector<power::ActivityPhase> schedule;

  /// Time-weighted mean scale of the schedule; 1.0 when it is empty.
  double duty_scale() const;

  /// The design point actually evaluated: `design` with the schedule folded
  /// into the chip power.
  core::OnocDesignSpec effective_design() const;
};

/// Keys understood by the parser/serializer, in serialization order.
const std::vector<std::string>& scenario_keys();

/// Parse a scenario file. `base` supplies every field the format does not
/// cover. Throws SpecError (with the line number) on unknown keys, bad
/// values, duplicate or invalid names.
std::vector<ScenarioSpec> parse_scenarios(const std::string& text,
                                          const core::OnocDesignSpec& base = {});

/// Serialize scenarios to the file format at full precision.
std::string serialize_scenarios(const std::vector<ScenarioSpec>& scenarios);

/// Read + parse a scenario file; throws photherm::Error on I/O failure.
std::vector<ScenarioSpec> load_scenario_file(const std::string& path,
                                             const core::OnocDesignSpec& base = {});

}  // namespace photherm::scenario
