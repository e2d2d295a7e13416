#include "scenario/scenario.hpp"

#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <sstream>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace photherm::scenario {

namespace {

/// Shortest round-trip spelling (util::format_shortest): serialize/parse is
/// bit-identical while common values stay readable ("0.3", not
/// "0.29999999999999999").
std::string fmt(double value) { return format_shortest(value); }

std::string fmt_schedule(const std::vector<power::ActivityPhase>& schedule) {
  std::vector<std::string> parts;
  parts.reserve(schedule.size());
  for (const power::ActivityPhase& p : schedule) {
    parts.push_back(fmt(p.duration) + ":" + fmt(p.scale));
  }
  return join(parts, ", ");
}

std::vector<power::ActivityPhase> parse_schedule(const std::string& value) {
  std::vector<power::ActivityPhase> schedule;
  for (const std::string& part : split(value, ',')) {
    const std::vector<std::string> pair = split(part, ':');
    if (pair.size() != 2) {
      throw SpecError("schedule phase `" + trim(part) +
                      "` is not of the form duration:scale");
    }
    power::ActivityPhase phase;
    phase.duration = parse_double(pair[0], "schedule phase duration");
    phase.scale = parse_double(pair[1], "schedule phase scale");
    schedule.push_back(phase);
  }
  // Delegate range checks (positive durations, non-negative scales).
  const power::ActivityTrace checked(schedule);
  (void)checked;
  return schedule;
}

/// One field of the scenario format: its key plus how to read it from and
/// write it into a ScenarioSpec.
struct FieldIo {
  const char* key;
  std::function<std::string(const ScenarioSpec&)> get;
  std::function<void(ScenarioSpec&, const std::string&)> set;
};

const std::vector<FieldIo>& field_table() {
  using power::activity_kind_from_string;
  static const std::vector<FieldIo> fields{
      {"activity", [](const ScenarioSpec& s) { return power::to_string(s.design.activity); },
       [](ScenarioSpec& s, const std::string& v) {
         s.design.activity = activity_kind_from_string(v);
       }},
      {"chip_power", [](const ScenarioSpec& s) { return fmt(s.design.chip_power); },
       [](ScenarioSpec& s, const std::string& v) {
         s.design.chip_power = parse_double(v, "chip_power");
       }},
      // ph-lint: allow(serialization) integral field; integers round-trip exactly
      {"seed", [](const ScenarioSpec& s) { return std::to_string(s.design.seed); },
       [](ScenarioSpec& s, const std::string& v) { s.design.seed = parse_uint(v, "seed"); }},
      {"placement", [](const ScenarioSpec& s) { return core::to_string(s.design.placement); },
       [](ScenarioSpec& s, const std::string& v) {
         s.design.placement = core::placement_from_string(v);
       }},
      // ph-lint: allow(serialization) integral field; integers round-trip exactly
      {"ring_case", [](const ScenarioSpec& s) { return std::to_string(s.design.ring_case_id); },
       [](ScenarioSpec& s, const std::string& v) {
         const std::uint64_t id = parse_uint(v, "ring_case");
         if (id > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
           throw SpecError("`" + trim(v) + "` is out of range for ring_case");
         }
         s.design.ring_case_id = static_cast<int>(id);
       }},
      {"p_vcsel", [](const ScenarioSpec& s) { return fmt(s.design.p_vcsel); },
       [](ScenarioSpec& s, const std::string& v) {
         s.design.p_vcsel = parse_double(v, "p_vcsel");
       }},
      {"heater_ratio", [](const ScenarioSpec& s) { return fmt(s.design.heater_ratio); },
       [](ScenarioSpec& s, const std::string& v) {
         s.design.heater_ratio = parse_double(v, "heater_ratio");
       }},
      {"active_tx",
       // ph-lint: allow(serialization) integral field; integers round-trip exactly
       [](const ScenarioSpec& s) { return std::to_string(s.design.active_tx_per_waveguide); },
       [](ScenarioSpec& s, const std::string& v) {
         s.design.active_tx_per_waveguide = parse_uint(v, "active_tx");
       }},
      {"driver_equals_vcsel",
       [](const ScenarioSpec& s) {
         return std::string(s.design.p_driver_equals_p_vcsel ? "true" : "false");
       },
       [](ScenarioSpec& s, const std::string& v) {
         s.design.p_driver_equals_p_vcsel = parse_bool(v, "driver_equals_vcsel");
       }},
      {"t_ambient", [](const ScenarioSpec& s) { return fmt(s.design.package.t_ambient); },
       [](ScenarioSpec& s, const std::string& v) {
         s.design.package.t_ambient = parse_double(v, "t_ambient");
       }},
      {"h_top", [](const ScenarioSpec& s) { return fmt(s.design.package.h_top); },
       [](ScenarioSpec& s, const std::string& v) {
         s.design.package.h_top = parse_double(v, "h_top");
       }},
      {"h_bottom", [](const ScenarioSpec& s) { return fmt(s.design.package.h_bottom); },
       [](ScenarioSpec& s, const std::string& v) {
         s.design.package.h_bottom = parse_double(v, "h_bottom");
       }},
      // ph-lint: allow(serialization) integral field; integers round-trip exactly
      {"fanout", [](const ScenarioSpec& s) { return std::to_string(s.design.fanout); },
       [](ScenarioSpec& s, const std::string& v) { s.design.fanout = parse_uint(v, "fanout"); }},
      // ph-lint: allow(serialization) integral field; integers round-trip exactly
      {"waveguides", [](const ScenarioSpec& s) { return std::to_string(s.design.waveguides); },
       [](ScenarioSpec& s, const std::string& v) {
         s.design.waveguides = parse_uint(v, "waveguides");
       }},
      {"wdm_channels",
       // ph-lint: allow(serialization) integral field; integers round-trip exactly
       [](const ScenarioSpec& s) { return std::to_string(s.design.wdm_channels); },
       [](ScenarioSpec& s, const std::string& v) {
         s.design.wdm_channels = parse_uint(v, "wdm_channels");
       }},
      {"global_cell_xy", [](const ScenarioSpec& s) { return fmt(s.design.global_cell_xy); },
       [](ScenarioSpec& s, const std::string& v) {
         s.design.global_cell_xy = parse_double(v, "global_cell_xy");
       }},
      {"oni_cell_xy", [](const ScenarioSpec& s) { return fmt(s.design.oni_cell_xy); },
       [](ScenarioSpec& s, const std::string& v) {
         s.design.oni_cell_xy = parse_double(v, "oni_cell_xy");
       }},
      {"oni_cell_z", [](const ScenarioSpec& s) { return fmt(s.design.oni_cell_z); },
       [](ScenarioSpec& s, const std::string& v) {
         s.design.oni_cell_z = parse_double(v, "oni_cell_z");
       }},
      {"window_margin", [](const ScenarioSpec& s) { return fmt(s.design.window_margin); },
       [](ScenarioSpec& s, const std::string& v) {
         s.design.window_margin = parse_double(v, "window_margin");
       }},
      {"schedule", [](const ScenarioSpec& s) { return fmt_schedule(s.schedule); },
       [](ScenarioSpec& s, const std::string& v) { s.schedule = parse_schedule(v); }},
  };
  return fields;
}

const FieldIo* find_field(const std::string& key) {
  for (const FieldIo& field : field_table()) {
    if (key == field.key) {
      return &field;
    }
  }
  return nullptr;
}

bool valid_name(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  for (char ch : name) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == '-' || ch == '.';
    if (!ok) {
      return false;
    }
  }
  return true;
}

[[noreturn]] void parse_fail(std::size_t line_number, const std::string& message) {
  // ph-lint: allow(serialization) integral line number in an error message, not persisted output
  throw SpecError("scenario file, line " + std::to_string(line_number) + ": " + message);
}

}  // namespace

double ScenarioSpec::duty_scale() const {
  if (schedule.empty()) {
    return 1.0;
  }
  return power::ActivityTrace(schedule).average_scale();
}

core::OnocDesignSpec ScenarioSpec::effective_design() const {
  core::OnocDesignSpec d = design;
  d.chip_power *= duty_scale();
  return d;
}

const std::vector<std::string>& scenario_keys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> k;
    for (const FieldIo& field : field_table()) {
      k.emplace_back(field.key);
    }
    return k;
  }();
  return keys;
}

std::vector<ScenarioSpec> parse_scenarios(const std::string& text,
                                          const core::OnocDesignSpec& base) {
  std::vector<ScenarioSpec> scenarios;
  std::set<std::string> seen_names;
  std::istringstream stream(text);
  std::string raw;
  std::size_t line_number = 0;

  while (std::getline(stream, raw)) {
    ++line_number;
    const std::size_t comment = raw.find('#');
    if (comment != std::string::npos) {
      raw.resize(comment);
    }
    const std::string line = trim(raw);
    if (line.empty()) {
      continue;
    }

    if (line.rfind("scenario", 0) == 0 &&
        (line.size() == 8 || line[8] == ' ' || line[8] == '\t')) {
      const std::string name = trim(line.substr(8));
      if (!valid_name(name)) {
        parse_fail(line_number, "scenario name `" + name +
                                    "` is empty or contains characters outside [A-Za-z0-9_.-]");
      }
      if (!seen_names.insert(name).second) {
        parse_fail(line_number, "duplicate scenario name `" + name + "`");
      }
      ScenarioSpec spec;
      spec.name = name;
      spec.design = base;
      scenarios.push_back(std::move(spec));
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      parse_fail(line_number, "expected `scenario <name>` or `key = value`, got `" + line + "`");
    }
    if (scenarios.empty()) {
      parse_fail(line_number, "`key = value` before any `scenario <name>` line");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    const FieldIo* field = find_field(key);
    if (field == nullptr) {
      parse_fail(line_number, "unknown key `" + key + "`; known keys: " +
                                  join(scenario_keys(), ", "));
    }
    try {
      field->set(scenarios.back(), value);
    } catch (const Error& e) {
      parse_fail(line_number, e.what());
    }
  }
  return scenarios;
}

std::string serialize_scenarios(const std::vector<ScenarioSpec>& scenarios) {
  std::ostringstream os;
  os << "# photherm scenario suite (" << scenarios.size() << " scenarios)\n";
  for (const ScenarioSpec& s : scenarios) {
    PH_REQUIRE(valid_name(s.name), "scenario name `" + s.name +
                                       "` is empty or contains characters outside "
                                       "[A-Za-z0-9_.-]; cannot serialize");
    os << "\nscenario " << s.name << "\n";
    for (const FieldIo& field : field_table()) {
      const std::string value = field.get(s);
      if (value.empty()) {
        continue;  // empty schedule: key absent means "always on"
      }
      os << field.key << " = " << value << "\n";
    }
  }
  return os.str();
}

std::vector<ScenarioSpec> load_scenario_file(const std::string& path,
                                             const core::OnocDesignSpec& base) {
  std::ifstream in(path);
  PH_REQUIRE(in.good(), "cannot open scenario file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  PH_REQUIRE(!in.bad(), "failed while reading scenario file: " + path);
  return parse_scenarios(text.str(), base);
}

}  // namespace photherm::scenario
