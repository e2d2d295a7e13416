#include "timeline/checkpoint.hpp"

#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace photherm::timeline {

namespace {

std::string fmt(double value) { return format_shortest(value); }

std::string fmt_vector(const math::Vector& v) {
  std::ostringstream os;
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i ? " " : "") << fmt(v[i]);
  }
  return os.str();
}

std::vector<std::string> tokens(const std::string& value) {
  std::vector<std::string> out;
  std::istringstream is(value);
  std::string token;
  while (is >> token) {
    out.push_back(token);
  }
  return out;
}

math::Vector parse_vector(const std::string& value, const std::string& what) {
  math::Vector v;
  for (const std::string& token : tokens(value)) {
    v.push_back(parse_double(token, what));
  }
  return v;
}

[[noreturn]] void parse_fail(std::size_t line_number, const std::string& message) {
  // ph-lint: allow(serialization) integral line number in an error message, not persisted output
  throw SpecError("checkpoint file, line " + std::to_string(line_number) + ": " + message);
}

}  // namespace

std::string serialize_checkpoints(const std::vector<PlaybackCheckpoint>& checkpoints) {
  std::ostringstream os;
  os << "# photherm timeline checkpoint (" << checkpoints.size() << " playbacks)\n";
  for (const PlaybackCheckpoint& c : checkpoints) {
    PH_REQUIRE(!c.scenario.empty(), "checkpoint without a scenario name; cannot serialize");
    const TimelineTrace& t = c.trace;
    const std::size_t steps = t.step_count();
    PH_REQUIRE(t.power_scale.size() == steps && t.cg_iterations.size() == steps &&
                   t.samples.size() == steps,
               "trace of `" + c.scenario + "` is not index-aligned; cannot serialize");
    os << "\nplayback " << c.scenario << "\n";
    os << "base_dt = " << fmt(c.base_time_step) << "\n";
    os << "current_dt = " << fmt(c.current_time_step) << "\n";
    os << "time = " << fmt(c.time) << "\n";
    os << "step_in_period = " << c.step_in_period << "\n";
    os << "last_step_delta = " << fmt(c.last_step_delta) << "\n";
    os << "in_tolerance_run = " << c.in_tolerance_run << "\n";
    os << "cycle_count = " << c.cycle_count << "\n";
    os << "cycle_hold = " << c.cycle_hold << "\n";
    os << "cycle_max_delta = " << fmt(c.cycle_max_delta) << "\n";
    for (const math::Vector& field : c.history) {
      os << "history = " << fmt_vector(field) << "\n";
    }
    os << "state = " << fmt_vector(c.state) << "\n";
    // Only a parsed legacy checkpoint has these; they round-trip as read.
    for (const math::Vector& slot : c.cycle_buffer) {
      os << "cycle = " << fmt_vector(slot) << "\n";
    }
    os << "period = " << fmt(t.period) << "\n";
    os << "final_dt = " << fmt(t.final_time_step) << "\n";
    os << "dt_growths = " << t.dt_growths << "\n";
    os << "reference_tolerance = " << fmt(t.reference_tolerance) << "\n";
    os << "settled = " << (t.settled ? "true" : "false") << "\n";
    os << "settle_time = " << fmt(t.settle_time) << "\n";
    os << "settle_step = " << t.settle_step << "\n";
    os << "final_delta = " << fmt(t.final_delta) << "\n";
    os << "periodic = " << (t.periodic_steady ? "true" : "false") << "\n";
    os << "periodic_time = " << fmt(t.periodic_steady_time) << "\n";
    os << "periodic_step = " << t.periodic_steady_step << "\n";
    os << "cycle_delta = " << fmt(t.cycle_delta) << "\n";
    os << "stats = " << t.stats.steps << " " << t.stats.total_cg_iterations << " "
       << t.stats.max_cg_iterations << " " << t.stats.reassemblies << " "
       << t.stats.preconditioner_builds << "\n";
    os << "probes = " << join(t.probe_names, " ") << "\n";
    for (std::size_t k = 0; k < steps; ++k) {
      os << "row = " << fmt(t.times[k]) << " " << fmt(t.power_scale[k]) << " "
         << t.cg_iterations[k];
      for (double sample : t.samples[k]) {
        os << " " << fmt(sample);
      }
      os << "\n";
    }
  }
  return os.str();
}

std::vector<PlaybackCheckpoint> parse_checkpoints(const std::string& text) {
  std::vector<PlaybackCheckpoint> checkpoints;
  std::istringstream stream(text);
  std::string raw;
  std::size_t line_number = 0;

  const auto current = [&]() -> PlaybackCheckpoint& {
    if (checkpoints.empty()) {
      parse_fail(line_number, "`key = value` before any `playback <name>` line");
    }
    return checkpoints.back();
  };

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

    if (line.rfind("playback", 0) == 0 &&
        (line.size() == 8 || line[8] == ' ' || line[8] == '\t')) {
      const std::string name = trim(line.substr(8));
      if (name.empty()) {
        parse_fail(line_number, "playback line without a scenario name");
      }
      PlaybackCheckpoint ckpt;
      ckpt.scenario = name;
      checkpoints.push_back(std::move(ckpt));
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      parse_fail(line_number,
                 "expected `playback <name>` or `key = value`, got `" + line + "`");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    PlaybackCheckpoint& c = current();
    TimelineTrace& t = c.trace;
    try {
      if (key == "base_dt") {
        c.base_time_step = parse_double(value, key);
      } else if (key == "current_dt") {
        c.current_time_step = parse_double(value, key);
      } else if (key == "time") {
        c.time = parse_double(value, key);
      } else if (key == "step_in_period") {
        c.step_in_period = parse_uint(value, key);
      } else if (key == "last_step_delta") {
        c.last_step_delta = parse_double(value, key);
      } else if (key == "in_tolerance_run") {
        c.in_tolerance_run = parse_uint(value, key);
      } else if (key == "cycle_count") {
        c.cycle_count = parse_uint(value, key);
      } else if (key == "cycle_hold") {
        c.cycle_hold = parse_uint(value, key);
      } else if (key == "cycle_max_delta") {
        c.cycle_max_delta = parse_double(value, key);
      } else if (key == "history") {
        c.history.push_back(parse_vector(value, key));
      } else if (key == "state") {
        c.state = parse_vector(value, key);
      } else if (key == "cycle") {
        c.cycle_buffer.push_back(parse_vector(value, key));
      } else if (key == "period") {
        t.period = parse_double(value, key);
      } else if (key == "final_dt") {
        t.final_time_step = parse_double(value, key);
      } else if (key == "dt_growths") {
        t.dt_growths = parse_uint(value, key);
      } else if (key == "reference_tolerance") {
        t.reference_tolerance = parse_double(value, key);
      } else if (key == "settled") {
        t.settled = parse_bool(value, key);
      } else if (key == "settle_time") {
        t.settle_time = parse_double(value, key);
      } else if (key == "settle_step") {
        t.settle_step = parse_uint(value, key);
      } else if (key == "final_delta") {
        t.final_delta = parse_double(value, key);
      } else if (key == "periodic") {
        t.periodic_steady = parse_bool(value, key);
      } else if (key == "periodic_time") {
        t.periodic_steady_time = parse_double(value, key);
      } else if (key == "periodic_step") {
        t.periodic_steady_step = parse_uint(value, key);
      } else if (key == "cycle_delta") {
        t.cycle_delta = parse_double(value, key);
      } else if (key == "stats") {
        const std::vector<std::string> parts = tokens(value);
        // 4-counter form: checkpoints written before preconditioner_builds
        // existed; they resume with the new counter at zero.
        if (parts.size() != 4 && parts.size() != 5) {
          throw SpecError("stats expects 4 or 5 counters");
        }
        t.stats.steps = parse_uint(parts[0], "stats steps");
        t.stats.total_cg_iterations = parse_uint(parts[1], "stats CG iterations");
        t.stats.max_cg_iterations = parse_uint(parts[2], "stats max CG iterations");
        t.stats.reassemblies = parse_uint(parts[3], "stats reassemblies");
        t.stats.preconditioner_builds =
            parts.size() == 5 ? parse_uint(parts[4], "stats preconditioner builds") : 0;
      } else if (key == "probes") {
        t.probe_names = tokens(value);
      } else if (key == "row") {
        const std::vector<std::string> row = tokens(value);
        if (row.size() < 3) {
          throw SpecError("row expects time, power scale, CG iterations, samples");
        }
        t.times.push_back(parse_double(row[0], "row time"));
        t.power_scale.push_back(parse_double(row[1], "row power scale"));
        t.cg_iterations.push_back(parse_uint(row[2], "row CG iterations"));
        std::vector<double> samples;
        for (std::size_t k = 3; k < row.size(); ++k) {
          samples.push_back(parse_double(row[k], "row sample"));
        }
        t.samples.push_back(std::move(samples));
      } else {
        throw SpecError("unknown key `" + key + "`");
      }
    } catch (const Error& e) {
      parse_fail(line_number, e.what());
    }
  }

  for (PlaybackCheckpoint& c : checkpoints) {
    if (c.base_time_step <= 0.0 || c.current_time_step <= 0.0 || c.state.empty()) {
      throw SpecError("checkpoint `" + c.scenario +
                      "` is incomplete: base_dt, current_dt and state are mandatory");
    }
    c.trace.scenario = c.scenario;
  }
  return checkpoints;
}

std::vector<PlaybackCheckpoint> load_checkpoint_file(const std::string& path) {
  std::ifstream in(path);
  PH_REQUIRE(in.good(), "cannot open checkpoint file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  PH_REQUIRE(!in.bad(), "failed while reading checkpoint file: " + path);
  return parse_checkpoints(text.str());
}

void save_checkpoint_file(const std::string& path,
                          const std::vector<PlaybackCheckpoint>& checkpoints) {
  std::ofstream out(path);
  PH_REQUIRE(out.good(), "cannot open checkpoint output file: " + path);
  out << serialize_checkpoints(checkpoints);
  out.flush();
  PH_REQUIRE(out.good(), "failed while writing checkpoint file: " + path);
}

}  // namespace photherm::timeline
