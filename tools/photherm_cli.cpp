/// photherm_cli — command-line driver for the scenario engine.
///
///   photherm_cli list
///       Built-in suites (with scenario counts) and scenario families.
///   photherm_cli expand <suite> [-o FILE]
///       Expand a suite to a scenario file (stdout by default). <suite> is
///       either a scenario file path or `builtin:<name>`.
///   photherm_cli run <suite> [--threads N] [--no-cache] [-o FILE]
///                    [--trace FILE] [--metrics FILE]
///       Run the batch and emit one CSV row per scenario. Output is
///       bit-identical across thread counts and with the coarse-solve cache
///       on or off; cache statistics go to stderr.
///   photherm_cli play <suite> [--dt SEC] [--periods N] [--tol DEGC]
///                     [--until-settle] [--adaptive] [--cold-start]
///                     [--summary] [--threads N] [-o FILE]
///                     [--pause-after N --checkpoint FILE] [--resume FILE]
///                     [--trace FILE] [--metrics FILE]
///       Transient playback of every scenario's activity schedule (timeline
///       engine): emit the time-series CSV (one row per step, probe columns)
///       or, with --summary, one settle-report row per scenario. Output is
///       bit-identical across thread counts; stepping statistics go to
///       stderr. --adaptive grows the step while the field crawls;
///       --pause-after/--checkpoint stop every playback after N steps and
///       write their state to FILE; --resume continues from such a file,
///       byte-identical to a run that never paused. A warning is printed
///       when a schedule's quantized duty drifts from its analytic duty by
///       more than the settle tolerance.
///       --trace writes a Chrome trace-event JSON (open in Perfetto or
///       chrome://tracing), --metrics a merged metrics CSV; neither perturbs
///       the scenario CSV, which stays byte-identical to an untraced run
///       (see README.md "Observability").
///   photherm_cli diff <a.csv> <b.csv> [--tol REL]
///       Compare two CSV files cell by cell; finite numeric cells match
///       within the relative tolerance (default 0 = exact), infinite and
///       text cells exactly.
///       Exits 1 on mismatch — the golden-file check of the CTest smoke run.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "math/preconditioner.hpp"
#include "scenario/batch_runner.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "thermal/fvm.hpp"
#include "timeline/checkpoint.hpp"
#include "timeline/runner.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/string_util.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace photherm;

int usage(std::ostream& os, int exit_code) {
  os << "usage: photherm_cli <command> [args]\n"
        "  list                                     built-in suites and families\n"
        "  expand <suite> [-o FILE]                 expand to a scenario file\n"
        "  run <suite> [--threads N] [--no-cache] [-o FILE]\n"
        "              [--trace FILE] [--metrics FILE]\n"
        "                                           run the batch, emit CSV\n"
        "  play <suite> [--dt SEC] [--periods N] [--tol DEGC] [--until-settle]\n"
        "               [--adaptive] [--max-period-error REL] [--cold-start]\n"
        "               [--summary] [--threads N]\n"
        "               [--pause-after N --checkpoint FILE] [--resume FILE]\n"
        "               [--progress N] [--convergence]\n"
        "               [--trace FILE] [--metrics FILE] [-o FILE]\n"
        "                                           transient playback, emit\n"
        "                                           time-series CSV\n"
        "  diff <a.csv> <b.csv> [--tol REL]         numeric CSV comparison\n"
        "a <suite> is a scenario file path or builtin:<name> (see `list`).\n"
        "--trace writes a Chrome trace-event JSON (Perfetto/chrome://tracing),\n"
        "--metrics a metrics CSV; neither changes the scenario CSV output.\n"
        "Both embed a run manifest (git sha, build type, suite, threads,\n"
        "operator, preconditioner) that photherm_report reads. --progress N\n"
        "logs a heartbeat stderr line every N steps; --convergence records\n"
        "per-iteration solver residuals (SolverResult histories + trace\n"
        "counter events).\n";
  return exit_code;
}

std::vector<scenario::ScenarioSpec> resolve_suite(const std::string& suite) {
  const std::string prefix = "builtin:";
  if (suite.rfind(prefix, 0) == 0) {
    return scenario::builtin_suite(suite.substr(prefix.size()));
  }
  return scenario::load_scenario_file(suite);
}

void write_output(const std::optional<std::string>& path, const std::string& payload) {
  if (!path) {
    std::cout << payload;
    return;
  }
  std::ofstream out(*path);
  PH_REQUIRE(out.good(), "cannot open output file: " + *path);
  out << payload;
  out.flush();
  PH_REQUIRE(out.good(), "failed while writing output file: " + *path);
}

/// Pop `--flag value` style options shared by expand/run/play.
struct CommonArgs {
  std::string suite;
  std::optional<std::string> out_path;
};

/// `extra` (optional) consumes command-specific flags: it is offered each
/// option first and returns true when it handled it (advancing `i` past any
/// value it popped).
CommonArgs parse_common(
    const std::vector<std::string>& args, const std::string& command,
    const std::function<bool(const std::string&, std::size_t&)>& extra = {}) {
  CommonArgs parsed;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (extra && extra(arg, i)) {
      continue;
    }
    if (arg == "-o" || arg == "--out") {
      PH_REQUIRE(i + 1 < args.size(), arg + " needs a file path");
      parsed.out_path = args[++i];
    } else if (arg == "--threads") {
      // --threads bounds every parallel region, the solver kernels and the
      // per-ONI window loops included, so it sets the process-wide budget
      // before any work starts (0 keeps the default).
      PH_REQUIRE(i + 1 < args.size(), "--threads needs a count");
      util::set_concurrency(static_cast<std::size_t>(parse_uint(args[++i], "--threads")));
    } else if (!arg.empty() && arg[0] == '-') {
      throw SpecError("unknown option `" + arg + "` for " + command);
    } else {
      PH_REQUIRE(parsed.suite.empty(), command + " takes exactly one <suite>");
      parsed.suite = arg;
    }
  }
  PH_REQUIRE(!parsed.suite.empty(), command + " needs a <suite> argument");
  return parsed;
}

/// --trace/--metrics plumbing shared by run and play: the command's `extra`
/// handler parses the flags, telemetry turns on before the first solve, and
/// the collected data is written after the scenario CSV. Telemetry is
/// write-only — the scenario CSV stays byte-identical either way.
struct TelemetryArgs {
  std::optional<std::string> trace_path;
  std::optional<std::string> metrics_path;

  bool handle(const std::vector<std::string>& args, const std::string& arg, std::size_t& i) {
    if (arg == "--trace" || arg == "--metrics") {
      PH_REQUIRE(i + 1 < args.size(), arg + " needs a file path");
      (arg == "--trace" ? trace_path : metrics_path) = args[++i];
      return true;
    }
    return false;
  }

  void enable_if_requested() const {
    if (trace_path || metrics_path) {
      telemetry::set_enabled(true);
    }
  }

  void write_reports() const {
    if (trace_path) {
      telemetry::write_trace_json(*trace_path);
    }
    if (metrics_path) {
      telemetry::write_metrics_csv(*metrics_path);
    }
  }
};

/// Runtime half of the run manifest (the build half — git sha, build type,
/// compiler, sanitizer — is compiled into telemetry.cpp): what was run, on
/// which operator and preconditioner, and how wide, so photherm_report can
/// tell two artifacts apart months later. `run` and `play` both solve with
/// the default steady options' operator and solver configuration.
void set_run_manifest(const char* command, const CommonArgs& parsed, std::size_t scenario_count) {
  if (!telemetry::enabled()) {
    return;
  }
  telemetry::set_manifest("command", command);
  telemetry::set_manifest("suite", parsed.suite);
  std::ostringstream scenarios;
  scenarios << scenario_count;
  telemetry::set_manifest("scenario_count", scenarios.str());
  std::ostringstream threads;
  threads << util::concurrency();
  telemetry::set_manifest("threads", threads.str());
  const thermal::SteadyStateOptions steady;
  telemetry::set_manifest("operator", thermal::to_string(steady.operator_kind));
  telemetry::set_manifest("preconditioner", math::to_string(steady.solver.preconditioner));
}

int cmd_list() {
  std::cout << "built-in suites (run or expand with builtin:<name>):\n";
  for (const std::string& name : scenario::builtin_suite_names()) {
    std::cout << "  " << name << " (" << scenario::builtin_suite(name).size()
              << " scenarios)\n";
  }
  std::cout << "\nscenario families (building blocks of suites):\n";
  for (const std::string& name : scenario::family_names()) {
    std::cout << "  " << name << ": " << scenario::family_description(name) << "\n";
  }
  std::cout << "\nscenario file keys: " << join(scenario::scenario_keys(), ", ") << "\n";
  return 0;
}

int cmd_expand(const std::vector<std::string>& args) {
  const CommonArgs parsed = parse_common(args, "expand");
  const auto scenarios = resolve_suite(parsed.suite);
  write_output(parsed.out_path, scenario::serialize_scenarios(scenarios));
  std::cerr << "expanded " << scenarios.size() << " scenarios\n";
  return 0;
}

int cmd_run(const std::vector<std::string>& args) {
  bool no_cache = false;
  TelemetryArgs telemetry_args;
  const CommonArgs parsed =
      parse_common(args, "run", [&](const std::string& arg, std::size_t& i) {
        if (arg == "--no-cache") {
          no_cache = true;
          return true;
        }
        return telemetry_args.handle(args, arg, i);
      });
  telemetry_args.enable_if_requested();
  const auto scenarios = resolve_suite(parsed.suite);
  set_run_manifest("run", parsed, scenarios.size());

  scenario::BatchOptions options;
  options.share_global_solves = !no_cache;
  const scenario::BatchResult result = scenario::BatchRunner(options).run(scenarios);

  write_output(parsed.out_path, scenario::batch_table(scenarios, result).to_csv());
  telemetry_args.write_reports();
  PH_LOG_INFO << "event=batch_run scenarios=" << result.stats.scenario_count
              << " global_solves=" << result.stats.global_solves
              << " cache_hits=" << result.stats.cache_hits;
  return 0;
}

int cmd_play(const std::vector<std::string>& args) {
  bool summary = false;
  bool until_settle = false;
  std::optional<std::size_t> periods;
  std::size_t pause_after = 0;
  std::optional<std::string> checkpoint_path;
  std::optional<std::string> resume_path;
  TelemetryArgs telemetry_args;
  timeline::PlaybackOptions playback;

  const CommonArgs parsed =
      parse_common(args, "play", [&](const std::string& arg, std::size_t& i) {
        if (telemetry_args.handle(args, arg, i)) {
          return true;
        }
        const auto value = [&](const char* what) -> const std::string& {
          PH_REQUIRE(i + 1 < args.size(), std::string(what) + " needs a value");
          return args[++i];
        };
        if (arg == "--dt") {
          playback.time_step = parse_double(value("--dt"), "--dt");
        } else if (arg == "--periods") {
          periods = static_cast<std::size_t>(parse_uint(value("--periods"), "--periods"));
        } else if (arg == "--tol") {
          playback.settle_tolerance = parse_double(value("--tol"), "--tol");
        } else if (arg == "--until-settle") {
          until_settle = true;
        } else if (arg == "--adaptive") {
          playback.adaptive = true;
        } else if (arg == "--max-period-error") {
          playback.max_period_error =
              parse_double(value("--max-period-error"), "--max-period-error");
        } else if (arg == "--cold-start") {
          playback.warm_start = false;
        } else if (arg == "--progress") {
          playback.progress_every =
              static_cast<std::size_t>(parse_uint(value("--progress"), "--progress"));
        } else if (arg == "--convergence") {
          playback.solver.record_convergence = true;
        } else if (arg == "--summary") {
          summary = true;
        } else if (arg == "--pause-after") {
          pause_after =
              static_cast<std::size_t>(parse_uint(value("--pause-after"), "--pause-after"));
        } else if (arg == "--checkpoint") {
          checkpoint_path = value("--checkpoint");
        } else if (arg == "--resume") {
          resume_path = value("--resume");
        } else {
          return false;
        }
        return true;
      });
  PH_REQUIRE(pause_after == 0 || checkpoint_path,
             "--pause-after needs --checkpoint FILE to save the paused state");
  PH_REQUIRE(!checkpoint_path || pause_after > 0,
             "--checkpoint needs --pause-after N (when to pause)");
  telemetry_args.enable_if_requested();

  // Fixed-horizon by default (stop_on_settle off, 40 periods) so the CSV
  // shape is schedule-determined — what the golden smoke test pins down.
  // --until-settle keeps the library's long horizon (PlaybackOptions
  // default) so slow-settling scenarios actually reach their settle time;
  // an explicit --periods overrides either cap.
  playback.stop_on_settle = until_settle;
  if (periods) {
    playback.max_periods = *periods;
  } else if (!until_settle) {
    playback.max_periods = 40;
  }
  // The runner validates the options: bad ones fail here, before the suite
  // loads or the duty check below warns against a meaningless tolerance.
  timeline::TimelineBatchOptions options;
  options.playback = playback;
  options.pause_after_steps = pause_after;
  const timeline::TimelineRunner runner(options);

  const auto scenarios = resolve_suite(parsed.suite);
  set_run_manifest("play", parsed, scenarios.size());

  // Quantization sanity: warn when the duty a schedule actually plays on
  // this grid drifts from the analytic duty by more than the settle
  // tolerance. The comparison is a dimensionless heuristic — the settled
  // field shifts by roughly drift x the modulated temperature swing — but
  // it flags exactly the grids whose playback studies a different duty
  // than the steady-state pipeline's fold. (Schedules that do not fit the
  // grid at all fail fast inside the playback, with the scenario named.)
  for (const auto& s : scenarios) {
    try {
      const timeline::PowerTimeline t =
          timeline::compile_timeline(s.schedule, playback.time_step,
                                     playback.max_period_error);
      const double drift = std::abs(t.average_scale() - s.duty_scale());
      if (drift > playback.settle_tolerance) {
        std::cerr << "warning: scenario `" << s.name << "`: quantized duty "
                  << t.average_scale() << " differs from the analytic duty "
                  << s.duty_scale() << " by " << drift << " (> settle tolerance "
                  << playback.settle_tolerance << "); shrink --dt to play the "
                  << "schedule faithfully\n";
      }
    } catch (const Error&) {
      // play will report it with full context
    }
  }

  std::vector<timeline::PlaybackCheckpoint> resume_from;
  if (resume_path) {
    resume_from = timeline::load_checkpoint_file(*resume_path);
    if (resume_from.empty()) {
      // The valid end state of a pause/resume loop: the previous run
      // finished everything and wrote an empty checkpoint. Play from the
      // start — determinism makes that the same complete result.
      std::cerr << *resume_path << " holds no paused playbacks; playing to completion\n";
    }
  }
  const timeline::TimelineBatchResult result =
      resume_from.empty() ? runner.run(scenarios) : runner.resume(scenarios, resume_from);

  if (checkpoint_path) {
    // An empty checkpoint file is a valid end state of a pause/resume
    // loop: every playback finished before the pause fired, the CSV below
    // is the complete result, and resuming the file reports there is
    // nothing left to continue.
    timeline::save_checkpoint_file(*checkpoint_path, result.checkpoints);
    if (result.checkpoints.empty()) {
      std::cerr << "all playbacks finished before --pause-after " << pause_after
                << "; wrote an empty checkpoint to " << *checkpoint_path << "\n";
    } else {
      std::cerr << "checkpointed " << result.stats.paused_count << " playbacks to "
                << *checkpoint_path << "\n";
    }
  }

  const Table table =
      summary ? timeline::timeline_summary_table(result) : timeline::timeline_table(result);
  write_output(parsed.out_path, table.to_csv());
  telemetry_args.write_reports();
  PH_LOG_INFO << "event=timeline_play scenarios=" << result.stats.scenario_count
              << " steps=" << result.stats.total_steps
              << " cg_iterations=" << result.stats.total_cg_iterations
              << " settled=" << result.stats.settled_count
              << " periodic=" << result.stats.periodic_count
              << " paused=" << result.stats.paused_count;
  return 0;
}

/// True when the whole cell parses as a number.
std::optional<double> as_number(const std::string& cell) {
  const std::string text = trim(cell);
  if (text.empty()) {
    return std::nullopt;
  }
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) {
    return std::nullopt;
  }
  return value;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  PH_REQUIRE(in.good(), "cannot open CSV file: " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    lines.push_back(line);
  }
  return lines;
}

int cmd_diff(const std::vector<std::string>& args) {
  std::vector<std::string> paths;
  double tol = 0.0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--tol") {
      PH_REQUIRE(i + 1 < args.size(), "--tol needs a value");
      tol = parse_double(args[++i], "--tol");
      PH_REQUIRE(tol >= 0.0, "--tol must be a non-negative relative tolerance");
    } else {
      paths.push_back(args[i]);
    }
  }
  PH_REQUIRE(paths.size() == 2, "diff takes exactly two CSV paths");

  const auto a = read_lines(paths[0]);
  const auto b = read_lines(paths[1]);
  if (a.size() != b.size()) {
    std::cerr << "diff: row count " << a.size() << " vs " << b.size() << "\n";
    return 1;
  }
  for (std::size_t row = 0; row < a.size(); ++row) {
    const auto cells_a = split(a[row], ',');
    const auto cells_b = split(b[row], ',');
    if (cells_a.size() != cells_b.size()) {
      std::cerr << "diff: line " << row + 1 << ": column count " << cells_a.size() << " vs "
                << cells_b.size() << "\n";
      return 1;
    }
    for (std::size_t col = 0; col < cells_a.size(); ++col) {
      const auto na = as_number(cells_a[col]);
      const auto nb = as_number(cells_b[col]);
      bool ok;
      // NaN cells fall through to the text comparison (NaN != NaN would
      // make a file mismatch a byte-identical copy of itself). An infinite
      // cell matches only an equal one: against it, the scale and the
      // difference are both infinite, so the tolerance would pass anything.
      if (na && nb && !std::isnan(*na) && !std::isnan(*nb)) {
        const bool finite = std::isfinite(*na) && std::isfinite(*nb);
        const double scale = std::max({1.0, std::abs(*na), std::abs(*nb)});
        ok = *na == *nb || (finite && std::abs(*na - *nb) <= tol * scale);
      } else {
        ok = trim(cells_a[col]) == trim(cells_b[col]);
      }
      if (!ok) {
        std::cerr << "diff: line " << row + 1 << ", column " << col + 1 << ": `"
                  << cells_a[col] << "` vs `" << cells_b[col] << "` (tol " << tol << ")\n";
        return 1;
      }
    }
  }
  std::cerr << "diff: " << a.size() << " rows match\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The run/play stats lines are kInfo (the library default is kWarn so
  // tests stay quiet); the CLI is the interactive surface, so show them.
  photherm::set_log_level(photherm::LogLevel::kInfo);
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty() || args[0] == "-h" || args[0] == "--help" || args[0] == "help") {
    return usage(args.empty() ? std::cerr : std::cout, args.empty() ? 2 : 0);
  }
  const std::string command = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  try {
    if (command == "list") {
      return cmd_list();
    }
    if (command == "expand") {
      return cmd_expand(rest);
    }
    if (command == "run") {
      return cmd_run(rest);
    }
    if (command == "play") {
      return cmd_play(rest);
    }
    if (command == "diff") {
      return cmd_diff(rest);
    }
    std::cerr << "photherm_cli: unknown command `" << command << "`\n";
    return usage(std::cerr, 2);
  } catch (const photherm::Error& e) {
    std::cerr << "photherm_cli: " << e.what() << "\n";
    return 2;
  }
}
