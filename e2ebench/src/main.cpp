/// e2ebench: end-to-end benchmark of photherm's real workloads.
///
///   e2ebench --workload corners|timeline|global_ladder --seed N --seconds S
///            --trace 0|1 [--trace-dir DIR]
///
/// Every workload runs in one process under a budget of kThreads threads
/// (util::set_concurrency), in a closed loop: each repetition of the public
/// pipeline starts when the previous one ends, until S seconds have passed
/// (at least kMinReps repetitions). Inputs are drawn from the seed; the
/// program only receives the generated scenario file.
///
/// --trace 0 times the public pipeline with telemetry off and reports the
/// end-to-end metrics. --trace 1 is a separate run: a warm-up repetition,
/// the checks only it can afford, telemetry off/on pairs of the pipeline
/// (counters, overhead), then layer walks from outside until S seconds have
/// passed; it writes the walk as Chrome trace-event JSON and reports the
/// per-layer metrics. The fixed part (warm-up, checks, one pair, one walk)
/// runs whatever S is, so a traced run of a slow workload outlasts S.
///
/// The last line of standard output is one JSON object with the keys
/// correct, attempted, failed and metrics. The exit code is 1 when any
/// output check failed, 2 on bad arguments, 3 for a non-Release build.
#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "util/string_util.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace e2ebench;
namespace telemetry = photherm::telemetry;

/// Seconds of repeated set-ups after each timed repetition; setup_s is the
/// median of all the samples.
constexpr double kSetupGap = 0.02;
/// Shortest set-up sample [s]; faster set-ups are timed in batches.
constexpr double kSetupSample = 0.002;
constexpr std::size_t kMinReps = 3;
/// Most telemetry off/on pairs the traced run takes.
constexpr std::size_t kMaxPairs = 5;
/// Fewest pairs whose agreement on the sign resolves the overhead.
constexpr std::size_t kMinSignPairs = 3;
/// A traced repetition whose spans cover less than this share is flagged.
constexpr double kMinCoverage = 0.95;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = photherm::parse_uint(value, "--seed");
      } else if (key == "--seconds") {
        args.seconds = photherm::parse_double(value, "--seconds");
      } else if (key == "--trace") {
        args.trace = photherm::parse_uint(value, "--trace") != 0;
      } else if (key == "--trace-dir") {
        args.trace_dir = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || !(args.seconds > 0.0)) {
    return std::nullopt;
  }
  return args;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "corners") {
    return make_corners();
  }
  if (name == "timeline") {
    return make_timeline();
  }
  if (name == "global_ladder") {
    return make_global_ladder();
  }
  return nullptr;
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it. Below 21
/// samples that would fall under the median, so the bar drops to as many
/// samples as lie above the median: the tail is then the (upper) median. A
/// maximum of a few samples would swing with every hiccup of the machine.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples above the reported one
};

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) {
    return t;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  t.beyond = std::min<std::size_t>(10, (n - 1) / 2);
  const std::size_t k = n - 1 - t.beyond;
  t.value = v[k];
  t.percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  return t;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One repetition of the public pipeline; nullopt when it threw.
std::optional<double> timed_rep(Workload& w, Ledger& ledger) {
  const auto start = Clock::now();
  try {
    w.run_pipeline();
  } catch (const std::exception& e) {
    ledger.record(false, w.scenarios_per_rep(), std::string("pipeline threw: ") + e.what());
    return std::nullopt;
  }
  const double wall = seconds_since(start);
  w.check_rep(ledger);
  return wall;
}

Cells finish(Workload& w, Ledger& ledger) {
  try {
    return w.finish(ledger);
  } catch (const std::exception& e) {
    ledger.record(false, 1, std::string("post-run checks threw: ") + e.what());
    return {};
  }
}

/// Repeat the set-up for `seconds`. Each sample times a batch of set-ups
/// lasting at least kSetupSample and records the time per set-up. The
/// inputs drawn are identical every time, so the workload's state is
/// unchanged.
void time_setups(Workload& w, std::uint64_t seed, double seconds, std::vector<double>& out) {
  const auto gap = Clock::now();
  while (seconds_since(gap) < seconds) {
    const auto start = Clock::now();
    std::size_t count = 0;
    do {
      w.setup(seed);
      ++count;
    } while (seconds_since(start) < kSetupSample);
    out.push_back(seconds_since(start) / static_cast<double>(count));
  }
}

std::vector<Metric> untraced_run(Workload& w, const Args& args, Ledger& ledger,
                                 std::vector<double>& setups) {
  std::vector<double> reps;
  const double cpu0 = cpu_seconds();
  const auto start = Clock::now();
  while (reps.size() < kMinReps || seconds_since(start) < args.seconds) {
    if (const auto wall = timed_rep(w, ledger)) {
      reps.push_back(*wall);
    } else if (seconds_since(start) >= args.seconds) {
      break;
    }
    // Set-ups spread over the whole run, so the speed of whichever core
    // the process starts on does not decide setup_s.
    time_setups(w, args.seed, kSetupGap, setups);
  }
  const double loop_wall = seconds_since(start);
  const double loop_cpu = cpu_seconds() - cpu0;
  const Cells cells = finish(w, ledger);

  const double p50 = median(reps);
  const Tail t = tail(reps);
  const double per_s = p50 > 0.0 ? 1.0 / p50 : 0.0;
  std::cout << "repetitions: " << reps.size() << " in " << loop_wall << " s (CPU/wall "
            << loop_cpu / loop_wall << "):";
  for (double r : reps) {
    std::cout << " " << r;
  }
  std::cout << "\nrep_s_tail is p" << photherm::format_fixed(t.percentile, 1) << " of "
            << t.samples << " samples (" << t.beyond << " beyond it)\n"
            << "cells solved per repetition: " << static_cast<std::uint64_t>(cells.solved) << "\n";
  if (w.sim_seconds_per_rep() > 0.0) {
    std::cout << "sim_s_per_s: " << w.sim_seconds_per_rep() * per_s << " s/s\n";
  }
  return {
      {"rep_s_p50", p50, "s"},
      {"rep_s_tail", t.value, "s"},
      {"scenarios_per_s", static_cast<double>(w.scenarios_per_rep()) * per_s, "1/s"},
      {"cells_per_s", cells.solved * per_s, "1/s"},
  };
}

/// Per-layer metrics from the traced run, in BENCHMARK.json order.
std::vector<Metric> traced_run(Workload& w, const Args& args, Ledger& ledger,
                               const std::vector<std::pair<std::string, std::string>>& stamp) {
  const auto start = Clock::now();

  // Telemetry off/on pairs of the public pipeline: effective threads,
  // overhead, and the program's own counters (from the first "on" rep).
  std::vector<double> off_s, on_s, threads_effective;
  std::optional<ProgramTelemetry> program;
  double program_wall = 0.0;
  const auto off_rep = [&] {
    const double cpu0 = cpu_seconds();
    if (const auto wall = timed_rep(w, ledger)) {
      off_s.push_back(*wall);
      threads_effective.push_back((cpu_seconds() - cpu0) / *wall);
    }
  };
  const auto on_rep = [&] {
    telemetry::reset();
    telemetry::set_enabled(true);
    const std::optional<double> wall = timed_rep(w, ledger);
    telemetry::set_enabled(false);
    if (wall) {
      on_s.push_back(*wall);
      if (!program) {
        program = read_program_telemetry();
        program_wall = *wall;
      }
    }
    telemetry::reset();
  };
  // Warm-up (also the reference repetition of the output checks) and the
  // traced-only checks. Then off/on pairs in alternating order, so neither
  // side always runs first: as many as fit in half the budget left, at
  // least one, at most kMaxPairs. The other half goes to the layer walks.
  const std::optional<double> warm_s = timed_rep(w, ledger);
  if (!warm_s) {
    return {};  // nothing to compare the walks with
  }
  try {
    w.traced_checks(ledger);
  } catch (const std::exception& e) {
    ledger.record(false, 1, std::string("traced checks threw: ") + e.what());
  }
  const double left = args.seconds - seconds_since(start);
  const std::size_t pairs =
      left > 4.0 * *warm_s
          ? std::min(kMaxPairs, static_cast<std::size_t>(left / (4.0 * *warm_s)))
          : 1;
  for (std::size_t p = 0; p < pairs; ++p) {
    if (p % 2 == 0) {
      off_rep();
      on_rep();
    } else {
      on_rep();
      off_rep();
    }
  }

  Tracer tracer;
  WalkCounts counts;
  int walks = 0;
  do {
    tracer.set_rep(walks);
    try {
      w.walk(tracer, ledger, counts);
    } catch (const std::exception& e) {
      ledger.record(false, w.scenarios_per_rep(), std::string("layer walk threw: ") + e.what());
      break;
    }
    ++walks;
  } while (seconds_since(start) < args.seconds);
  const Cells cells = finish(w, ledger);
  const ProgramTelemetry prog = program.value_or(ProgramTelemetry{});
  const double reps = std::max(walks, 1);

  const std::map<std::string, LayerStats> layers = layer_stats(tracer.spans());
  const auto layer = [&layers](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? LayerStats{} : it->second;
  };
  const auto per_rep = [&](const char* name) { return layer(name).total_s / reps; };

  // Solver and preconditioner times come from the program's own spans
  // (summed over threads), which also see inside a timeline step.
  const double cg_s = prog.span_seconds("solver.conjugate_gradient");
  const double precond_s = prog.span_seconds("precond.build");
  const double cg_solves = prog.total("solver.conjugate_gradient.solves");
  const double cg_iters = prog.total("solver.conjugate_gradient.iterations");
  // A walk that calls the solver itself must count what the program did.
  if (counts.cg_solves > 0) {
    ledger.record(static_cast<double>(counts.cg_solves) == cg_solves * walks &&
                      static_cast<double>(counts.cg_iterations) == cg_iters * walks,
                  1, "layer walk CG solves/iterations differ from the program's counters");
  }
  double precond_applies = 0.0;
  for (const auto& [name, total] : prog.totals) {
    if (name.rfind("precond.", 0) == 0 && name.size() > 8 &&
        name.compare(name.size() - 8, 8, ".applies") == 0) {
      precond_applies += total;
    }
  }
  double batch_span_s = 0.0;
  for (const std::string& name : w.batch_spans()) {
    batch_span_s += prog.span_seconds(name);
  }
  const double idle_frac =
      w.batch_spans().empty() || program_wall <= 0.0
          ? 0.0
          : 1.0 - batch_span_s / (static_cast<double>(kThreads) * program_wall);
  const LayerStats steps = layer("timeline.step");
  const double hits = static_cast<double>(w.cache_hits());
  const std::vector<double> coverage = rep_coverage(tracer.spans());
  const std::size_t step_count = w.steps_per_rep();

  // Self time per layer, and coverage per traced repetition.
  std::vector<std::pair<double, std::string>> by_self;
  for (const auto& [name, stats] : layers) {
    by_self.emplace_back(stats.self_s, name);
  }
  std::sort(by_self.rbegin(), by_self.rend());
  const double rep_total = layer(kRepSpan).total_s;
  std::cout << "layer self time per traced repetition (" << walks << " repetition"
            << (walks == 1 ? "" : "s") << ")\n"
            << std::left << std::setw(22) << "span" << std::right << std::setw(10) << "calls"
            << std::setw(14) << "total s" << std::setw(14) << "self s" << std::setw(10)
            << "self %" << "\n"
            << std::fixed;
  for (const auto& [self, name] : by_self) {
    const LayerStats& s = layers.at(name);
    std::cout << std::left << std::setw(22) << name << std::right << std::setprecision(1)
              << std::setw(10) << static_cast<double>(s.calls) / reps << std::setprecision(6)
              << std::setw(14) << s.total_s / reps << std::setw(14) << self / reps
              << std::setprecision(2) << std::setw(10)
              << (rep_total > 0.0 ? 100.0 * self / rep_total : 0.0) << "\n";
  }
  std::cout << std::defaultfloat << std::setprecision(6);
  for (std::size_t r = 0; r < coverage.size(); ++r) {
    std::cout << "repetition " << r << ": spans cover " << 100.0 * coverage[r] << "%"
              << (coverage[r] < kMinCoverage ? "  ** below 95% **" : "") << "\n";
  }
  std::cout << "exact counters per repetition: math.cg.iterations "
            << static_cast<std::uint64_t>(cg_iters) << ", math.cg.solves "
            << static_cast<std::uint64_t>(cg_solves) << ", timeline.steps " << step_count
            << ", scenario.cache.hits " << w.cache_hits() << ", mesh.cells "
            << static_cast<std::uint64_t>(cells.meshed) << "\n";

  const std::string path =
      args.trace_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) + ".json";
  try {
    std::filesystem::create_directories(args.trace_dir);
    write_chrome_trace(path, tracer.spans(), stamp);
    std::cout << "trace: " << path << "\n";
  } catch (const std::exception& e) {
    ledger.record(false, 1, std::string("trace not written: ") + e.what());
  }

  std::cout << "telemetry off / on repetitions [s]:";
  for (std::size_t i = 0; i < off_s.size() && i < on_s.size(); ++i) {
    std::cout << " " << off_s[i] << " / " << on_s[i];
  }
  // Overhead per pair, so that drift of the machine between pairs cancels.
  // It is resolved only when at least kMinSignPairs pairs agree on its sign.
  std::vector<double> per_pair;
  for (std::size_t i = 0; i < off_s.size() && i < on_s.size(); ++i) {
    per_pair.push_back(on_s[i] / off_s[i] - 1.0);
  }
  const double overhead = median(per_pair);
  const auto positive = [](double d) { return d > 0.0; };
  const std::size_t above = std::count_if(per_pair.begin(), per_pair.end(), positive);
  std::cout << "\nutil.telemetry.overhead_frac " << overhead;
  if (per_pair.size() < kMinSignPairs || (above != 0 && above != per_pair.size())) {
    std::cout << " is unresolved: fewer than " << kMinSignPairs
              << " pairs, or the pairs disagree on its sign";
  }
  std::cout << "\ntraced run: warm-up, checks, " << pairs << " off/on pair"
            << (pairs == 1 ? "" : "s") << " and " << walks << " walk" << (walks == 1 ? "" : "s")
            << " in " << seconds_since(start) << " s\n";
  return {
      {"thermal.assemble.s", per_rep("thermal.assemble"), "s"},
      {"thermal.assemble.calls", static_cast<double>(layer("thermal.assemble").calls) / reps,
       "count"},
      {"math.cg.s", cg_s, "s"},
      {"math.cg.solves", cg_solves, "count"},
      {"math.cg.iterations", cg_iters, "count"},
      {"math.cg.iters_per_solve", cg_solves > 0.0 ? cg_iters / cg_solves : 0.0, "count"},
      {"math.cg.s_per_iter", cg_iters > 0.0 ? cg_s / cg_iters : 0.0, "s"},
      {"math.spmv.count", prog.total("spmv.csr") + prog.total("spmv.stencil"), "count"},
      {"math.precond_apply.count", precond_applies, "count"},
      {"math.precond_build.s", precond_s, "s"},
      {"mesh.build.s", per_rep("mesh.build"), "s"},
      {"mesh.cells", cells.meshed, "count"},
      {"core.build_system.s", per_rep("core.build_system"), "s"},
      {"thermal.window_bcs.s", per_rep("thermal.window_bcs"), "s"},
      {"thermal.field_query.s", per_rep("thermal.field_query"), "s"},
      {"noc.snr.s", per_rep("noc.snr"), "s"},
      {"scenario.cache.hits", hits, "count"},
      {"scenario.cache.hit_ratio", hits / static_cast<double>(w.scenarios_per_rep()), "frac"},
      {"scenario.batch.idle_frac", idle_frac, "frac"},
      {"timeline.setup.s", per_rep("timeline.setup"), "s"},
      {"timeline.steps", static_cast<double>(counts.steps) / reps, "count"},
      {"timeline.step.s_p50", median(steps.durations_s), "s"},
      {"timeline.step.s_tail", tail(steps.durations_s).value, "s"},
      {"timeline.cg_iters_per_step",
       step_count > 0 ? static_cast<double>(w.step_cg_iterations_per_rep()) /
                            static_cast<double>(step_count)
                      : 0.0,
       "count"},
      {"util.pool.queue_wait.s", prog.total("pool.queue_wait") * 1e-9, "s"},
      {"util.pool.threads_effective", median(threads_effective), "threads"},
      {"util.telemetry.overhead_frac", overhead, "frac"},
      {"trace.coverage",
       coverage.empty() ? 0.0 : *std::min_element(coverage.begin(), coverage.end()), "frac"},
      {"trace.rep_s", rep_total / reps, "s"},
  };
}

void print_result(Ledger& ledger, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    ledger.record(std::isfinite(m.value), 1, "metric " + m.name + " is not finite");
  }
  std::cout << "\n" << std::left;
  for (const Metric& m : metrics) {
    std::cout << std::setw(30) << m.name << std::setw(24) << photherm::format_shortest(m.value)
              << m.unit << "\n";
  }
  std::cout << "failed_frac: "
            << static_cast<double>(ledger.failed()) / static_cast<double>(ledger.attempted())
            << " (" << ledger.failed() << " of " << ledger.attempted() << " operations)\n";
  for (const std::string& f : ledger.failures()) {
    std::cout << "FAILED: " << f << "\n";
  }
  std::cout << "{\"correct\": " << (ledger.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << ledger.attempted() << ", \"failed\": " << ledger.failed()
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << photherm::format_shortest(v) << ", \"unit\": \""
              << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  std::unique_ptr<Workload> workload = args ? make_workload(args->workload) : nullptr;
  if (!workload) {
    std::cerr << "usage: e2ebench --workload corners|timeline|global_ladder --seed N "
                 "--seconds S --trace 0|1 [--trace-dir DIR]\n";
    return 2;
  }

  // Debug numbers are not comparable: refuse anything but a Release build
  // of both this program and the library.
  std::string library_build = "unknown";
  std::string compiler = "unknown";
  for (const auto& [key, value] : telemetry::manifest()) {
    if (key == "build_type") {
      library_build = value;
    } else if (key == "compiler") {
      compiler = value;
    }
  }
  if (std::string(E2EBENCH_BUILD_TYPE) != "release" || library_build != "release") {
    std::cerr << "e2ebench: refusing to report from a non-Release build (e2ebench "
              << E2EBENCH_BUILD_TYPE << ", library " << library_build << ")\n";
    return 3;
  }

  photherm::util::set_concurrency(kThreads);
  const std::vector<std::pair<std::string, std::string>> stamp{
      {"build_type", library_build},
      {"compiler", compiler},
      {"seed", std::to_string(args->seed)},
      {"threads", std::to_string(photherm::util::concurrency())},
      {"workload", args->workload}};
  std::cout << std::setprecision(6) << "e2ebench";
  for (const auto& [key, value] : stamp) {
    std::cout << " " << key << "=" << value;
  }
  std::cout << " seconds=" << args->seconds << " trace=" << (args->trace ? 1 : 0) << "\n";

  // Set-up before the first timed repetition: pool start-up, input
  // generation, spec validation and the global scenes. Only this first
  // sample holds the pool start-up; the untraced run adds samples of the
  // rest between its repetitions.
  std::vector<double> setups;
  try {
    const auto start = Clock::now();
    photherm::util::ThreadPool::shared().ensure_size(kThreads - 1);
    workload->setup(args->seed);
    setups.push_back(seconds_since(start));
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: set-up failed: " << e.what() << "\n";
    return 1;
  }
  workload->describe(std::cout);

  Ledger ledger;
  std::vector<Metric> metrics;
  if (args->trace) {
    metrics = traced_run(*workload, *args, ledger, stamp);
  } else {
    metrics = untraced_run(*workload, *args, ledger, setups);
    std::vector<double> sorted = setups;
    std::sort(sorted.begin(), sorted.end());
    std::cout << "set-up: " << sorted.size() << " samples, first (with pool start-up) "
              << setups.front() << " s, min " << sorted.front() << " s, median " << median(setups) << " s, max "
              << sorted.back() << " s\n";
    metrics.push_back({"setup_s", median(setups), "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  }
  print_result(ledger, metrics);
  return ledger.failed() == 0 ? 0 : 1;
}
