/// Timeline playback throughput and the two big cost levers:
///
///  - the warm-start payoff: play the builtin transient suite over a fixed
///    horizon with the per-step CG solves seeded from the playback's
///    same-phase prediction (the previous field plus its increment one
///    schedule period earlier; the PlaybackOptions default) and from zero
///    (--cold-start equivalent), and report steps/sec plus the iteration
///    savings — the savings grow as the field approaches steady state;
///  - the adaptive-dt payoff: play the settle-bound builtin soak suite
///    until settle on the fixed grid and with adaptive stepping, and
///    report linear solves (steps), total CG iterations, steps/sec and
///    the matrix reassemblies the growth cost.
///
/// `--benchmark_format=json` swaps the human tables for Google-Benchmark-
/// shaped JSON (a `context` object and a `benchmarks` array with per-run
/// counters), so the CI perf-artifact job can collect this plain binary
/// alongside the real gbench ones.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "gbench_json.hpp"
#include "scenario/registry.hpp"
#include "timeline/runner.hpp"
#include "util/csv.hpp"

using namespace photherm;

namespace {

struct Run {
  timeline::TimelineBatchResult result;
  double seconds = 0.0;
};

Run play(const std::vector<scenario::ScenarioSpec>& suite,
         const timeline::PlaybackOptions& playback) {
  timeline::TimelineBatchOptions options;
  options.playback = playback;
  const auto start = std::chrono::steady_clock::now();
  Run run;
  run.result = timeline::TimelineRunner(options).run(suite);
  run.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return run;
}

void add_row(Table& table, const char* mode, const Run& run) {
  const double steps = static_cast<double>(run.result.stats.total_steps);
  const double iters = static_cast<double>(run.result.stats.total_cg_iterations);
  table.add_row({std::string(mode), steps, iters, iters / steps, steps / run.seconds});
}

/// One entry of the gbench-shaped `benchmarks` array: wall time plus the
/// playback counters as user counters, mirroring what google-benchmark
/// emits for a counter-carrying run.
bench::GbenchEntry json_entry(const char* name, const Run& run) {
  const double steps = static_cast<double>(run.result.stats.total_steps);
  const double iters = static_cast<double>(run.result.stats.total_cg_iterations);
  bench::GbenchEntry entry{name, run.seconds, {}};
  entry.counters.emplace_back("steps", steps);
  entry.counters.emplace_back("cg_iterations", iters);
  entry.counters.emplace_back("iters_per_step", iters / steps);
  entry.counters.emplace_back("steps_per_second", steps / run.seconds);
  return entry;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--benchmark_format=json") {
      json = true;
    } else {
      std::cerr << "bench_timeline_playback: unknown option `" << argv[i]
                << "` (supported: --benchmark_format=json)\n";
      return 2;
    }
  }

  const std::vector<scenario::ScenarioSpec> suite = scenario::builtin_suite("transient");

  timeline::PlaybackOptions fixed_horizon;
  fixed_horizon.time_step = 0.2;
  fixed_horizon.max_periods = 60;
  fixed_horizon.stop_on_settle = false;  // equal horizons for both modes
  timeline::PlaybackOptions cold_start = fixed_horizon;
  cold_start.warm_start = false;

  const Run warm = play(suite, fixed_horizon);
  const Run cold = play(suite, cold_start);

  // Settle-bound horizon: the adaptive scheme grows the step while the
  // field crawls, so the same settled field costs a small, horizon-
  // independent number of linear solves (one per step).
  const std::vector<scenario::ScenarioSpec> soak = scenario::builtin_suite("soak");
  timeline::PlaybackOptions until_settle;
  until_settle.time_step = 0.2;
  until_settle.stop_on_settle = true;
  timeline::PlaybackOptions adaptive = until_settle;
  adaptive.adaptive = true;

  const Run fixed_run = play(soak, until_settle);
  const Run adaptive_run = play(soak, adaptive);

  if (json) {
    bench::write_gbench_json(std::cout, "bench_timeline_playback",
                             {json_entry("timeline_playback/transient_warm_start", warm),
                              json_entry("timeline_playback/transient_cold_start", cold),
                              json_entry("timeline_playback/soak_fixed_dt", fixed_run),
                              json_entry("timeline_playback/soak_adaptive_dt", adaptive_run)});
    return 0;
  }

  Table table({"mode", "steps", "CG iterations", "iters/step", "steps/sec"});
  add_row(table, "warm start", warm);
  add_row(table, "cold start", cold);
  print_table(std::cout, "timeline playback (builtin:transient, fixed 60-period horizon)", table);

  const double saved =
      1.0 - static_cast<double>(warm.result.stats.total_cg_iterations) /
                static_cast<double>(cold.result.stats.total_cg_iterations);
  std::cout << "warm-start saves " << saved * 100.0 << "% of the CG iterations on this "
            << "horizon (the margin widens near settle, where a warm step costs O(1) "
            << "iterations)\n";

  Table soak_table({"mode", "steps", "CG iterations", "iters/step", "steps/sec"});
  add_row(soak_table, "fixed dt", fixed_run);
  add_row(soak_table, "adaptive dt", adaptive_run);
  print_table(std::cout, "settle-bound playback (builtin:soak, play until settle)", soak_table);

  std::size_t reassemblies = 0;
  for (const timeline::TimelineTrace& trace : adaptive_run.result.traces) {
    reassemblies += trace.stats.reassemblies;
  }
  const double solve_ratio = static_cast<double>(fixed_run.result.stats.total_steps) /
                             static_cast<double>(adaptive_run.result.stats.total_steps);
  const double iter_ratio =
      static_cast<double>(fixed_run.result.stats.total_cg_iterations) /
      static_cast<double>(adaptive_run.result.stats.total_cg_iterations);
  std::cout << "adaptive dt reaches the same settled field with " << solve_ratio
            << "x fewer linear solves (" << iter_ratio << "x fewer CG iterations), "
            << "paying " << reassemblies << " stepping-matrix reassemblies for the growth\n";

  Table summary = timeline::timeline_summary_table(adaptive_run.result);
  summary.set_precision(6);
  print_table(std::cout, "per-scenario trace summary (adaptive)", summary);
  return 0;
}
