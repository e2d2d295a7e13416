/// Throughput of the scenario batch runner with the coarse-solve cache off
/// vs on. The suite is the builtin "corners" suite (traffic patterns,
/// ambient corners, WDM ladder): the WDM-ladder scenarios differ only in
/// SNR knobs, so with the cache on they share one coarse global solve —
/// the ROADMAP's "share the coarse global solve across sweep points" item.
/// Verifies that cached results reproduce the cold solves bit for bit and
/// reports scenarios/sec plus the cache hit rate. PHOTHERM_FAST=1 drops to
/// the 4-scenario smoke suite.
///
/// `--benchmark_format=json` swaps the human table for Google-Benchmark-
/// shaped JSON (context + benchmarks array, one entry per configuration),
/// so the CI perf-artifact job can collect this plain binary alongside the
/// real gbench ones and photherm_report can diff the runs.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "gbench_json.hpp"
#include "scenario/batch_runner.hpp"
#include "scenario/registry.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace photherm;
  using Clock = std::chrono::steady_clock;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--benchmark_format=json") {
      json = true;
    } else {
      std::cerr << "bench_scenario_batch: unknown option `" << argv[i]
                << "` (supported: --benchmark_format=json)\n";
      return 2;
    }
  }
  const bool fast = std::getenv("PHOTHERM_FAST") != nullptr;

  const std::string suite_name = fast ? "smoke" : "corners";
  auto suite = scenario::builtin_suite(suite_name);
  if (fast) {
    // The smoke suite's traffic patterns are all thermally distinct; append
    // a WDM ladder on the uniform scenario so the cache has shareable work.
    scenario::FamilySpec wdm;
    wdm.family = "wdm_ladder";
    wdm.base = suite.front();
    for (scenario::ScenarioSpec& s : scenario::expand_family(wdm)) {
      suite.push_back(std::move(s));
    }
  }
  if (!json) {
    std::cout << "scenario batch throughput: builtin:" << suite_name << " ("
              << suite.size() << " scenarios), " << util::concurrency() << " threads\n\n";
  }

  Table table({"configuration", "wall time (s)", "scenarios/s", "global solves",
               "cache hits", "hit rate", "bit-identical"});

  // Reference: serial and cold. The other configurations must reproduce its
  // CSV bit for bit — across the cache dimension *and* the thread count.
  // `threads` is the thread budget the configuration runs under (0 = the
  // default util::concurrency()).
  struct Config {
    const char* label;
    const char* bench_name;
    std::size_t threads;
    bool cached;
  };
  const Config configs[] = {
      {"1 thread, cache off", "scenario_batch/serial_cold", 1, false},
      {"N threads, cache off", "scenario_batch/threaded_cold", 0, false},
      {"N threads, cache on", "scenario_batch/threaded_cached", 0, true},
  };

  std::string reference_csv;
  std::size_t hits_with_cache = 0;
  std::vector<bench::GbenchEntry> json_entries;
  for (const Config& config : configs) {
    util::set_concurrency(config.threads);
    scenario::BatchOptions options;
    options.share_global_solves = config.cached;
    const auto start = Clock::now();
    const scenario::BatchResult result = scenario::BatchRunner(options).run(suite);
    const double seconds = std::chrono::duration<double>(Clock::now() - start).count();

    const std::string csv = scenario::batch_table(suite, result).to_csv();
    if (reference_csv.empty()) {
      reference_csv = csv;
    }
    const bool identical = csv == reference_csv;
    if (config.cached) {
      hits_with_cache = result.stats.cache_hits;
    }
    const double n = static_cast<double>(suite.size());
    const double per_second = seconds > 0.0 ? n / seconds : 0.0;
    const auto global_solves = static_cast<double>(result.stats.global_solves);
    const auto cache_hits = static_cast<double>(result.stats.cache_hits);
    table.add_row({std::string(config.label), seconds, per_second, global_solves, cache_hits,
                   cache_hits / n, std::string(identical ? "yes" : "NO")});
    // The deterministic counters (scenarios, global_solves, cache_hits) are
    // what the regression gate pins exactly; the rate is informational.
    bench::GbenchEntry entry{config.bench_name, seconds, {}};
    entry.counters.emplace_back("scenarios", n);
    entry.counters.emplace_back("global_solves", global_solves);
    entry.counters.emplace_back("cache_hits", cache_hits);
    entry.counters.emplace_back("scenarios_per_second", per_second);
    json_entries.push_back(std::move(entry));
    if (!identical) {
      std::cerr << "FAIL: `" << config.label << "` differs from the serial cold run\n";
      return 1;
    }
  }
  if (hits_with_cache == 0) {
    std::cerr << "FAIL: the suite produced no shared-solve cache hits\n";
    return 1;
  }
  if (json) {
    bench::write_gbench_json(std::cout, "bench_scenario_batch", json_entries);
    return 0;
  }
  print_table(std::cout, "batch runner: thread counts x coarse-solve cache", table);
  std::cout << "\ncached coarse fields are bit-identical to cold solves; the speedup is\n"
               "the shared global solves plus whatever parallelism the cores allow\n";
  return 0;
}
