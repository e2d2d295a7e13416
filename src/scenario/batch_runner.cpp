#include "scenario/batch_runner.hpp"

#include <exception>
#include <optional>
#include <unordered_map>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace photherm::scenario {

BatchRunner::BatchRunner(BatchOptions options) : options_(options) {}

BatchResult BatchRunner::run(const std::vector<ScenarioSpec>& scenarios) const {
  PH_REQUIRE(!scenarios.empty(), "batch has no scenarios");
  const std::size_t n = scenarios.size();

  // Validates every spec up front, before any solve starts.
  std::vector<core::ThermalAwareDesigner> designers;
  designers.reserve(n);
  for (const ScenarioSpec& s : scenarios) {
    try {
      designers.emplace_back(s.effective_design());
    } catch (const Error& e) {
      throw SpecError("scenario `" + s.name + "`: " + e.what());
    }
  }

  BatchResult result;
  result.stats.scenario_count = n;
  result.reports.resize(n);
  telemetry::count(telemetry::Counter::kBatchScenarios, n);

  if (!options_.share_global_solves) {
    // Cold path: every scenario performs its own coarse solve. Reports land
    // at their scenario's index, so order and values are thread-count
    // independent.
    util::parallel_for(n, 1, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        telemetry::Span span("batch.scenario", scenarios[i].name.c_str());
        telemetry::ScopedTimer wall(telemetry::Timer::kBatchScenarioWall);
        with_error_context("scenario `" + scenarios[i].name + "`",
                           [&] { result.reports[i] = designers[i].run(); });
      }
    });
    result.stats.global_solves = n;
    telemetry::count(telemetry::Counter::kBatchCacheMisses, n);
    return result;
  }

  // Group scenarios by global scene key. Keys serialize the full scene (and
  // everything else the coarse solve reads), so equal keys guarantee the
  // shared field is bit-identical to the one a cold solve would produce.
  std::vector<std::size_t> group_of(n);
  std::vector<std::size_t> representative;  // first scenario index per group
  {
    std::unordered_map<std::string, std::size_t> group_index;
    for (std::size_t i = 0; i < n; ++i) {
      const auto [it, fresh] =
          group_index.try_emplace(designers[i].global_scene_key(), representative.size());
      if (fresh) {
        representative.push_back(i);
      }
      group_of[i] = it->second;
    }
  }
  PH_LOG_DEBUG << "scenario batch: " << n << " scenarios over " << representative.size()
               << " distinct global scenes";

  // Coarse pass: one global solve per distinct scene, in parallel.
  std::vector<std::optional<core::CoarseGlobalSolve>> globals(representative.size());
  util::parallel_for(representative.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t g = begin; g < end; ++g) {
      telemetry::Span span("batch.global_solve", scenarios[representative[g]].name.c_str());
      with_error_context("scenario `" + scenarios[representative[g]].name + "`",
                         [&] { globals[g] = designers[representative[g]].solve_global(); });
    }
  });

  // Fine pass: every scenario refines its ONI windows on its group's
  // shared coarse field (read-only, safe to share across workers).
  util::parallel_for(n, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      telemetry::Span span("batch.scenario", scenarios[i].name.c_str());
      telemetry::ScopedTimer wall(telemetry::Timer::kBatchScenarioWall);
      with_error_context("scenario `" + scenarios[i].name + "`",
                         [&] { result.reports[i] = designers[i].run(*globals[group_of[i]]); });
    }
  });

  result.stats.global_solves = representative.size();
  result.stats.cache_hits = n - representative.size();
  telemetry::count(telemetry::Counter::kBatchCacheMisses, representative.size());
  telemetry::count(telemetry::Counter::kBatchCacheHits, result.stats.cache_hits);
  return result;
}

Table batch_table(const std::vector<ScenarioSpec>& scenarios, const BatchResult& result) {
  PH_REQUIRE(scenarios.size() == result.reports.size(),
             "scenario list and batch result are not index-aligned");
  Table table({"scenario", "activity", "placement", "t_ambient_c", "chip_power_w", "duty",
               "p_vcsel_w", "heater_ratio", "waveguides", "wdm_channels", "fanout",
               "chip_avg_c", "oni_avg_c", "oni_spread_c", "max_gradient_c", "gradient_ok",
               "worst_snr_db", "undetectable", "links_ok"});
  table.set_exact();
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const ScenarioSpec& s = scenarios[i];
    const core::DesignReport& report = result.reports[i];
    const core::OnocDesignSpec& spec = report.spec;  // effective design
    std::vector<TableCell> row{
        s.name,
        power::to_string(spec.activity),
        core::to_string(spec.placement),
        spec.package.t_ambient,
        spec.chip_power,
        s.duty_scale(),
        spec.p_vcsel,
        spec.heater_ratio,
        static_cast<double>(spec.waveguides),
        static_cast<double>(spec.wdm_channels),
        static_cast<double>(spec.fanout),
        report.thermal.chip_average,
        report.thermal.oni_average,
        report.thermal.oni_spread,
        report.thermal.max_gradient,
        std::string(report.gradient_ok() ? "yes" : "no"),
    };
    if (report.snr) {
      row.emplace_back(report.snr->network.worst_snr_db);
      row.emplace_back(static_cast<double>(report.snr->network.undetectable_count));
    } else {
      row.emplace_back(std::string());
      row.emplace_back(std::string());
    }
    row.emplace_back(std::string(report.links_ok() ? "yes" : "no"));
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace photherm::scenario
