#include "core/design_space.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace photherm::core {

std::vector<double> linspace(double lo, double hi, std::size_t count) {
  PH_REQUIRE(count >= 2, "linspace needs at least two points");
  PH_REQUIRE(hi > lo, "linspace range must be increasing");
  std::vector<double> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(count - 1);
  }
  return out;
}

std::vector<AvgTemperaturePoint> sweep_vcsel_chip_power(const OnocDesignSpec& base,
                                                        const std::vector<double>& p_chip,
                                                        const std::vector<double>& p_vcsel) {
  PH_REQUIRE(!p_chip.empty() && !p_vcsel.empty(), "empty sweep axes");
  const std::size_t grid = p_chip.size() * p_vcsel.size();
  std::vector<AvgTemperaturePoint> out(grid);
  // One grid point per task, results written by index so the row-major
  // order (and every value) is independent of the thread count.
  util::parallel_for(grid, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t idx = begin; idx < end; ++idx) {
      const double chip = p_chip[idx / p_vcsel.size()];
      const double vcsel = p_vcsel[idx % p_vcsel.size()];
      OnocDesignSpec spec = base;
      spec.chip_power = chip;
      spec.p_vcsel = vcsel;
      // Representative ONI: reuse the heater-sweep helper's convention
      // (most central interface) by sweeping a single ratio. The helper's
      // own region runs inline on this worker.
      const auto point = explore_heater_ratios(spec, {spec.heater_ratio}).front();
      AvgTemperaturePoint row;
      row.p_chip = chip;
      row.p_vcsel = vcsel;
      row.average = point.oni_average;
      row.gradient = point.gradient;
      out[idx] = row;
      // Incremental progress (the logger is thread-safe; line order may
      // interleave under concurrency, the returned grid never does).
      PH_LOG_INFO << "Pchip=" << row.p_chip << " W, PVCSEL=" << row.p_vcsel * 1e3
                  << " mW -> avg=" << row.average << " degC, gradient=" << row.gradient;
    }
  });
  return out;
}

std::vector<SnrSweepPoint> sweep_snr(const OnocDesignSpec& base,
                                     const std::vector<int>& ring_cases,
                                     const std::vector<power::ActivityKind>& activities) {
  PH_REQUIRE(!ring_cases.empty() && !activities.empty(), "empty sweep axes");
  const std::size_t grid = ring_cases.size() * activities.size();
  std::vector<SnrSweepPoint> out(grid);
  util::parallel_for(grid, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t idx = begin; idx < end; ++idx) {
      const power::ActivityKind activity = activities[idx / ring_cases.size()];
      const int rc = ring_cases[idx % ring_cases.size()];
      OnocDesignSpec spec = base;
      spec.placement = OniPlacementMode::kRing;
      spec.ring_case_id = rc;
      spec.activity = activity;
      const DesignReport report = ThermalAwareDesigner(spec).run();
      PH_REQUIRE(report.snr.has_value(), "ring run must produce an SNR report");

      SnrSweepPoint row;
      row.ring_case = rc;
      row.waveguide_length = report.snr->waveguide_length;
      row.activity = activity;
      row.worst_snr_db = report.snr->network.worst_snr_db;
      const noc::CommResult& worst = report.snr->network.worst_comm();
      row.signal_power = worst.signal_power;
      row.crosstalk_power = worst.crosstalk_power;
      double t_min = report.thermal.onis.front().average;
      double t_max = t_min;
      for (const OniThermalReport& r : report.thermal.onis) {
        t_min = std::min(t_min, r.average);
        t_max = std::max(t_max, r.average);
      }
      row.oni_t_min = t_min;
      row.oni_t_max = t_max;
      out[idx] = row;
      PH_LOG_INFO << "case " << row.ring_case << " (" << power::to_string(row.activity)
                  << "): worst SNR = " << row.worst_snr_db << " dB";
    }
  });
  return out;
}

}  // namespace photherm::core
