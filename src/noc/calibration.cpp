#include "noc/calibration.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace photherm::noc {

RingTrim trim_for_misalignment(double misalignment, const CalibrationParams& params) {
  PH_REQUIRE(params.blue_shift_uw_per_nm > 0.0 && params.red_shift_uw_per_nm > 0.0,
             "tuning efficiencies must be positive");
  RingTrim trim;
  trim.misalignment = misalignment;
  const double magnitude_nm = std::abs(misalignment) * 1e9;
  if (misalignment == 0.0) {
    return trim;  // perfectly aligned: no actuation at all
  }
  if (misalignment > 0.0 && std::abs(misalignment) <= params.blue_shift_range) {
    // Ring sits red of the channel and within the voltage-tuning range:
    // blue-shift electrically (cheaper per nm).
    trim.uses_heater = false;
    trim.power = params.blue_shift_uw_per_nm * 1e-6 * magnitude_nm;
  } else {
    // Either the ring is blue of the channel (only heating can red-shift
    // it) or the error exceeds the voltage range.
    trim.uses_heater = true;
    trim.power = params.red_shift_uw_per_nm * 1e-6 * magnitude_nm;
  }
  return trim;
}

namespace {
CalibrationPlan plan_from_misalignments(const std::vector<double>& misalignments,
                                        const CalibrationParams& params) {
  const std::size_t n = misalignments.size();
  CalibrationPlan plan;
  plan.trims.resize(n);
  // Trims are independent; the power/heater totals come out of the
  // chunk-ordered reduction, so the plan is bit-identical for every thread
  // count.
  using Totals = std::pair<double, std::size_t>;
  const auto [total_power, heater_count] = util::parallel_reduce(
      n, util::kKernelGrain, Totals{0.0, 0},
      [&](std::size_t begin, std::size_t end) {
        Totals t{0.0, 0};
        for (std::size_t i = begin; i < end; ++i) {
          plan.trims[i] = trim_for_misalignment(misalignments[i], params);
          t.first += plan.trims[i].power;
          t.second += plan.trims[i].uses_heater ? 1 : 0;
        }
        return t;
      },
      [](Totals acc, const Totals& t) {
        acc.first += t.first;
        acc.second += t.second;
        return acc;
      });
  plan.total_power = total_power;
  plan.heater_count = heater_count;
  return plan;
}
}  // namespace

CalibrationPlan per_ring_plan(const std::vector<double>& ring_temperature_errors,
                              const CalibrationParams& params) {
  PH_REQUIRE(!ring_temperature_errors.empty(), "no rings to calibrate");
  const std::size_t n = ring_temperature_errors.size();
  std::vector<double> misalignments(n);
  util::parallel_for(n, util::kKernelGrain, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      misalignments[i] = ring_temperature_errors[i] * params.thermal_sensitivity;
    }
  });
  return plan_from_misalignments(misalignments, params);
}

ClusteredPlan clustered_plan(const std::vector<double>& ring_temperature_errors,
                             const std::vector<std::size_t>& cluster_of,
                             const CalibrationParams& params) {
  PH_REQUIRE(ring_temperature_errors.size() == cluster_of.size(),
             "one cluster id per ring required");
  PH_REQUIRE(!ring_temperature_errors.empty(), "no rings to calibrate");

  std::map<std::size_t, std::pair<double, std::size_t>> accumulator;  // sum, count
  for (std::size_t i = 0; i < cluster_of.size(); ++i) {
    auto& [sum, count] = accumulator[cluster_of[i]];
    sum += ring_temperature_errors[i];
    ++count;
  }

  std::vector<double> cluster_misalignments;
  cluster_misalignments.reserve(accumulator.size());
  std::map<std::size_t, double> cluster_mean;
  for (const auto& [cluster, acc] : accumulator) {
    const double mean = acc.first / static_cast<double>(acc.second);
    cluster_mean[cluster] = mean;
    cluster_misalignments.push_back(mean * params.thermal_sensitivity);
  }

  ClusteredPlan result;
  result.plan = plan_from_misalignments(cluster_misalignments, params);
  result.worst_residual = util::parallel_reduce(
      cluster_of.size(), util::kKernelGrain, 0.0,
      [&](std::size_t begin, std::size_t end) {
        double worst = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
          const double residual_dt =
              std::abs(ring_temperature_errors[i] - cluster_mean.at(cluster_of[i]));
          worst = std::max(worst, residual_dt * params.thermal_sensitivity);
        }
        return worst;
      },
      [](double acc, double w) { return std::max(acc, w); });
  return result;
}

double network_calibration_power(std::size_t ring_count, double typical_misalignment,
                                 const CalibrationParams& params) {
  PH_REQUIRE(ring_count > 0, "network needs at least one ring");
  PH_REQUIRE(typical_misalignment >= 0.0, "misalignment magnitude must be non-negative");
  // Half the rings land red of their channel (blue-tunable), half blue
  // (must be heated): the expected per-ring cost is the mean of the two
  // tuning efficiencies.
  const double mean_uw_per_nm =
      0.5 * (params.blue_shift_uw_per_nm + params.red_shift_uw_per_nm);
  return static_cast<double>(ring_count) * mean_uw_per_nm * 1e-6 *
         (typical_misalignment * 1e9);
}

}  // namespace photherm::noc
