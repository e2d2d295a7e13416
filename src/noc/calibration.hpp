/// \file calibration.hpp
/// \brief Run-time MR calibration power model (paper Sec. III-B).
///
/// Device-level calibration re-aligns each microring to its channel by
/// voltage tuning (blue shift, 130 uW/nm) or heat tuning (red shift,
/// 190 uW/nm) [17]. For Corona-scale networks (~1.1e6 MRs) the paper notes
/// this budget exceeds 50 % of total network power, which motivates the
/// design-time gradient minimisation: with a < 1 degC intra-ONI gradient a
/// single trim per ONI cluster suffices instead of one per ring.
#pragma once

#include <cstddef>
#include <vector>

namespace photherm::noc {

struct CalibrationParams {
  double blue_shift_uw_per_nm = 130.0;  ///< voltage tuning [17]
  double red_shift_uw_per_nm = 190.0;   ///< heat tuning [17]
  double thermal_sensitivity = 0.1e-9;  ///< ring drift [m/degC]
  /// Largest misalignment correctable by voltage (blue) tuning before the
  /// controller must fall back to heating [m].
  double blue_shift_range = 0.4e-9;
};

/// Trim decision for one ring (or one ring cluster).
struct RingTrim {
  double misalignment = 0.0;  ///< signed resonance error [m]; >0 = red-shifted
  double power = 0.0;         ///< electrical tuning power [W]
  bool uses_heater = false;   ///< red shift (heating) vs blue shift (voltage)
};

/// Per-ring trim for a given resonance misalignment (signed, metres;
/// positive = ring is red of its channel and must be blue-shifted).
RingTrim trim_for_misalignment(double misalignment, const CalibrationParams& params);

/// Calibration plan for a set of rings given their temperature errors
/// relative to the reference each should sit at.
struct CalibrationPlan {
  std::vector<RingTrim> trims;
  double total_power = 0.0;      ///< [W]
  std::size_t heater_count = 0;  ///< rings needing red (heat) tuning
};

/// Per-ring calibration: each ring gets its own trim. Rings are trimmed
/// independently, so network-scale plans (Corona: ~1.1e6 MRs) are computed
/// on the shared thread pool within the `util::concurrency()` budget, and
/// the plan (order, powers, totals) is bit-identical for every thread
/// count.
CalibrationPlan per_ring_plan(const std::vector<double>& ring_temperature_errors,
                              const CalibrationParams& params);

/// Clustered calibration: rings are grouped (e.g. one cluster per ONI) and
/// each cluster is trimmed by its *mean* error; the residual within-cluster
/// misalignment is reported so the caller can check it against the MR
/// bandwidth budget. `cluster_of[i]` maps ring i to its cluster id.
struct ClusteredPlan {
  CalibrationPlan plan;             ///< one trim per cluster
  double worst_residual = 0.0;      ///< largest |error - cluster mean| [m]
};

/// Deterministically parallel like `per_ring_plan` (the residual scan is a
/// max-reduction, which is order-independent).
ClusteredPlan clustered_plan(const std::vector<double>& ring_temperature_errors,
                             const std::vector<std::size_t>& cluster_of,
                             const CalibrationParams& params);

/// The Sec. III-B headline: estimated calibration power for `ring_count`
/// rings with a typical absolute misalignment `typical_misalignment` [m]
/// (e.g. Corona: 1.1e6 rings, ~1 nm -> watts-scale budget).
double network_calibration_power(std::size_t ring_count, double typical_misalignment,
                                 const CalibrationParams& params);

}  // namespace photherm::noc
