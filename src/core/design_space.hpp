/// \file design_space.hpp
/// \brief Sweep helpers for the design-space explorations of Sec. V:
/// PVCSEL x Pchip (Fig. 9-a), Pheater x PVCSEL (Fig. 9-b), heater on/off
/// (Fig. 10) and ring-length x activity (Fig. 12).
#pragma once

#include <functional>
#include <vector>

#include "core/methodology.hpp"

namespace photherm::core {

/// `count` evenly spaced values over [lo, hi] inclusive.
std::vector<double> linspace(double lo, double hi, std::size_t count);

/// One row of the Fig. 9-a sweep.
struct AvgTemperaturePoint {
  double p_chip = 0.0;     ///< [W]
  double p_vcsel = 0.0;    ///< [W]
  double average = 0.0;    ///< representative ONI average T [degC]
  double gradient = 0.0;   ///< representative ONI gradient [degC]
};

/// Sweep PVCSEL x Pchip at fixed heater ratio; evaluates the representative
/// (most central) ONI. Grid points are solved concurrently within the
/// util::concurrency() budget and returned in row-major (p_chip outer)
/// order, bit-identical across thread counts.
std::vector<AvgTemperaturePoint> sweep_vcsel_chip_power(const OnocDesignSpec& base,
                                                        const std::vector<double>& p_chip,
                                                        const std::vector<double>& p_vcsel);

/// One row of the Fig. 12 sweep.
struct SnrSweepPoint {
  int ring_case = 0;
  double waveguide_length = 0.0;  ///< [m]
  power::ActivityKind activity = power::ActivityKind::kUniform;
  double worst_snr_db = 0.0;
  double signal_power = 0.0;      ///< worst-case received signal [W]
  double crosstalk_power = 0.0;   ///< crosstalk at the worst receiver [W]
  double oni_t_min = 0.0;
  double oni_t_max = 0.0;
};

/// Sweep the three ring cases across activities (Fig. 12). Scenario solves
/// run concurrently within the util::concurrency() budget; row order
/// (activity outer, case inner) and values are independent of the thread
/// count.
std::vector<SnrSweepPoint> sweep_snr(const OnocDesignSpec& base,
                                     const std::vector<int>& ring_cases,
                                     const std::vector<power::ActivityKind>& activities);

}  // namespace photherm::core
