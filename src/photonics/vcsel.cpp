#include "photonics/vcsel.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/units.hpp"

namespace photherm::photonics {

Vcsel::Vcsel(const VcselParams& params) : params_(params) {
  PH_REQUIRE(params.wavelength > 0.0, "VCSEL wavelength must be positive");
  PH_REQUIRE(params.ith0 > 0.0, "VCSEL threshold current must be positive");
  PH_REQUIRE(params.eta_d_max > 0.0 && params.eta_d_max < 1.0,
             "differential efficiency must be in (0, 1)");
  PH_REQUIRE(params.v0 > 0.0 && params.series_resistance >= 0.0,
             "VCSEL electrical parameters must be physical");
  PH_REQUIRE(params.max_current > params.ith0, "max current must exceed the threshold");
}

double Vcsel::threshold_current(double t) const {
  const double u = (t - params_.t_th_opt) / params_.t0_th;
  return params_.ith0 * std::exp(u * u);
}

double Vcsel::differential_efficiency(double t) const {
  return params_.eta_d_max / (1.0 + std::exp((t - params_.eta_d_t_half) / params_.eta_d_t_slope));
}

double Vcsel::voltage(double i) const {
  PH_REQUIRE(i >= 0.0, "drive current must be non-negative");
  return params_.v0 + params_.series_resistance * i;
}

double Vcsel::electrical_power(double i) const { return i * voltage(i); }

double Vcsel::output_power(double i, double t) const {
  PH_REQUIRE(i >= 0.0, "drive current must be non-negative");
  const double ith = threshold_current(t);
  if (i <= ith) {
    return 0.0;
  }
  const double photon_voltage = photon_energy(params_.wavelength) / constants::kElementaryCharge;
  return differential_efficiency(t) * photon_voltage * (i - ith);
}

double Vcsel::dissipated_power(double i, double t) const {
  return electrical_power(i) - output_power(i, t);
}

double Vcsel::wall_plug_efficiency(double i, double t) const {
  if (i <= 0.0) {
    return 0.0;
  }
  return output_power(i, t) / electrical_power(i);
}

double Vcsel::emission_shift(double t) const {
  return params_.dlambda_dt * (t - params_.t_ref);
}

double Vcsel::current_for_dissipated_power(double p_diss, double t) const {
  PH_REQUIRE(p_diss >= 0.0, "dissipated power must be non-negative");
  if (p_diss == 0.0) {
    return 0.0;
  }
  // Pdiss(i) = i V(i) - Pout(i) is strictly increasing in i (the wall-plug
  // efficiency never reaches 1), so bisection on [0, i_hi] applies.
  double lo = 0.0;
  double hi = params_.max_current;
  PH_REQUIRE(dissipated_power(hi, t) >= p_diss,
             "requested dissipated power exceeds the VCSEL safe operating range");
  for (int iter = 0; iter < 100; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (dissipated_power(mid, t) < p_diss) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double Vcsel::output_power_for_dissipated(double p_diss, double t_base, double r_th) const {
  const double t_junction = t_base + r_th * p_diss;
  const double i = current_for_dissipated_power(p_diss, t_junction);
  return output_power(i, t_junction);
}

}  // namespace photherm::photonics
