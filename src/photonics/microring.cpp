#include "photonics/microring.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/units.hpp"

namespace photherm::photonics {

MicroRing::MicroRing(const MicroRingParams& params) : params_(params) {
  PH_REQUIRE(params.resonance > 0.0, "MR resonance must be positive");
  PH_REQUIRE(params.bandwidth_3db > 0.0, "MR bandwidth must be positive");
  PH_REQUIRE(params.d_max > 0.0 && params.d_max <= 1.0, "MR peak drop must be in (0, 1]");
  PH_REQUIRE(params.drop_loss_db >= 0.0 && params.through_loss_db >= 0.0,
             "MR losses must be non-negative");
  PH_REQUIRE(params.filter_order >= 1, "filter order must be at least 1");
  PH_REQUIRE(params.fsr >= 0.0, "FSR must be non-negative");
  PH_REQUIRE(params.athermal_factor >= 0.0 && params.athermal_factor <= 1.0,
             "athermal factor must be in [0, 1]");
}

double MicroRing::resonance_at(double t) const {
  return params_.resonance +
         params_.athermal_factor * params_.dlambda_dt * (t - params_.t_ref);
}

double MicroRing::drop_fraction_detuned(double detuning) const {
  // Fold the detuning into the nearest resonance order when an FSR is
  // configured: the ring also drops signals one FSR away.
  double d = detuning;
  if (params_.fsr > 0.0) {
    d = std::remainder(d, params_.fsr);
  }
  const double u = 2.0 * d / params_.bandwidth_3db;
  const double lorentzian = 1.0 / (1.0 + u * u);
  return params_.d_max * std::pow(lorentzian, params_.filter_order);
}

double MicroRing::drop_fraction(double lambda, double t) const {
  return drop_fraction_detuned(lambda - resonance_at(t));
}

double MicroRing::through_fraction(double lambda, double t) const {
  return (1.0 - drop_fraction(lambda, t)) * db_to_linear(params_.through_loss_db);
}

double MicroRing::dropped_power(double input_power, double lambda, double t) const {
  PH_REQUIRE(input_power >= 0.0, "input power must be non-negative");
  return input_power * drop_fraction(lambda, t) * db_to_linear(params_.drop_loss_db);
}

}  // namespace photherm::photonics
