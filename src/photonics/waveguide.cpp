#include "photonics/waveguide.hpp"

#include "util/error.hpp"
#include "util/units.hpp"

namespace photherm::photonics {

Waveguide::Waveguide(const WaveguideParams& params) : params_(params) {
  PH_REQUIRE(params.propagation_loss_db_per_cm >= 0.0, "propagation loss must be non-negative");
}

double Waveguide::loss_db(double length) const {
  PH_REQUIRE(length >= 0.0, "length must be non-negative");
  return params_.propagation_loss_db_per_cm * (length / 1e-2);
}

double Waveguide::transmission(double length) const { return db_to_linear(loss_db(length)); }

Taper::Taper(const TaperParams& params) : params_(params) {
  PH_REQUIRE(params.coupling_efficiency > 0.0 && params.coupling_efficiency <= 1.0,
             "taper coupling efficiency must be in (0, 1]");
}

double Taper::coupled_power(double input_power) const {
  PH_REQUIRE(input_power >= 0.0, "input power must be non-negative");
  return params_.coupling_efficiency * input_power;
}

}  // namespace photherm::photonics
