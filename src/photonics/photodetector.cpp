#include "photonics/photodetector.hpp"

#include "util/error.hpp"
#include "util/units.hpp"

namespace photherm::photonics {

double Photodetector::sensitivity_watt() const { return dbm_to_watt(params_.sensitivity_dbm); }

bool Photodetector::detects(double power) const {
  PH_REQUIRE(power >= 0.0, "optical power must be non-negative");
  return power >= sensitivity_watt();
}

}  // namespace photherm::photonics
