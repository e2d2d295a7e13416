#include "photonics/spectrum.hpp"

#include "util/error.hpp"

namespace photherm::photonics {

ChannelPlan::ChannelPlan(const ChannelPlanParams& params) : params_(params) {
  PH_REQUIRE(params.channel_count >= 1, "a channel plan needs at least one channel");
  PH_REQUIRE(params.spacing > 0.0, "channel spacing must be positive");
  PH_REQUIRE(params.center > 0.0, "channel plan centre must be positive");
}

double ChannelPlan::wavelength(std::size_t index) const {
  PH_REQUIRE(index < params_.channel_count, "channel index out of range");
  const double offset =
      (static_cast<double>(index) - 0.5 * static_cast<double>(params_.channel_count - 1));
  return params_.center + offset * params_.spacing;
}

}  // namespace photherm::photonics
