/// \file spectrum.hpp
/// \brief WDM channel plan around the 1550 nm window. ORNoC assigns each
/// communication a (waveguide, wavelength) pair; channels are spaced so
/// that perfectly tuned neighbouring channels couple only weakly into each
/// other's rings, while thermal drift (0.1 nm/degC) erodes that margin —
/// which is exactly the effect the SNR analysis quantifies.
#pragma once

#include <cstddef>

namespace photherm::photonics {

struct ChannelPlanParams {
  double center = 1550e-9;    ///< window centre [m] (Table 1)
  /// Channel pitch [m]. With the paper's very broad 1.55 nm MR passband a
  /// coarse WDM grid is required for foreign channels to pass rings mostly
  /// untouched (CWDM-style spacing; VCSEL arrays span tens of nm).
  double spacing = 6.4e-9;
  std::size_t channel_count = 8;
};

class ChannelPlan {
 public:
  explicit ChannelPlan(const ChannelPlanParams& params);

  std::size_t size() const { return params_.channel_count; }

  /// Design wavelength of channel `index` [m]; channels straddle the centre.
  double wavelength(std::size_t index) const;

  const ChannelPlanParams& params() const { return params_; }

 private:
  ChannelPlanParams params_;
};

}  // namespace photherm::photonics
