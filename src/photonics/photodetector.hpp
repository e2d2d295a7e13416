/// \file photodetector.hpp
/// \brief Large-band photodetector model. Table 1 gives a -20 dBm
/// sensitivity; a communication is detectable when its signal power clears
/// it.
#pragma once

namespace photherm::photonics {

struct PhotodetectorParams {
  double sensitivity_dbm = -20.0;  ///< minimum detectable power (Table 1)
};

class Photodetector {
 public:
  explicit Photodetector(const PhotodetectorParams& params) : params_(params) {}

  /// Sensitivity threshold in watts.
  double sensitivity_watt() const;

  /// True when `power` [W] is detectable.
  bool detects(double power) const;

 private:
  PhotodetectorParams params_;
};

}  // namespace photherm::photonics
