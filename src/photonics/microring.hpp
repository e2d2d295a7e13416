/// \file microring.hpp
/// \brief Passive microring resonator (MR) transmission model (paper Fig. 5
/// and Sec. IV-C).
///
/// Power coupling to the drop port follows a Lorentzian of the detuning:
///   D(dl) = Dmax / (1 + (2 dl / BW3dB)^2),
/// so with the paper's BW3dB = 1.55 nm, half of the input power is dropped
/// at dl = 0.775 nm — the "50 % wrongly dropped at 7.7 degC difference"
/// anchor of Sec. IV-C. The resonant wavelength red-shifts with temperature
/// at 0.1 nm/degC (Table 1).
#pragma once

namespace photherm::photonics {

struct MicroRingParams {
  /// Design resonant wavelength at t_ref [m]. The SNR analyzer designs
  /// each receiver ring for its channel's wavelength.
  double resonance = 1550e-9;
  double bandwidth_3db = 1.55e-9; ///< power-coupling FWHM [m]
  double d_max = 1.0;             ///< peak drop fraction at zero detuning
  double dlambda_dt = 0.1e-9;     ///< thermal shift [m/degC]
  double t_ref = 25.0;            ///< [degC]
  double drop_loss_db = 0.5;      ///< excess loss on the dropped signal [dB]
  double through_loss_db = 0.01;  ///< excess loss per pass-by [dB]

  /// Filter order: 1 = single ring (the paper's Lorentzian); higher-order
  /// (cascaded) designs roll off as the Lorentzian to the n-th power, a
  /// standard crosstalk-suppression option explored by the ablation bench.
  int filter_order = 1;

  /// Free spectral range [m]; 0 disables FSR aliasing. A 10 um ring has an
  /// FSR of ~18 nm at 1550 nm: signals one FSR away also couple (the
  /// clustering analysis of related work [14] hinges on this).
  double fsr = 0.0;

  /// Athermal cladding option (related work [9]): scales the thermal
  /// sensitivity (0 = perfectly athermal, 1 = plain silicon).
  double athermal_factor = 1.0;
};

class MicroRing {
 public:
  explicit MicroRing(const MicroRingParams& params);

  /// Resonant wavelength at ring temperature `t` [m].
  double resonance_at(double t) const;

  /// Drop-port power fraction for an input at `lambda` when the ring sits
  /// at temperature `t` (before drop excess loss).
  double drop_fraction(double lambda, double t) const;

  /// Drop fraction as a function of raw detuning [m].
  double drop_fraction_detuned(double detuning) const;

  /// Through-port power fraction (1 - drop, reduced by the pass-by loss).
  double through_fraction(double lambda, double t) const;

  /// Power delivered to the drop port including the drop excess loss.
  double dropped_power(double input_power, double lambda, double t) const;

 private:
  MicroRingParams params_;
};

}  // namespace photherm::photonics
