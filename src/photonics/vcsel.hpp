/// \file vcsel.hpp
/// \brief CMOS-compatible VCSEL model (paper Sec. III-C, Fig. 8).
///
/// The laser is modelled with the standard above-threshold L-I relation
///   Pout(I, T) = eta_d(T) * (h nu / q) * (I - Ith(T)),
/// a temperature-dependent threshold
///   Ith(T) = Ith0 * exp(((T - T_th_opt) / T0)^2),
/// a logistic derating of the differential efficiency eta_d(T), and an
/// electrical junction V(I) = V0 + Rs * I. The default parameters are
/// calibrated to the paper's anchor points: wall-plug efficiency ~15 % at
/// 40 degC dropping to ~4 % at 60 degC (Sec. III-C), 1550 nm emission.
#pragma once

namespace photherm::photonics {

struct VcselParams {
  double wavelength = 1550e-9;     ///< emission wavelength at t_ref (photon energy) [m]
  double dlambda_dt = 0.1e-9;      ///< emission shift [m/degC]
  double t_ref = 25.0;             ///< reference temperature [degC]

  double v0 = 0.95;                ///< diode knee voltage [V]
  double series_resistance = 55.0; ///< [ohm]

  double ith0 = 0.30e-3;           ///< minimum threshold current [A]
  double t_th_opt = 20.0;          ///< temperature of minimum threshold [degC]
  double t0_th = 55.0;             ///< threshold broadening [degC]

  double eta_d_max = 0.46;         ///< low-temperature differential quantum eff.
  double eta_d_t_half = 43.0;      ///< logistic midpoint [degC]
  double eta_d_t_slope = 10.0;     ///< logistic width [degC]

  double max_current = 20e-3;      ///< safe operating limit [A]
};

/// Immutable VCSEL model.
class Vcsel {
 public:
  explicit Vcsel(const VcselParams& params);

  const VcselParams& params() const { return params_; }

  /// Threshold current at junction temperature `t` [A].
  double threshold_current(double t) const;

  /// Differential (slope) quantum efficiency at `t`, dimensionless in (0, 1).
  double differential_efficiency(double t) const;

  /// Junction voltage at drive current `i` [V].
  double voltage(double i) const;

  /// Electrical input power I * V(I) [W].
  double electrical_power(double i) const;

  /// Emitted optical power OPVCSEL at drive `i`, junction temperature `t`
  /// [W]; zero below threshold.
  double output_power(double i, double t) const;

  /// Heat dissipated in the device: electrical power minus emitted light [W].
  double dissipated_power(double i, double t) const;

  /// Wall-plug efficiency Pout / Pelec (the paper's eta_VCSEL, Fig. 8-b).
  double wall_plug_efficiency(double i, double t) const;

  /// Thermal drift of the emission wavelength at junction temperature `t`
  /// away from its value at t_ref [m].
  double emission_shift(double t) const;

  /// Inverse model: drive current whose *dissipated* power equals `p_diss`
  /// at fixed junction temperature `t`. Monotonic in i; solved by bisection.
  double current_for_dissipated_power(double p_diss, double t) const;

  /// Emitted power vs dissipated power including self-heating: the Fig. 8-c
  /// characteristic. Junction temperature is t_base + r_th * p_diss.
  double output_power_for_dissipated(double p_diss, double t_base, double r_th) const;

 private:
  VcselParams params_;
};

}  // namespace photherm::photonics
