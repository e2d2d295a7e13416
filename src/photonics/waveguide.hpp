/// \file waveguide.hpp
/// \brief Waveguide propagation model. Table 1: 0.5 dB/cm propagation loss
/// [3]; the VCSEL taper coupling (70 %, Fig. 2) lives here too. ORNoC is
/// crossing-free: only the crossbar baselines count crossings, with their own
/// coefficient (noc::CrossbarLossParams in noc/baselines.hpp).
#pragma once

namespace photherm::photonics {

struct WaveguideParams {
  double propagation_loss_db_per_cm = 0.5;  ///< Table 1
};

class Waveguide {
 public:
  explicit Waveguide(const WaveguideParams& params);

  /// Linear transmission over `length` [m].
  double transmission(double length) const;

  /// Loss in dB over `length` [m].
  double loss_db(double length) const;

 private:
  WaveguideParams params_;
};

/// Vertical-to-horizontal taper coupling the VCSEL into the waveguide
/// (Fig. 2-a: eta_coupling assumed 70 %).
struct TaperParams {
  double coupling_efficiency = 0.70;
};

class Taper {
 public:
  explicit Taper(const TaperParams& params);

  double coupled_power(double input_power) const;

 private:
  TaperParams params_;
};

}  // namespace photherm::photonics
