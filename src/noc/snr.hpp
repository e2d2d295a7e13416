/// \file snr.hpp
/// \brief Analytical worst-case SNR model of the ORNoC ring under a thermal
/// map (paper Sec. IV-C).
///
/// For each communication Csd the signal is generated by the source VCSEL
/// (power and wavelength depend on the *source* ONI temperature), then
/// walks the ring: every receiver MR it passes drops a Lorentzian fraction
/// of its power — ideally ~0 for foreign channels, but thermal detuning
/// between ONIs shifts resonances by 0.1 nm/degC, so misrouted power
/// appears as crosstalk on intermediate photodetectors while the intended
/// receiver loses signal. SNRsd = 10 log10(OPsd[sd] / sum_ij Xsd[ij]).
/// Every quantity comes from the model that owns it: the Vcsel's L-I curve
/// and thermal drift, one MicroRing designed per channel, the Waveguide loss
/// of each RingTopology hop, the Taper and the Photodetector.
#pragma once

#include <vector>

#include "noc/topology.hpp"
#include "photonics/microring.hpp"
#include "photonics/photodetector.hpp"
#include "photonics/spectrum.hpp"
#include "photonics/vcsel.hpp"
#include "photonics/waveguide.hpp"

namespace photherm::noc {

/// Device models shared by the whole network.
struct SnrModelConfig {
  photonics::VcselParams vcsel;
  /// Receiver ring design; the analyzer tunes one copy to each channel's
  /// wavelength, so `microring.resonance` is not read.
  photonics::MicroRingParams microring;
  photonics::WaveguideParams waveguide;
  photonics::TaperParams taper;
  photonics::PhotodetectorParams photodetector;
  photonics::ChannelPlanParams channels;

  /// Extra junction temperature of a VCSEL above its ONI average [degC]
  /// (the device self-heats above the interface; from the thermal model
  /// this is the VCSEL-to-ONI gradient).
  double vcsel_self_heating = 0.0;
};

struct CommResult {
  Communication comm;
  double op_vcsel = 0.0;        ///< emitted laser power [W]
  double op_net = 0.0;          ///< power injected into the waveguide [W]
  double signal_power = 0.0;    ///< received at the intended MR [W]
  double crosstalk_power = 0.0; ///< foreign power received at the intended MR [W]
  double snr_db = 0.0;
  bool detectable = false;      ///< signal clears the PD sensitivity
};

struct NetworkResult {
  std::vector<CommResult> comms;
  double worst_snr_db = 0.0;
  double min_signal_power = 0.0;     ///< [W]
  double max_crosstalk_power = 0.0;  ///< [W]
  std::size_t undetectable_count = 0;

  const CommResult& worst_comm() const;
};

/// The SNR engine. Node temperatures are the ONI averages produced by the
/// thermal solver (or any scenario vector in tests).
class SnrAnalyzer {
 public:
  SnrAnalyzer(RingTopology topology, SnrModelConfig config);

  /// Evaluate all communications under per-node temperatures with every
  /// laser dissipating `p_vcsel` [W] (the paper's PVCSEL knob, Sec. V-B):
  /// each laser's drive current is solved at its own junction temperature.
  NetworkResult analyze(const std::vector<Communication>& comms,
                        const std::vector<double>& node_temperatures,
                        double p_vcsel) const;

 private:
  RingTopology topology_;
  SnrModelConfig config_;
};

}  // namespace photherm::noc
