/// Device-option ablations on the SNR model (DESIGN.md): what the paper's
/// network would gain from (a) athermal MR cladding [9], (b) higher-order
/// ring filters, and (c) narrower ring passbands — all evaluated on the
/// 46.8 mm ring under the diagonal activity where thermal crosstalk bites.
#include <cmath>
#include <iostream>

#include "core/tech.hpp"
#include "noc/snr.hpp"
#include "util/csv.hpp"

int main() {
  using namespace photherm;

  // A fixed thermal scenario (from the Fig. 12 diagonal run): 12 ONIs with
  // a ~2.5 degC spread around 59 degC.
  const std::size_t nodes = 12;
  std::vector<double> temps;
  for (std::size_t i = 0; i < nodes; ++i) {
    temps.push_back(58.0 + 2.5 * 0.5 * (1.0 + std::sin(0.5 + 2.0 * 3.14159 *
                                                       static_cast<double>(i) /
                                                       static_cast<double>(nodes))));
  }
  const noc::RingTopology ring = noc::RingTopology::uniform(nodes, 46.8e-3);
  const noc::OrnocAssigner assigner(nodes, 4, 8);
  const auto comms = assigner.assign(noc::spread_requests(nodes, 3));

  struct Variant {
    const char* name;
    double athermal;
    bool locked_laser;  ///< wavelength-locked VCSEL (no thermal drift)
    int order;
    double bw;
  };
  const Variant variants[] = {
      {"paper baseline (order 1, 1.55 nm)", 1.0, false, 1, 1.55e-9},
      {"athermal rings only (ref [9])", 0.0, false, 1, 1.55e-9},
      {"athermal rings + locked lasers", 0.0, true, 1, 1.55e-9},
      {"half-compensated cladding", 0.5, false, 1, 1.55e-9},
      {"2nd-order filters", 1.0, false, 2, 1.55e-9},
      {"narrow rings (0.8 nm)", 1.0, false, 1, 0.8e-9},
      {"2nd-order + athermal + locked", 0.0, true, 2, 1.55e-9},
  };

  Table table({"variant", "worst SNR (dB)", "min signal (mW)", "max crosstalk (uW)"});
  for (const Variant& variant : variants) {
    noc::SnrModelConfig model = core::make_snr_model();
    model.microring.athermal_factor = variant.athermal;
    model.microring.filter_order = variant.order;
    model.microring.bandwidth_3db = variant.bw;
    if (variant.locked_laser) {
      model.vcsel.dlambda_dt = 0.0;
    }
    const noc::SnrAnalyzer analyzer(ring, model);
    const auto result = analyzer.analyze(comms, temps, 3.6e-3);
    table.add_row({std::string(variant.name), result.worst_snr_db,
                   result.min_signal_power * 1e3, result.max_crosstalk_power * 1e6});
  }
  print_table(std::cout,
              "Device ablations, 46.8 mm ring, diagonal-like thermal spread (~2.5 degC)",
              table);
  std::cout << "athermal rings only pay off with wavelength-stable sources: when the\n"
               "directly modulated VCSEL still drifts 0.1 nm/degC, freezing the rings\n"
               "*breaks* the common-mode tracking the paper's design relies on.\n";
  return 0;
}
