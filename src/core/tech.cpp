#include "core/tech.hpp"

namespace photherm::core {

noc::SnrModelConfig make_snr_model(const TechnologyParameters& tech) {
  noc::SnrModelConfig config;
  config.vcsel.wavelength = tech.wavelength;
  config.vcsel.dlambda_dt = tech.thermal_sensitivity;
  config.microring.bandwidth_3db = tech.bandwidth_3db;
  config.microring.dlambda_dt = tech.thermal_sensitivity;
  config.waveguide.propagation_loss_db_per_cm = tech.propagation_loss_db_cm;
  config.taper.coupling_efficiency = tech.taper_coupling;
  config.photodetector.sensitivity_dbm = tech.pd_sensitivity_dbm;
  config.channels.center = tech.wavelength;
  return config;
}

Table technology_table(const TechnologyParameters& tech) {
  Table table({"Parameter", "Value"});
  table.add_row({std::string("Wavelength range"), std::string("1550 nm")});
  table.add_row({std::string("BW3-dB"), tech.bandwidth_3db * 1e9});
  table.add_row({std::string("Photodetector sensitivity (dBm)"), tech.pd_sensitivity_dbm});
  table.add_row({std::string("Thermal sensitivity (nm/degC)"), tech.thermal_sensitivity * 1e9});
  table.add_row({std::string("Propagation loss (dB/cm)"), tech.propagation_loss_db_cm});
  table.add_row({std::string("Taper coupling efficiency"), tech.taper_coupling});
  return table;
}

}  // namespace photherm::core
