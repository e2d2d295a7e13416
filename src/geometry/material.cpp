#include "geometry/material.hpp"

#include "util/error.hpp"

namespace photherm::geometry {

namespace {
// Standard thermal properties at ~320 K. BEOL is a homogenised Cu/low-k mix
// (the paper models the back-end-of-line as a single 10-15 um layer); TIM is
// a filled thermal paste.
const Material kStandard[] = {
    {"silicon", 130.0, 2330.0, 712.0},
    {"silicon_dioxide", 1.38, 2200.0, 730.0},
    {"copper", 390.0, 8960.0, 385.0},
    {"aluminum", 237.0, 2700.0, 900.0},
    {"fr4", 0.35, 1850.0, 1100.0},
    {"steel", 45.0, 7850.0, 490.0},
    {"epoxy", 1.5, 1200.0, 1000.0},  // filled die-attach epoxy
    {"solder", 50.0, 8400.0, 180.0},
    {"tim", 4.0, 2300.0, 800.0},
    {"inp", 68.0, 4810.0, 310.0},
    {"ingaasp", 5.0, 5000.0, 330.0},
    {"air", 0.026, 1.2, 1005.0},
    {"underfill", 0.9, 1700.0, 950.0},
    {"silicon_interposer", 120.0, 2330.0, 712.0},
    {"beol", 2.25, 4000.0, 600.0},
    // Homogenised optical device layer: silicon photonic film + SiO2
    // cladding + metal heaters (lateral heat spreading dominated by the
    // crystalline silicon film).
    {"optical_matrix", 40.0, 2300.0, 720.0},
    // Oxide bonding layer homogenised with its dense TSV/via field
    // (copper-via-rich hybrid bonding).
    {"bonding", 4.0, 2600.0, 700.0},
};
}  // namespace

MaterialLibrary::MaterialLibrary() : MaterialLibrary(true) {}

MaterialLibrary::MaterialLibrary(bool populate) {
  if (populate) {
    for (const Material& m : kStandard) {
      materials_.push_back(m);
    }
  }
}

MaterialLibrary MaterialLibrary::empty() { return MaterialLibrary(false); }

MaterialId MaterialLibrary::add(Material material) {
  PH_REQUIRE(!material.name.empty(), "material name must not be empty");
  PH_REQUIRE(material.conductivity > 0.0, "material conductivity must be positive");
  PH_REQUIRE(material.density > 0.0, "material density must be positive");
  PH_REQUIRE(material.specific_heat > 0.0, "material specific heat must be positive");
  PH_REQUIRE(!contains(material.name), "duplicate material name: " + material.name);
  materials_.push_back(std::move(material));
  return MaterialId{static_cast<std::uint16_t>(materials_.size() - 1)};
}

MaterialId MaterialLibrary::id_of(const std::string& name) const {
  for (std::size_t i = 0; i < materials_.size(); ++i) {
    if (materials_[i].name == name) {
      return MaterialId{static_cast<std::uint16_t>(i)};
    }
  }
  throw SpecError("unknown material: " + name);
}

bool MaterialLibrary::contains(const std::string& name) const {
  for (const auto& m : materials_) {
    if (m.name == name) {
      return true;
    }
  }
  return false;
}

const Material& MaterialLibrary::get(MaterialId id) const {
  PH_REQUIRE(id.index < materials_.size(), "material id out of range");
  return materials_[id.index];
}

std::vector<std::string> standard_material_names() {
  std::vector<std::string> names;
  for (const Material& m : kStandard) {
    names.push_back(m.name);
  }
  return names;
}

}  // namespace photherm::geometry
