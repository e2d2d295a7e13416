/// \file scc.hpp
/// \brief 3-D model of the Intel Single-Chip Cloud Computer (SCC) with the
/// stacked optical layer — the paper's case study (Sec. V-A, Fig. 7).
///
/// The vertical stack (bottom-up): steel back plate, motherboard, substrate,
/// C4/underfill, silicon interposer, then the "optical SoC": thinned
/// electrical silicon, BEOL metal (with the tile heat sources), bonding
/// layer, optical device layer, epoxy fill, silicon cap; finally TIM and the
/// copper lid. The heat sink + fan are lumped into an effective convection
/// coefficient on the lid's top face.
#pragma once

#include <optional>
#include <vector>

#include "geometry/block.hpp"
#include "power/activity.hpp"
#include "soc/oni.hpp"

namespace photherm::soc {

struct SccPackageConfig {
  // Die footprint and tiling (SCC: 6 x 4 tiles, 48 cores).
  double die_x = 26.5e-3;
  double die_y = 21.4e-3;
  std::size_t tiles_x = 6;
  std::size_t tiles_y = 4;

  // Layer thicknesses, bottom-up (Fig. 7).
  double back_plate = 2e-3;        ///< steel
  double motherboard = 1.6e-3;     ///< FR4
  double substrate = 1e-3;
  double c4 = 80e-6;               ///< underfill + bumps (homogenised)
  double interposer = 200e-6;
  double si_bulk = 50e-6;          ///< electrical die silicon
  double beol = 15e-6;             ///< metal layers; sources in bottom 10 um
  double bonding = 20e-6;
  double optical = 4e-6;           ///< VCSELs / MRs / waveguides
  double epoxy = 80e-6;
  double si_cap = 50e-6;
  double tim = 75e-6;
  double lid = 2e-3;               ///< copper

  double heat_source_thickness = 10e-6;  ///< BEOL slice carrying tile power

  // Boundary conditions. h_top lumps the finned sink + fan; calibrated so
  // the junction-to-ambient resistance is ~0.5 K/W (Fig. 9-a slope:
  // +3.3 degC per +6.25 W of chip power).
  double h_top = 4800.0;     ///< effective sink+fan film coefficient [W/m^2K]
  double h_bottom = 40.0;    ///< board-side natural convection
  double t_ambient = 37.0;   ///< [degC]
};

/// Vertical coordinates of the interesting layers after stacking.
struct SccZMap {
  double beol_lo = 0.0, beol_hi = 0.0;
  double heat_lo = 0.0, heat_hi = 0.0;
  double optical_lo = 0.0, optical_hi = 0.0;
  double stack_top = 0.0;

  OniZRanges oni_ranges() const { return {beol_lo, beol_hi, optical_lo, optical_hi}; }
};

/// A built system: geometry plus the bookkeeping needed by the thermal
/// post-processing and the SNR analysis.
struct SccSystem {
  geometry::Scene scene;
  SccZMap z;
  power::TileGrid tiles;
  std::vector<OniInstance> onis;
  SccPackageConfig config;
};

/// Builder: configure activity and ONI placement, then build().
class SccBuilder {
 public:
  explicit SccBuilder(SccPackageConfig config = {},
                      OniLayoutParams oni_layout = {});

  /// Total chip power distributed by `kind` over the tiles.
  SccBuilder& set_activity(power::ActivityKind kind, double total_power);

  /// Seed for the random activity.
  SccBuilder& set_seed(std::uint64_t seed);

  /// Place one ONI centred at (x, y) on the optical layer.
  SccBuilder& add_oni(double x, double y);

  /// Place one ONI centred on tile (i, j).
  SccBuilder& add_oni_on_tile(std::size_t i, std::size_t j);

  /// Uniform power configuration applied to every ONI.
  SccBuilder& set_oni_power(const OniPowerConfig& power);

  SccSystem build() const;

 private:
  SccPackageConfig config_;
  OniLayoutParams oni_layout_;
  std::optional<power::ActivityKind> activity_;
  double total_power_ = 0.0;
  std::uint64_t seed_ = 1;
  std::vector<geometry::Vec3> oni_centers_;
  OniPowerConfig oni_power_;
};

}  // namespace photherm::soc
