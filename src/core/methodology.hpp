/// \file methodology.hpp
/// \brief The paper's contribution: the thermal-aware design methodology
/// (Fig. 3). Pipeline: system specification -> steady-state thermal
/// simulation (two-level FVM) -> per-ONI temperature/gradient extraction ->
/// MR-heater design-space exploration -> SNR analysis -> design report.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/spec.hpp"
#include "noc/snr.hpp"
#include "soc/placement.hpp"
#include "thermal/two_level.hpp"
#include "util/csv.hpp"

namespace photherm::core {

/// Thermal summary of one ONI.
struct OniThermalReport {
  int oni = 0;
  double average = 0.0;        ///< ONI average temperature [degC]
  /// The paper's "gradient temperature" of an interface: spread between
  /// the per-device average temperatures (hot lasers vs cooler rings).
  double gradient = 0.0;
  double peak_spread = 0.0;    ///< raw max - min over every cell of the ONI
  double vcsel_average = 0.0;  ///< average over the VCSEL volumes
  double mr_average = 0.0;     ///< average over the MR volumes
  double vcsel_to_mr = 0.0;    ///< laser-to-ring average difference
};

struct ThermalReport {
  std::vector<OniThermalReport> onis;
  double chip_average = 0.0;    ///< over the heat-source layer
  double max_gradient = 0.0;    ///< worst intra-ONI gradient
  double oni_average = 0.0;     ///< mean of the ONI averages
  double oni_spread = 0.0;      ///< max - min of the ONI averages

  const OniThermalReport& hottest() const;
  Table to_table() const;
};

struct SnrReport {
  noc::NetworkResult network;
  double waveguide_length = 0.0;  ///< ring perimeter [m]
  std::size_t oni_count = 0;

  Table to_table() const;
};

struct DesignReport {
  OnocDesignSpec spec;
  ThermalReport thermal;
  std::optional<SnrReport> snr;  ///< absent for kAllTiles placement

  /// Design verdict: gradient below 1 degC (paper Sec. IV-C constraint)
  /// and every link closes.
  bool gradient_ok() const;
  bool links_ok() const;
};

/// Reusable product of the coarse global pass of the two-level scheme: the
/// built system plus the coarse package-scale ThermalField. Immutable after
/// construction and safe to share read-only across threads — the batch
/// runner (scenario/batch_runner.hpp) caches one per distinct
/// global_scene_key() and fans the per-ONI local-window solves of many
/// scenarios out over it.
struct CoarseGlobalSolve {
  soc::SccSystem system;
  thermal::ThermalField field;
};

/// Orchestrates the methodology for one design point; reusable across
/// sweeps (benches mutate the spec between runs).
class ThermalAwareDesigner {
 public:
  /// Validates the spec (OnocDesignSpec::validate) before any meshing.
  explicit ThermalAwareDesigner(OnocDesignSpec spec);

  const OnocDesignSpec& spec() const { return spec_; }

  /// Build the 3-D system (scene + ONIs) for the current spec.
  soc::SccSystem build_system() const;

  /// Package boundary conditions for the current spec. Public so the
  /// timeline engine (timeline/playback.hpp) can assemble the transient
  /// stepping problem on the same scene the steady-state pipeline solves.
  thermal::BoundarySet boundary_conditions() const;

  /// Mesh options of the coarse package-scale pass (what solve_global()
  /// meshes with). Public for the same reason as boundary_conditions().
  mesh::MeshOptions global_mesh_options() const;

  /// Deterministic serialization of everything the coarse global solve
  /// depends on: scene blocks with material properties, boundary
  /// conditions and global mesh options (every designer solves with the
  /// default thermal::SteadyStateOptions). Two specs with equal keys
  /// produce bit-identical global fields (and identical systems), so the
  /// key is safe to use as a solve-cache key. Local-only knobs (oni_cell_*,
  /// window_margin) and SNR knobs (fanout, waveguides, wdm_channels, tech)
  /// deliberately do not enter the key.
  std::string global_scene_key() const;

  /// Run the coarse global pass: build the system and solve the
  /// package-scale steady state.
  CoarseGlobalSolve solve_global() const;

  /// Steady-state thermal evaluation: coarse global solve plus a fine
  /// window per ONI. When `only_oni` is set, just that interface is
  /// refined (cuts sweep cost; the paper's Fig. 9 tracks one interface).
  /// The per-ONI local-window solves are independent and run on the shared
  /// pool with index-ordered collection — results are bit-identical for
  /// every thread count.
  ThermalReport evaluate_thermal(std::optional<int> only_oni = std::nullopt) const;

  /// Same, reusing a coarse global solve produced by `solve_global()` of a
  /// spec with an equal `global_scene_key()` (e.g. this one). Bit-identical
  /// to the self-solving overload.
  ThermalReport evaluate_thermal(const CoarseGlobalSolve& global,
                                 std::optional<int> only_oni = std::nullopt) const;

  /// SNR analysis from ONI temperatures (ring placement only).
  SnrReport analyze_snr(const ThermalReport& thermal) const;

  /// Full pipeline.
  DesignReport run() const;

  /// Full pipeline on a shared coarse global solve (see evaluate_thermal).
  DesignReport run(const CoarseGlobalSolve& global) const;

 private:
  thermal::TwoLevelOptions two_level_options() const;
  OniThermalReport evaluate_oni_window(const soc::SccSystem& system,
                                       const thermal::BoundarySet& bcs,
                                       const thermal::TwoLevelOptions& options,
                                       const soc::OniInstance& oni,
                                       const thermal::ThermalField& global_field) const;

  OnocDesignSpec spec_;
};

/// Explore heater ratios and return (ratio, worst gradient, average) rows —
/// the Fig. 9-b / Fig. 10 experiment in library form. The gradient is
/// evaluated on the representative ONI closest to the die centre. Ratios
/// are solved concurrently within the util::concurrency() budget and
/// returned in input order, bit-identical across thread counts.
struct HeaterSweepPoint {
  double heater_ratio = 0.0;
  double p_heater = 0.0;       ///< [W]
  double gradient = 0.0;       ///< [degC]
  double oni_average = 0.0;    ///< [degC]
};

std::vector<HeaterSweepPoint> explore_heater_ratios(const OnocDesignSpec& base,
                                                    const std::vector<double>& ratios);

/// Pick the sweep point with the smallest gradient.
const HeaterSweepPoint& best_heater_point(const std::vector<HeaterSweepPoint>& sweep);

}  // namespace photherm::core
