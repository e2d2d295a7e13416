/// Golden-value regression tests pinning key paper quantities at coarse
/// resolution. These exist so future performance/refactor PRs cannot
/// silently drift the physics: the exact numbers below were produced by the
/// seed implementation and agree with the paper's published anchors
/// (Fig. 5-b, Fig. 9-a, Table 1). If a change moves one of these outside
/// its tolerance, it changed the model — not just the code.
#include <gtest/gtest.h>

#include "core/design_space.hpp"
#include "core/tech.hpp"
#include "photonics/microring.hpp"
#include "photonics/vcsel.hpp"
#include "support/fixtures.hpp"

namespace photherm {
namespace {

// ---------------------------------------------------------------------------
// Table 1: technological parameters (exact — these ARE the paper's table).
// ---------------------------------------------------------------------------

TEST(GoldenTable1, TechnologyParameters) {
  const core::TechnologyParameters tech;
  EXPECT_DOUBLE_EQ(tech.wavelength, 1550e-9);
  EXPECT_DOUBLE_EQ(tech.bandwidth_3db, 1.55e-9);
  EXPECT_DOUBLE_EQ(tech.pd_sensitivity_dbm, -20.0);
  EXPECT_DOUBLE_EQ(tech.thermal_sensitivity, 0.1e-9);
  EXPECT_DOUBLE_EQ(tech.propagation_loss_db_cm, 0.5);
  EXPECT_DOUBLE_EQ(tech.taper_coupling, 0.70);
}

TEST(GoldenTable1, DerivedDeviceAnchors) {
  const core::TechnologyParameters tech;
  const auto model = core::make_snr_model(tech);
  const photonics::Vcsel vcsel(model.vcsel);
  // Paper Sec. III-C: wall-plug efficiency ~15 % at 40 degC and ~4 % at
  // 60 degC for a 5 mA drive. Golden values from the seed implementation.
  EXPECT_NEAR(vcsel.wall_plug_efficiency(5e-3, 40.0), 0.16073, 5e-4);
  EXPECT_NEAR(vcsel.wall_plug_efficiency(5e-3, 60.0), 0.04167, 5e-4);
  // 50 % wrong drop corresponds to a 7.75 degC neighbour-ONI difference.
  EXPECT_NEAR(0.5 * tech.bandwidth_3db / tech.thermal_sensitivity, 7.75, 1e-9);
}

// ---------------------------------------------------------------------------
// Fig. 5-b: microring transmission vs wavelength misalignment.
// ---------------------------------------------------------------------------

TEST(GoldenFig5, MicroringTransmissionAnchors) {
  const auto model = core::make_snr_model();
  const photonics::MicroRing ring(model.microring);
  // On-resonance the drop port takes all the power.
  EXPECT_NEAR(ring.drop_fraction_detuned(0.0), 1.0, 1e-9);
  // Half the 3-dB bandwidth -> exactly 50 % drop (the paper's key anchor).
  EXPECT_NEAR(ring.drop_fraction_detuned(0.775e-9), 0.5, 1e-6);
  EXPECT_NEAR(ring.drop_fraction_detuned(-0.775e-9), 0.5, 1e-6);
  // One full bandwidth out: Lorentzian tail, golden value 0.2.
  EXPECT_NEAR(ring.drop_fraction_detuned(1.55e-9), 0.2, 1e-6);
  // The response is symmetric and monotonically decreasing in |detuning|.
  double previous = 1.0;
  for (double d_nm = 0.25; d_nm <= 3.0; d_nm += 0.25) {
    const double drop = ring.drop_fraction_detuned(d_nm * 1e-9);
    EXPECT_NEAR(ring.drop_fraction_detuned(-d_nm * 1e-9), drop, 1e-12);
    EXPECT_LT(drop, previous);
    previous = drop;
  }
}

// ---------------------------------------------------------------------------
// Fig. 9-a: ONI average temperature vs PVCSEL and Pchip (coarse mesh).
// ---------------------------------------------------------------------------

core::OnocDesignSpec fig9a_spec() {
  core::OnocDesignSpec spec;
  spec.placement = core::OniPlacementMode::kAllTiles;
  spec.activity = power::ActivityKind::kUniform;
  spec.heater_ratio = 0.0;
  spec.oni_cell_xy = 10e-6;
  spec.global_cell_xy = 2e-3;
  return spec;
}

TEST(GoldenFig9a, AverageTemperatureSweep) {
  const auto sweep =
      core::sweep_vcsel_chip_power(fig9a_spec(), {12.5, 25.0}, {0.0, 6e-3});
  ASSERT_EQ(sweep.size(), 4u);
  const auto at = [&](double chip, double vcsel) {
    for (const auto& row : sweep) {
      if (row.p_chip == chip && row.p_vcsel == vcsel) {
        return row;
      }
    }
    ADD_FAILURE() << "sweep point not found";
    return sweep.front();
  };
  // Golden averages from the seed implementation at this resolution.
  const double tol = 0.05;  // degC
  EXPECT_NEAR(at(12.5, 0.0).average, 43.316, tol);
  EXPECT_NEAR(at(12.5, 6e-3).average, 57.840, tol);
  EXPECT_NEAR(at(25.0, 0.0).average, 49.633, tol);
  EXPECT_NEAR(at(25.0, 6e-3).average, 64.156, tol);
  // Lasers dominate the intra-ONI gradient (Fig. 9-b motivation).
  EXPECT_NEAR(at(12.5, 6e-3).gradient, 8.292, 0.05);
  EXPECT_LT(at(12.5, 0.0).gradient, 0.2);

  // Paper-trend anchors: ~0.53 degC per W of chip power, ~1.8 degC per mW
  // of laser power (coarse mesh runs a bit hotter on the laser slope).
  const double chip_slope =
      (at(25.0, 0.0).average - at(12.5, 0.0).average) / 12.5;
  const double vcsel_slope =
      (at(12.5, 6e-3).average - at(12.5, 0.0).average) / 6.0;
  EXPECT_NEAR(chip_slope, 0.53, 0.15);
  EXPECT_GT(vcsel_slope, 1.0);
  EXPECT_LT(vcsel_slope, 3.5);
}

}  // namespace
}  // namespace photherm
