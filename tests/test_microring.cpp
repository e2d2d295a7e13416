#include "photonics/microring.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/units.hpp"

namespace photherm::photonics {
namespace {

TEST(MicroRing, PaperDropAnchors) {
  // Sec. IV-C: with BW3dB = 1.55 nm, 50 % of the signal is dropped at a
  // 0.775 nm misalignment (a 7.75 degC temperature difference).
  const MicroRing ring{MicroRingParams{}};
  EXPECT_DOUBLE_EQ(ring.drop_fraction_detuned(0.0), 1.0);
  EXPECT_NEAR(ring.drop_fraction_detuned(0.775e-9), 0.5, 1e-12);
  EXPECT_NEAR(ring.drop_fraction_detuned(-0.775e-9), 0.5, 1e-12);
  EXPECT_NEAR(ring.drop_fraction_detuned(1.55e-9), 0.2, 1e-12);
}

TEST(MicroRing, MostPowerPassesWhenFarDetuned) {
  // "In case both wavelengths are significantly different (above 1.5 nm),
  // most of the input signal power continues to the through port."
  const MicroRing ring{MicroRingParams{}};
  EXPECT_LT(ring.drop_fraction_detuned(3e-9), 0.07);
  EXPECT_LT(ring.drop_fraction_detuned(6.4e-9), 0.015);
}

TEST(MicroRing, ThermalShiftMovesResonance) {
  const MicroRing ring{MicroRingParams{}};
  EXPECT_DOUBLE_EQ(ring.resonance_at(25.0), 1550e-9);
  EXPECT_NEAR(ring.resonance_at(35.0) - 1550e-9, 1e-9, 1e-16);
  // A 7.75 degC ring heating detunes a previously aligned signal to 50 %.
  EXPECT_NEAR(ring.drop_fraction(1550e-9, 25.0 + 7.75), 0.5, 1e-9);
}

TEST(MicroRing, DropPlusThroughBoundedByUnity) {
  MicroRingParams params;
  const MicroRing ring{params};
  for (double detuning_nm = -4.0; detuning_nm <= 4.0; detuning_nm += 0.1) {
    const double lambda = 1550e-9 + detuning_nm * 1e-9;
    const double drop = ring.drop_fraction(lambda, 25.0);
    const double through = ring.through_fraction(lambda, 25.0);
    EXPECT_GE(drop, 0.0);
    EXPECT_GE(through, 0.0);
    EXPECT_LE(drop + through, 1.0 + 1e-12);
  }
}

TEST(MicroRing, DropLossApplied) {
  MicroRingParams params;
  params.drop_loss_db = 3.0103;  // x0.5
  const MicroRing ring{params};
  EXPECT_NEAR(ring.dropped_power(1e-3, 1550e-9, 25.0), 0.5e-3, 1e-9);
}

TEST(MicroRing, SymmetricLineShape) {
  const MicroRing ring{MicroRingParams{}};
  for (double d = 0.1; d <= 3.0; d += 0.3) {
    EXPECT_DOUBLE_EQ(ring.drop_fraction_detuned(d * 1e-9),
                     ring.drop_fraction_detuned(-d * 1e-9));
  }
}

TEST(MicroRing, NarrowerBandwidthIsMoreSelective) {
  MicroRingParams narrow;
  narrow.bandwidth_3db = 0.4e-9;
  const MicroRing ring_narrow{narrow};
  const MicroRing ring_wide{MicroRingParams{}};
  EXPECT_LT(ring_narrow.drop_fraction_detuned(1e-9), ring_wide.drop_fraction_detuned(1e-9));
}

TEST(MicroRing, Validation) {
  MicroRingParams p;
  p.d_max = 0.0;
  EXPECT_THROW(MicroRing{p}, Error);
  p = MicroRingParams{};
  p.bandwidth_3db = -1.0;
  EXPECT_THROW(MicroRing{p}, Error);
  const MicroRing ok{MicroRingParams{}};
  EXPECT_THROW(ok.dropped_power(-1.0, 1550e-9, 25.0), Error);
}

}  // namespace
}  // namespace photherm::photonics
