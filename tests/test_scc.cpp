#include "soc/scc.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace photherm::soc {
namespace {

TEST(SccBuilder, StackOrderAndThicknesses) {
  SccBuilder builder;
  const SccSystem system = builder.build();
  const auto& z = system.z;
  EXPECT_GT(z.beol_hi, z.beol_lo);
  EXPECT_GT(z.optical_lo, z.beol_hi);      // bonding layer between
  EXPECT_GT(z.optical_hi, z.optical_lo);
  EXPECT_NEAR(z.optical_hi - z.optical_lo, 4e-6, 1e-12);   // Fig. 7: ~4 um
  EXPECT_NEAR(z.beol_hi - z.beol_lo, 15e-6, 1e-12);        // metal layers
  EXPECT_GT(z.stack_top, 6e-3);  // back plate + boards + lid dominate
  const auto bb = system.scene.bounding_box();
  EXPECT_NEAR(bb.hi.x, 26.5e-3, 1e-9);
  EXPECT_NEAR(bb.hi.y, 21.4e-3, 1e-9);
}

TEST(SccBuilder, UniformActivityPower) {
  SccBuilder builder;
  builder.set_activity(power::ActivityKind::kUniform, 25.0);
  const SccSystem system = builder.build();
  EXPECT_NEAR(system.scene.total_power(), 25.0, 1e-9);
  EXPECT_EQ(system.tiles.tile_count(), 24u);
  EXPECT_EQ(system.onis.size(), 0u);
}

TEST(SccBuilder, OniPlacementAndPower) {
  SccBuilder builder;
  OniPowerConfig power;
  power.p_vcsel = 1e-3;
  power.p_driver = 1e-3;
  power.p_heater = 0.3e-3;
  power.active_tx_per_waveguide = 4;
  builder.set_oni_power(power);
  builder.add_oni_on_tile(2, 1).add_oni(5e-3, 5e-3);
  const SccSystem system = builder.build();
  ASSERT_EQ(system.onis.size(), 2u);
  // 2 ONIs x (16 lasers x 2 mW + 16 heaters x 0.3 mW).
  EXPECT_NEAR(system.scene.total_power(), 2 * (16 * 2e-3 + 16 * 0.3e-3), 1e-9);
  // Footprints on the optical layer.
  for (const auto& oni : system.onis) {
    EXPECT_NEAR(oni.footprint.lo.z, system.z.optical_lo, 1e-12);
    EXPECT_NEAR(oni.footprint.hi.z, system.z.optical_hi, 1e-12);
  }
  // Second ONI centred at (5, 5) mm.
  const auto c = system.onis[1].footprint.center();
  EXPECT_NEAR(c.x, 5e-3, 1e-9);
  EXPECT_NEAR(c.y, 5e-3, 1e-9);
}

TEST(SccBuilder, RejectsOniOffDie) {
  SccBuilder builder;
  EXPECT_THROW(builder.add_oni(-1e-3, 5e-3), Error);
  EXPECT_THROW(builder.add_oni(5e-3, 50e-3), Error);
  EXPECT_THROW(builder.add_oni_on_tile(6, 0), Error);
  // ONI centred too close to the edge: footprint exceeds the die.
  builder.add_oni(0.05e-3, 5e-3);
  EXPECT_THROW(builder.build(), Error);
}

TEST(SccBuilder, RandomActivitySeeded) {
  SccBuilder a, b;
  a.set_activity(power::ActivityKind::kRandom, 20.0).set_seed(5);
  b.set_activity(power::ActivityKind::kRandom, 20.0).set_seed(5);
  const auto pa = a.build();
  const auto pb = b.build();
  // Same seed -> identical tile blocks.
  for (std::size_t i = 0; i < pa.scene.size(); ++i) {
    EXPECT_DOUBLE_EQ(pa.scene[i].power, pb.scene[i].power);
  }
}

TEST(SccBuilder, ConfigValidation) {
  SccPackageConfig config;
  config.heat_source_thickness = 1.0;  // exceeds BEOL
  EXPECT_THROW(SccBuilder{config}, Error);
  config = SccPackageConfig{};
  config.die_x = 0.0;
  EXPECT_THROW(SccBuilder{config}, Error);
}

}  // namespace
}  // namespace photherm::soc
