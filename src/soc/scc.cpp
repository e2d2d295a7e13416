#include "soc/scc.hpp"

#include "geometry/stack.hpp"
#include "util/error.hpp"

namespace photherm::soc {

using geometry::Box3;
using geometry::Scene;
using geometry::Vec3;

SccBuilder::SccBuilder(SccPackageConfig config, OniLayoutParams oni_layout)
    : config_(config), oni_layout_(oni_layout) {
  PH_REQUIRE(config_.die_x > 0.0 && config_.die_y > 0.0, "die footprint must be positive");
  PH_REQUIRE(config_.tiles_x >= 1 && config_.tiles_y >= 1, "tile grid must be non-empty");
  PH_REQUIRE(config_.heat_source_thickness <= config_.beol,
             "heat source slice must fit in the BEOL");
}

SccBuilder& SccBuilder::set_activity(power::ActivityKind kind, double total_power) {
  PH_REQUIRE(total_power >= 0.0, "chip power must be non-negative");
  activity_ = kind;
  total_power_ = total_power;
  return *this;
}

SccBuilder& SccBuilder::set_seed(std::uint64_t seed) {
  seed_ = seed;
  return *this;
}

SccBuilder& SccBuilder::add_oni(double x, double y) {
  PH_REQUIRE(x >= 0.0 && x <= config_.die_x && y >= 0.0 && y <= config_.die_y,
             "ONI centre must lie on the die");
  oni_centers_.push_back({x, y, 0.0});
  return *this;
}

SccBuilder& SccBuilder::add_oni_on_tile(std::size_t i, std::size_t j) {
  PH_REQUIRE(i < config_.tiles_x && j < config_.tiles_y, "tile index out of range");
  const double pitch_x = config_.die_x / static_cast<double>(config_.tiles_x);
  const double pitch_y = config_.die_y / static_cast<double>(config_.tiles_y);
  oni_centers_.push_back(
      {(static_cast<double>(i) + 0.5) * pitch_x, (static_cast<double>(j) + 0.5) * pitch_y, 0.0});
  return *this;
}

SccBuilder& SccBuilder::set_oni_power(const OniPowerConfig& power) {
  oni_power_ = power;
  return *this;
}

SccSystem SccBuilder::build() const {
  Scene scene;

  // --- Vertical stack (Fig. 7), bottom-up. -------------------------------
  geometry::LayerStackBuilder stack(config_.die_x, config_.die_y);
  SccZMap z;
  stack.add_layer({"back_plate", "steel", config_.back_plate, geometry::BlockKind::kPackage});
  stack.add_layer({"motherboard", "fr4", config_.motherboard, geometry::BlockKind::kPackage});
  stack.add_layer({"substrate", "fr4", config_.substrate, geometry::BlockKind::kPackage});
  stack.add_layer({"c4", "underfill", config_.c4, geometry::BlockKind::kPackage});
  stack.add_layer(
      {"interposer", "silicon_interposer", config_.interposer, geometry::BlockKind::kPackage});
  stack.add_layer({"si_bulk", "silicon", config_.si_bulk});
  z.beol_lo = stack.top();
  stack.add_layer({"beol", "beol", config_.beol});
  z.beol_hi = stack.top();
  stack.add_layer({"bonding", "bonding", config_.bonding});
  z.optical_lo = stack.top();
  stack.add_layer({"optical", "optical_matrix", config_.optical});
  z.optical_hi = stack.top();
  stack.add_layer({"epoxy", "epoxy", config_.epoxy});
  stack.add_layer({"si_cap", "silicon", config_.si_cap});
  stack.add_layer({"tim", "tim", config_.tim, geometry::BlockKind::kPackage});
  stack.add_layer({"lid", "copper", config_.lid, geometry::BlockKind::kPackage});
  z.stack_top = stack.top();
  stack.emit(scene);

  // Heat sources occupy the bottom slice of the BEOL (Sec. IV-B: "the heat
  // sources ... are represented as rectangular blocks ... in the BEOL").
  z.heat_lo = z.beol_lo;
  z.heat_hi = z.beol_lo + config_.heat_source_thickness;

  // --- Tile activity. ------------------------------------------------------
  const power::TileGrid tiles(Box3::make({0, 0, z.heat_lo}, {config_.die_x, config_.die_y, z.heat_hi}),
                              config_.tiles_x, config_.tiles_y);
  std::vector<double> tile_powers;
  if (activity_) {
    Rng rng(seed_);
    tile_powers = power::generate_activity(tiles, *activity_, total_power_, rng);
  } else {
    tile_powers.assign(tiles.tile_count(), 0.0);
  }
  power::add_heat_sources(scene, tiles, tile_powers, z.heat_lo, z.heat_hi, "beol");

  // --- ONIs on the optical layer. -----------------------------------------
  const OniBuilder oni_builder(oni_layout_);
  std::vector<OniInstance> onis;
  for (std::size_t k = 0; k < oni_centers_.size(); ++k) {
    const Vec3& c = oni_centers_[k];
    const Vec3 origin{c.x - oni_builder.footprint_x() / 2, c.y - oni_builder.footprint_y() / 2,
                      0.0};
    PH_REQUIRE(origin.x >= 0.0 && origin.y >= 0.0 &&
                   origin.x + oni_builder.footprint_x() <= config_.die_x &&
                   origin.y + oni_builder.footprint_y() <= config_.die_y,
               "ONI footprint exceeds the die");
    onis.push_back(
        oni_builder.emit(scene, origin, static_cast<int>(k), z.oni_ranges(), oni_power_));
  }

  return SccSystem{std::move(scene), z, tiles, std::move(onis), config_};
}

}  // namespace photherm::soc
