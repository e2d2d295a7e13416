#include "photonics/photodetector.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/units.hpp"

namespace photherm::photonics {
namespace {

TEST(Photodetector, SensitivityThreshold) {
  // Table 1: -20 dBm = 0.01 mW.
  const Photodetector pd{PhotodetectorParams{}};
  EXPECT_NEAR(pd.sensitivity_watt(), 1e-5, 1e-12);
  EXPECT_TRUE(pd.detects(2e-5));
  EXPECT_TRUE(pd.detects(1e-5));
  EXPECT_FALSE(pd.detects(0.9e-5));
}

TEST(Photodetector, Validation) {
  const Photodetector ok{PhotodetectorParams{}};
  EXPECT_THROW(ok.detects(-1.0), Error);
}

}  // namespace
}  // namespace photherm::photonics
