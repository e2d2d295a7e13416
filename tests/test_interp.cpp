#include "util/interp.hpp"

#include <gtest/gtest.h>

namespace photherm {
namespace {

TEST(FindSegment, BoundariesAndInterior) {
  const std::vector<double> knots{0.0, 1.0, 2.0, 5.0};
  EXPECT_EQ(find_segment(knots, -1.0), 0u);
  EXPECT_EQ(find_segment(knots, 0.0), 0u);
  EXPECT_EQ(find_segment(knots, 0.5), 0u);
  EXPECT_EQ(find_segment(knots, 1.0), 1u);
  EXPECT_EQ(find_segment(knots, 1.999), 1u);
  EXPECT_EQ(find_segment(knots, 4.0), 2u);
  EXPECT_EQ(find_segment(knots, 5.0), 2u);
  EXPECT_EQ(find_segment(knots, 99.0), 2u);
}

}  // namespace
}  // namespace photherm
