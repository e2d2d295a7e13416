#include "util/interp.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace photherm {

std::size_t find_segment(const std::vector<double>& knots, double x) {
  PH_REQUIRE(knots.size() >= 2, "find_segment requires at least two knots");
  if (x <= knots.front()) {
    return 0;
  }
  if (x >= knots[knots.size() - 2]) {
    return knots.size() - 2;
  }
  const auto it = std::upper_bound(knots.begin(), knots.end(), x);
  return static_cast<std::size_t>(std::distance(knots.begin(), it)) - 1;
}

}  // namespace photherm
