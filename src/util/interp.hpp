/// \file interp.hpp
/// \brief Knot-interval lookup on a strictly increasing abscissa vector, the
/// search behind the mesh axis cell lookup (mesh::AxisGrid::find_cell).
#pragma once

#include <cstddef>
#include <vector>

namespace photherm {

/// Index of the segment containing x in a strictly increasing knot vector:
/// returns i such that knots[i] <= x < knots[i+1], clamped to
/// [0, knots.size()-2].
std::size_t find_segment(const std::vector<double>& knots, double x);

}  // namespace photherm
