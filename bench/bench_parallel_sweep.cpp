/// Scaling curve of the parallel design-space sweep engine: runs the
/// Fig. 9-a style PVCSEL x Pchip grid at 1, 2, 4 and `util::concurrency()`
/// threads, reports wall-clock speedup, and verifies that every thread
/// count reproduces the serial results bit for bit (the determinism
/// contract of util/thread_pool.hpp).
///
/// Grid: 8 x 8 by default (64 independent steady-state solves);
/// PHOTHERM_FAST=1 shrinks it to 4 x 4 for smoke runs. Speedup is bounded
/// by the physical cores available — on a single-core host every thread
/// count degenerates to ~1x while results stay identical.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <vector>

#include "core/design_space.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"

int main() {
  using namespace photherm;
  using Clock = std::chrono::steady_clock;
  const bool fast = std::getenv("PHOTHERM_FAST") != nullptr;

  core::OnocDesignSpec spec;
  spec.placement = core::OniPlacementMode::kAllTiles;
  spec.activity = power::ActivityKind::kUniform;
  spec.heater_ratio = 0.0;
  // Fig. 9-a fast-mode resolution: each grid point is one coarse global
  // solve plus one fine ONI window solve.
  spec.oni_cell_xy = 10e-6;
  spec.global_cell_xy = 2e-3;

  const std::size_t axis = fast ? 4 : 8;
  const std::vector<double> p_chip = core::linspace(12.5, 31.25, axis);
  const std::vector<double> p_vcsel = core::linspace(0.0, 6e-3, axis);

  std::vector<std::size_t> thread_counts{1, 2, 4};
  if (std::find(thread_counts.begin(), thread_counts.end(), util::concurrency()) ==
      thread_counts.end()) {
    thread_counts.push_back(util::concurrency());
  }

  std::cout << "parallel sweep scaling: " << axis << " x " << axis << " grid ("
            << axis * axis << " steady-state solves), hardware concurrency = "
            << util::concurrency() << "\n\n";

  Table table({"threads", "wall time (s)", "speedup vs 1 thread", "bit-identical"});
  std::vector<core::AvgTemperaturePoint> reference;
  double serial_seconds = 0.0;
  for (std::size_t threads : thread_counts) {
    util::set_concurrency(threads);
    const auto start = Clock::now();
    const auto result = core::sweep_vcsel_chip_power(spec, p_chip, p_vcsel);
    const double seconds = std::chrono::duration<double>(Clock::now() - start).count();

    bool identical = true;
    if (threads == 1) {
      reference = result;
      serial_seconds = seconds;
    } else {
      identical = result.size() == reference.size() &&
                  std::memcmp(result.data(), reference.data(),
                              result.size() * sizeof(core::AvgTemperaturePoint)) == 0;
    }
    table.add_row({static_cast<double>(threads), seconds,
                   seconds > 0.0 ? serial_seconds / seconds : 0.0,
                   std::string(identical ? "yes" : "NO")});
    if (!identical) {
      std::cerr << "FAIL: results at " << threads
                << " threads differ from the serial sweep\n";
      return 1;
    }
  }
  print_table(std::cout, "PVCSEL x Pchip sweep wall clock vs thread count", table);
  std::cout << "\nevery row reproduces the 1-thread results bit for bit; speedup tracks\n"
               "the physical cores available to this process\n";
  return 0;
}
