/// \file batch_runner.hpp
/// \brief Cached batch execution of scenario lists. Scenarios are
/// independent design-point evaluations, so they dispatch onto the shared
/// thread pool (util/thread_pool.hpp) within the util::concurrency()
/// budget and are collected in index order — results are bit-identical for
/// every thread count. A keyed cache shares the coarse global ThermalField
/// across scenarios whose global scene is identical
/// (core::ThermalAwareDesigner::global_scene_key), e.g. scenarios that
/// differ only in SNR knobs or local window resolution; cache hits are
/// bit-identical to cold solves because the solver itself is deterministic.
#pragma once

#include <vector>

#include "core/methodology.hpp"
#include "scenario/scenario.hpp"

namespace photherm::scenario {

struct BatchOptions {
  /// Coarse-solve cache: share the global ThermalField across scenarios
  /// with equal scene keys. Off solves every scenario cold; the reports are
  /// bit-identical either way.
  bool share_global_solves = true;
};

struct BatchStats {
  std::size_t scenario_count = 0;
  std::size_t global_solves = 0;  ///< coarse global solves actually performed
  std::size_t cache_hits = 0;     ///< scenarios served from a shared coarse field
};

struct BatchResult {
  /// Index-aligned with the input scenario list.
  std::vector<core::DesignReport> reports;
  BatchStats stats;
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {});

  /// Evaluate every scenario (full methodology pipeline on its
  /// effective_design). Throws on an empty list or an invalid spec.
  BatchResult run(const std::vector<ScenarioSpec>& scenarios) const;

 private:
  BatchOptions options_;
};

/// Per-scenario summary rows — the CLI's CSV payload. Numeric cells carry
/// full precision, so the rendered CSV is bit-identical whenever the
/// reports are. SNR columns are empty for kAllTiles scenarios.
Table batch_table(const std::vector<ScenarioSpec>& scenarios, const BatchResult& result);

}  // namespace photherm::scenario
