/// \file runner.hpp
/// \brief Batch transient playback: N scenarios dispatched onto the shared
/// thread pool (util/thread_pool.hpp) within the util::concurrency()
/// budget, traces collected in index order — results are bit-identical for
/// every thread count, matching the BatchRunner guarantee of the
/// steady-state scenario engine. The tables render the traces as the CLI's
/// `play` CSV payloads.
///
/// Long playbacks can pause and continue: with pause_after_steps set, run()
/// stops every playback after that many steps and returns per-scenario
/// checkpoints (timeline/checkpoint.hpp serializes them); resume() picks
/// the checkpoints back up and finishes, and the finished traces are
/// byte-identical to an uninterrupted run — at any thread count, since
/// each playback is single-threaded and index-ordered either way.
#pragma once

#include <vector>

#include "timeline/playback.hpp"
#include "util/csv.hpp"

namespace photherm::timeline {

struct TimelineBatchOptions {
  PlaybackOptions playback;
  /// Pause every playback after at most this many (further) steps and
  /// report checkpoints instead of playing to completion. 0 = never pause.
  std::size_t pause_after_steps = 0;
};

struct TimelineBatchStats {
  std::size_t scenario_count = 0;
  std::size_t total_steps = 0;
  std::size_t total_cg_iterations = 0;
  std::size_t settled_count = 0;   ///< scenarios that reached the steady field
  std::size_t periodic_count = 0;  ///< scenarios that reached a repeating cycle
  std::size_t paused_count = 0;    ///< playbacks paused by pause_after_steps
};

struct TimelineBatchResult {
  /// Index-aligned with the input scenario list.
  std::vector<TimelineTrace> traces;
  /// Checkpoints of the playbacks the pause actually caught (scenario
  /// order; playbacks that finished first are complete in `traces` and
  /// carry no checkpoint). Empty when every playback ran to completion.
  std::vector<PlaybackCheckpoint> checkpoints;
  TimelineBatchStats stats;
};

class TimelineRunner {
 public:
  /// Validates the playback options (PlaybackOptions::validate).
  explicit TimelineRunner(TimelineBatchOptions options = {});

  /// Play every scenario (pausing per pause_after_steps, see above).
  /// Throws on an empty list or an invalid spec; a playback failing inside
  /// a worker surfaces on the caller as an Error naming the scenario.
  TimelineBatchResult run(const std::vector<scenario::ScenarioSpec>& scenarios) const;

  /// Continue paused playbacks: each scenario is matched to its checkpoint
  /// by name and played on (to completion, or to another pause if
  /// pause_after_steps is still set); scenarios without a checkpoint play
  /// from the start, and checkpoints matching no scenario are refused. The
  /// finished traces are byte-identical to a run that never paused.
  TimelineBatchResult resume(const std::vector<scenario::ScenarioSpec>& scenarios,
                             const std::vector<PlaybackCheckpoint>& checkpoints) const;

 private:
  TimelineBatchResult play(const std::vector<scenario::ScenarioSpec>& scenarios,
                           const std::vector<const PlaybackCheckpoint*>& resume_from) const;

  TimelineBatchOptions options_;
};

/// Long-format time series — the CLI's `play` CSV: one row per (scenario,
/// step) with the shared probe columns. Full numeric precision, so the
/// rendered CSV is bit-identical whenever the traces are. Requires every
/// trace to carry the same probe names (true for suites built from one
/// base); throws SpecError otherwise.
Table timeline_table(const TimelineBatchResult& result);

/// One summary row per scenario: step count, settle/periodic verdicts and
/// cost (including the adaptive step-size growth).
Table timeline_summary_table(const TimelineBatchResult& result);

}  // namespace photherm::timeline
