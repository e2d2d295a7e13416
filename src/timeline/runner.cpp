#include "timeline/runner.hpp"

#include <exception>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace photherm::timeline {

TimelineRunner::TimelineRunner(TimelineBatchOptions options) : options_(options) {
  options_.playback.validate();
}

TimelineBatchResult TimelineRunner::run(
    const std::vector<scenario::ScenarioSpec>& scenarios) const {
  return play(scenarios, std::vector<const PlaybackCheckpoint*>(scenarios.size(), nullptr));
}

TimelineBatchResult TimelineRunner::resume(
    const std::vector<scenario::ScenarioSpec>& scenarios,
    const std::vector<PlaybackCheckpoint>& checkpoints) const {
  PH_REQUIRE(!checkpoints.empty(), "no checkpoints to resume from");
  // Scenarios without a checkpoint simply play from the start (they
  // finished before the pause fired); a checkpoint matching no scenario is
  // a wrong-suite mistake and is refused.
  std::vector<const PlaybackCheckpoint*> resume_from(scenarios.size(), nullptr);
  std::vector<char> used(checkpoints.size(), 0);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    for (std::size_t j = 0; j < checkpoints.size(); ++j) {
      if (checkpoints[j].scenario == scenarios[i].name) {
        resume_from[i] = &checkpoints[j];
        used[j] = 1;
        break;
      }
    }
  }
  for (std::size_t j = 0; j < checkpoints.size(); ++j) {
    PH_REQUIRE(used[j], "checkpoint for `" + checkpoints[j].scenario +
                            "` matches no scenario; resume with the suite the "
                            "checkpoint file was written from");
  }
  return play(scenarios, resume_from);
}

TimelineBatchResult TimelineRunner::play(
    const std::vector<scenario::ScenarioSpec>& scenarios,
    const std::vector<const PlaybackCheckpoint*>& resume_from) const {
  PH_REQUIRE(!scenarios.empty(), "timeline batch has no scenarios");
  const std::size_t n = scenarios.size();

  // Validate every design up front, before any stepping starts.
  for (const scenario::ScenarioSpec& s : scenarios) {
    try {
      s.design.validate();
    } catch (const Error& e) {
      throw SpecError("scenario `" + s.name + "`: " + e.what());
    }
  }

  const std::size_t pause = options_.pause_after_steps > 0 ? options_.pause_after_steps
                                                           : Playback::kRunToCompletion;
  TimelineBatchResult result;
  result.traces.resize(n);
  std::vector<PlaybackCheckpoint> checkpoints(n);
  std::vector<char> paused(n, 0);
  // Playbacks are independent; traces land at their scenario's index, so
  // order and values do not depend on the thread count. Nested regions (the
  // CG kernels inside each playback) run inline on the worker.
  util::parallel_for(n, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      telemetry::Span span("playback.scenario", scenarios[i].name.c_str());
      telemetry::ScopedTimer wall(telemetry::Timer::kPlaybackScenarioWall);
      telemetry::count(telemetry::Counter::kPlaybackScenarios);
      with_error_context("scenario `" + scenarios[i].name + "`", [&] {
        Playback playback = resume_from[i] != nullptr
                                ? Playback(scenarios[i], options_.playback, *resume_from[i])
                                : Playback(scenarios[i], options_.playback);
        playback.run(pause);
        if (!playback.finished()) {
          checkpoints[i] = playback.checkpoint();
          paused[i] = 1;
          telemetry::instant(telemetry::Counter::kCheckpointPauses);
        }
        result.traces[i] = playback.take_trace();
      });
    }
  });

  result.stats.scenario_count = n;
  for (std::size_t i = 0; i < n; ++i) {
    const TimelineTrace& trace = result.traces[i];
    result.stats.total_steps += trace.step_count();
    result.stats.total_cg_iterations += trace.stats.total_cg_iterations;
    result.stats.settled_count += trace.settled ? 1 : 0;
    result.stats.periodic_count += trace.periodic_steady ? 1 : 0;
    if (paused[i]) {
      result.stats.paused_count += 1;
      result.checkpoints.push_back(std::move(checkpoints[i]));
    }
  }
  PH_LOG_DEBUG << "timeline batch: " << n << " scenarios, " << result.stats.total_steps
               << " steps, " << result.stats.settled_count << " settled, "
               << result.stats.periodic_count << " periodic, "
               << result.stats.paused_count << " paused";
  return result;
}

Table timeline_table(const TimelineBatchResult& result) {
  PH_REQUIRE(!result.traces.empty(), "no traces to tabulate");
  const std::vector<std::string>& probe_names = result.traces.front().probe_names;
  for (const TimelineTrace& trace : result.traces) {
    PH_REQUIRE(trace.probe_names == probe_names,
               "trace `" + trace.scenario +
                   "` has a different probe set; play suites built from one base, or "
                   "tabulate them separately");
  }

  // Per-step CG iteration counts are deliberately absent: they are
  // deterministic on one machine but can flip by one across
  // platforms/toolchains, which would break the golden-CSV smoke diff. They
  // live in the trace itself and in the summary table.
  std::vector<std::string> header{"scenario", "step", "time_s", "power_scale"};
  for (const std::string& name : probe_names) {
    header.push_back(name + "_c");
  }
  Table table(std::move(header));
  table.set_exact();
  for (const TimelineTrace& trace : result.traces) {
    for (std::size_t k = 0; k < trace.step_count(); ++k) {
      std::vector<TableCell> row{trace.scenario, static_cast<double>(k), trace.times[k],
                                 trace.power_scale[k]};
      for (double sample : trace.samples[k]) {
        row.emplace_back(sample);
      }
      table.add_row(std::move(row));
    }
  }
  return table;
}

Table timeline_summary_table(const TimelineBatchResult& result) {
  Table table({"scenario", "steps", "period_s", "settled", "settle_time_s", "final_delta_c",
               "periodic", "periodic_time_s", "cycle_delta_c", "final_dt_s", "dt_growths",
               "cg_iterations", "max_step_cg"});
  table.set_exact();
  for (const TimelineTrace& trace : result.traces) {
    table.add_row({trace.scenario, static_cast<double>(trace.step_count()), trace.period,
                   std::string(trace.settled ? "yes" : "no"), trace.settle_time,
                   trace.final_delta, std::string(trace.periodic_steady ? "yes" : "no"),
                   trace.periodic_steady_time, trace.cycle_delta, trace.final_time_step,
                   static_cast<double>(trace.dt_growths),
                   static_cast<double>(trace.stats.total_cg_iterations),
                   static_cast<double>(trace.stats.max_cg_iterations)});
  }
  return table;
}

}  // namespace photherm::timeline
