/// \file telemetry.hpp
/// \brief Runtime-gated observability: a metrics registry (named counters,
/// gauges and timers with thread-local accumulation, merged in deterministic
/// name order and exported as exact-mode CSV) plus scoped trace spans (RAII,
/// nestable, tagged with a per-thread label such as the thread-pool worker
/// id) exported as Chrome trace-event JSON loadable in Perfetto or
/// chrome://tracing.
///
/// Three contracts every instrumented call site relies on:
///
///  1. **Zero-overhead disabled mode.** Telemetry is off by default. Every
///     recording entry point is an inline single-branch check of one relaxed
///     atomic; with telemetry disabled no clock is read, no allocation
///     happens and no lock is taken. Spans cost one branch on construction
///     and one on destruction.
///  2. **Telemetry never perturbs physics.** Recording is strictly
///     write-only from the instrumented code's point of view: no solver,
///     stepper or runner ever reads a telemetry value back into a
///     computation, so every physics output (scenario CSVs, timeline
///     traces, checkpoints) is byte-identical with telemetry on or off, at
///     any thread count. The smoke suite enforces this bit-for-bit.
///  3. **Thread safety.** All accumulation is thread-local; the global
///     registry is only touched under a mutex when a thread first records,
///     when a thread exits, and at export time. Concurrent spans and counter
///     bumps from pool workers are race-free (TSan-covered).
///
/// Timing is inherently non-deterministic, which is why telemetry.cpp is
/// the project's single allowlisted clock site under the photherm_lint
/// determinism rule (tools/photherm_lint.rules): all wall-clock reads in
/// src/ live behind this interface, and nothing they produce feeds back
/// into numerical state.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/csv.hpp"

namespace photherm::telemetry {

/// The metric catalog: every counter, gauge and timer the program records,
/// declared once as a row `X(kId, "exported.name")` of one of three lists.
/// The rows generate the Counter, Gauge and Timer enums below and the name
/// table in telemetry.cpp, and each recording function accepts only its own
/// kind, so an undeclared, misspelled or wrong-kind metric does not compile.
/// Every row exports, in name order, at zero until recorded (documented in
/// README.md, "Observability"). The photherm_lint telemetry rule fails a row
/// that no code in src/ or tools/ records.
// clang-format off
#define PHOTHERM_TELEMETRY_COUNTERS(X)                                 \
  X(kBatchCacheHits, "batch.cache.hits")                               \
  X(kBatchCacheMisses, "batch.cache.misses")                           \
  X(kBatchScenarios, "batch.scenarios")                                \
  X(kCheckpointPauses, "checkpoint.pauses")                            \
  X(kCheckpointResumes, "checkpoint.resumes")                          \
  X(kPlaybackDtGrowths, "playback.dt_growths")                         \
  X(kPlaybackScenarios, "playback.scenarios")                          \
  X(kPlaybackSteps, "playback.steps")                                  \
  X(kPrecondChebyshevApplies, "precond.chebyshev.applies")             \
  X(kPrecondChebyshevBuilds, "precond.chebyshev.builds")               \
  X(kPrecondIlu0Applies, "precond.ilu0.applies")                       \
  X(kPrecondIlu0Builds, "precond.ilu0.builds")                         \
  X(kCgIterations, "solver.conjugate_gradient.iterations")             \
  X(kCgSolves, "solver.conjugate_gradient.solves")                     \
  X(kSpmvCsr, "spmv.csr")                                              \
  X(kSpmvStencil, "spmv.stencil")                                      \
  X(kTransientPreconditionerBuilds, "transient.preconditioner_builds") \
  X(kTransientReassemblies, "transient.reassemblies")                  \
  X(kTransientSteps, "transient.steps")

#define PHOTHERM_TELEMETRY_GAUGES(X) \
  X(kCgRelativeResidual, "solver.conjugate_gradient.relative_residual")

#define PHOTHERM_TELEMETRY_TIMERS(X)                 \
  X(kBatchScenarioWall, "batch.scenario.wall")       \
  X(kPlaybackScenarioWall, "playback.scenario.wall") \
  X(kPoolQueueWait, "pool.queue_wait")
// clang-format on

#define PHOTHERM_TELEMETRY_ENUMERATOR(id, name) id,
/// Monotonic counters: merged across threads by summation.
enum class Counter { PHOTHERM_TELEMETRY_COUNTERS(PHOTHERM_TELEMETRY_ENUMERATOR) };
/// Gauges: per-observation count/sum/min/max.
enum class Gauge { PHOTHERM_TELEMETRY_GAUGES(PHOTHERM_TELEMETRY_ENUMERATOR) };
/// Timers: nanosecond intervals with a log2 histogram for percentiles.
enum class Timer { PHOTHERM_TELEMETRY_TIMERS(PHOTHERM_TELEMETRY_ENUMERATOR) };
#undef PHOTHERM_TELEMETRY_ENUMERATOR

namespace detail {
/// The runtime gate. Relaxed loads are fine: enabling mid-flight only has
/// to eventually start recording, and the instrumented call sites never
/// branch on telemetry data for anything but recording.
extern std::atomic<bool> g_enabled;

void count_slow(Counter id, std::uint64_t delta);
void gauge_slow(Gauge id, double value);
void timer_slow(Timer id, std::uint64_t elapsed_ns);
void instant_slow(Counter id);
void counter_slow(const char* name, double value, std::uint64_t index);

/// Monotonic nanoseconds since an arbitrary process-local epoch. Only
/// meaningful as differences; only ever called with telemetry enabled.
std::int64_t now_ns();
}  // namespace detail

/// True while telemetry is recording. One relaxed atomic load.
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }

/// Turn recording on or off. Disabling stops recording but keeps what was
/// collected.
void set_enabled(bool on);

/// Drop every collected metric, span and thread label (the enabled flag is
/// left alone). Tests and long-lived processes use this between
/// measurement windows.
void reset();

/// Monotonic counter: `id` accumulates `delta`. No-op while disabled.
inline void count(Counter id, std::uint64_t delta = 1) {
  if (enabled()) {
    detail::count_slow(id, delta);
  }
}

/// Gauge observation: records `value` into `id`'s count/sum/min/max
/// statistic. No-op while disabled.
inline void gauge(Gauge id, double value) {
  if (enabled()) {
    detail::gauge_slow(id, value);
  }
}

/// Timer observation: adds an elapsed interval (nanoseconds) to `id`.
/// Most callers want ScopedTimer instead of calling this directly.
inline void timer_add(Timer id, std::uint64_t elapsed_ns) {
  if (enabled()) {
    detail::timer_slow(id, elapsed_ns);
  }
}

/// Zero-duration marker in the trace (a Chrome "instant" event) named like
/// the counter `id`, plus a bump of that counter: pause/resume and other
/// one-shot events.
inline void instant(Counter id) {
  if (enabled()) {
    detail::instant_slow(id);
  }
}

/// Plottable sample in the trace (a Chrome "C" counter event): `value` at
/// the current timestamp with an ordinal `index` in the event args. The
/// solvers emit one per Krylov iteration when SolverOptions::
/// record_convergence is on, so a residual history renders as a counter
/// track in Perfetto and `photherm_report convergence` can rebuild the
/// per-solve series. `name` is a free-form trace label: no metric is
/// touched. No-op while disabled.
inline void counter(const char* name, double value, std::uint64_t index = 0) {
  if (enabled()) {
    detail::counter_slow(name, value, index);
  }
}

/// Label the calling thread in the trace ("pool-worker-3"); rendered via
/// Chrome thread_name metadata. Cheap and callable regardless of the
/// enabled state (the label is kept for when recording starts). The thread
/// pool labels its workers; the main thread defaults to "main".
void set_thread_label(const std::string& label);

/// RAII trace span: the region between construction and destruction becomes
/// one Chrome complete ("X") event on the calling thread's track, nested
/// spans render nested (and carry an explicit depth argument). `detail`
/// lands in the event's args. One branch when disabled.
class Span {
 public:
  explicit Span(const char* name) {
    if (enabled()) {
      begin(name, std::string());
    }
  }
  Span(const char* name, std::string detail_text) {
    if (enabled()) {
      begin(name, std::move(detail_text));
    }
  }
  /// Literal-detail overload: no std::string is built while disabled.
  Span(const char* name, const char* detail_text) {
    if (enabled()) {
      begin(name, std::string(detail_text));
    }
  }
  ~Span() {
    if (start_ns_ >= 0) {
      end();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(const char* name, std::string detail_text);
  void end();

  const char* name_ = nullptr;
  std::string detail_;
  std::int64_t start_ns_ = -1;  ///< -1 = span not recording
};

/// RAII timer: adds the construction-to-destruction interval to the timer
/// `id`. Used for per-scenario wall time; pairs with (but does not require)
/// a Span of the same region.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer id) : id_(id) {
    if (enabled()) {
      start_ns_ = detail::now_ns();
    }
  }
  ~ScopedTimer() {
    if (start_ns_ >= 0) {
      timer_add(id_, static_cast<std::uint64_t>(detail::now_ns() - start_ns_));
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer id_;
  std::int64_t start_ns_ = -1;
};

/// Attach a provenance entry to every subsequent export (the run manifest):
/// suite name, scenario count, thread count, command line — anything that
/// makes two artifacts comparable months apart. Merged over the build-time
/// entries (git_sha, build_type, compiler, sanitizer — compiled into
/// telemetry.cpp), runtime keys winning on collision; exported in sorted
/// key order as `# key=value` comment lines in the metrics CSV and a
/// top-level "manifest" object in the trace JSON. reset() clears the
/// runtime entries (the build-time ones are constants).
void set_manifest(const std::string& key, const std::string& value);

/// The merged manifest (build-time entries + set_manifest overrides),
/// sorted by key.
std::vector<std::pair<std::string, std::string>> manifest();

/// Merged metrics as an exact-mode util::csv Table: one row per declared
/// metric, in lexicographic name order. Columns: metric, kind, count, total,
/// min, max, p50, p90, p99 — `count` is the number of observations
/// (counters: increments), `total` the accumulated value (counters: sum of
/// deltas; timers: nanoseconds); min/max are per-observation extremes
/// (empty for counters). Timers additionally carry percentile estimates
/// from a fixed 64-bucket log2 histogram of observed nanoseconds: each
/// percentile reports the inclusive upper bound (2^b - 1 ns) of the bucket
/// holding that rank, clamped to the largest observation, so the columns
/// are deterministic for a deterministic observation multiset, merge order
/// and thread count notwithstanding. Empty for counters, gauges, and
/// zero-observation timers.
Table metrics_table();

/// The full metrics CSV payload: the manifest comment block
/// (`# photherm-manifest v1` + `# key=value` lines) followed by
/// metrics_table().to_csv().
std::string metrics_csv();

/// Chrome trace-event JSON ("traceEvents" array of complete/instant/
/// counter/metadata events, microsecond timestamps, plus the run manifest
/// as a top-level "manifest" object) — open in Perfetto
/// (https://ui.perfetto.dev) or chrome://tracing. Valid JSON even when
/// nothing was recorded.
std::string trace_json();

/// Write metrics_csv() / trace_json() to `path`; throws photherm::Error on
/// I/O failure.
void write_metrics_csv(const std::string& path);
void write_trace_json(const std::string& path);

}  // namespace photherm::telemetry
