// photherm_lint fixture: the telemetry rule must stay SILENT on this file.
//
// fixtures.rules declares this file as its own telemetry_catalog. Every
// `X(kId, "name")` row below is recorded at least once, through a counter,
// a gauge, or a ScopedTimer. Fixtures are scanned, not compiled.

namespace photherm::demo {

#define DEMO_COUNTERS(X) X(kDemoBuilds, "demo.builds") X(kDemoSolves, "demo.solves")

#define DEMO_GAUGES(X) X(kDemoResidual, "demo.relative_residual")

#define DEMO_TIMERS(X) X(kDemoTime, "demo.time")

inline void instrument(int builds, double residual) {
  telemetry::ScopedTimer solve_timer(telemetry::Timer::kDemoTime);
  telemetry::count(telemetry::Counter::kDemoSolves);
  telemetry::count(telemetry::Counter::kDemoBuilds, builds);
  telemetry::gauge(telemetry::Gauge::kDemoResidual, residual);
}

}  // namespace photherm::demo
