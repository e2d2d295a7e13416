// photherm_lint fixture: the telemetry rule MUST fire on this file.
// fixtures.rules declares this file as its own telemetry_catalog, so the
// rule checks each `X(kId, "name")` row below against the `Counter::` /
// `Timer::` references in the file: `kDemoQueueWait` is declared but never
// recorded, so it would export a permanent zero. Fixtures are scanned, not
// compiled.

namespace photherm::demo {

#define DEMO_COUNTERS(X) X(kDemoSolves, "solver.demo.solves")

#define DEMO_TIMERS(X) X(kDemoQueueWait, "pool.demo.queue_wait")  // dead row

inline void instrument() { telemetry::count(telemetry::Counter::kDemoSolves); }

}  // namespace photherm::demo
