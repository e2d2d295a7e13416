/// \file bench.hpp
/// \brief Shared pieces of the end-to-end benchmark program: seeded input
/// draws, the output ledger behind `attempted`/`failed`, the outside-in span
/// recorder of the traced run, and the interface every workload implements.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

/// Thread budget of every workload: set once with util::set_concurrency, so
/// it bounds the scenario loops and the solver kernels alike.
inline constexpr std::size_t kThreads = 2;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU time of the process [s].
double cpu_seconds();

/// Peak resident set size of the process [MB].
double peak_rss_mb();

/// Seeded input draws (splitmix64): the same seed gives the same inputs on
/// every platform and standard library.
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi], rounded to a multiple of `step`.
  double rounded(double lo, double hi, double step);
  /// Uniform integer in [0, n).
  std::size_t pick(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

/// Counts the operations a run attempted and the ones that threw, failed to
/// converge or failed an output check.
class Ledger {
 public:
  /// Records `ops` operations: passed when `ok`, else failed because `what`.
  bool record(bool ok, std::size_t ops, const std::string& what);
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;  ///< first few messages
};

/// Bitwise equality of two value lists (NaN-safe, sign-of-zero exact).
bool same_bits(const std::vector<double>& a, const std::vector<double>& b);

/// One span recorded around a public call into a layer.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int id = 0;
  int parent = -1;  ///< id of the enclosing span, -1 for a root
  int rep = 0;      ///< traced repetition the span belongs to
};

/// Records spans on the calling thread only. The layer walks are serial, so
/// spans nest strictly: a span's parent is the innermost open span, and
/// sibling spans never overlap. Spans stay in memory until the run ends.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  Scope span(const char* name) { return Scope(*this, name); }
  void set_rep(int rep) { rep_ = rep; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t now_ns() const;

  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  int rep_ = 0;
  Clock::time_point epoch_ = Clock::now();
};

/// Name of the span that wraps one whole traced repetition.
inline constexpr const char* kRepSpan = "rep";

/// Totals of one span name over a whole trace.
struct LayerStats {
  std::size_t calls = 0;
  double total_s = 0.0;  ///< inclusive
  double self_s = 0.0;   ///< minus the time covered by child spans
  std::vector<double> durations_s;
};

std::map<std::string, LayerStats> layer_stats(const std::vector<Span>& spans);

/// Per traced repetition: the share of its root span covered by child spans.
std::vector<double> rep_coverage(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" events with id/parent/rep in args, plus the
/// manifest) that `photherm_report summarize` and Perfetto read.
void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::vector<std::pair<std::string, std::string>>& manifest);

/// Program-side telemetry of one pipeline repetition: counter/timer totals
/// from the metrics export and summed "X" span durations from the trace
/// export.
struct ProgramTelemetry {
  std::map<std::string, double> totals;
  std::map<std::string, double> span_s;

  double total(const std::string& name) const;
  double span_seconds(const std::string& name) const;
};

/// Read (then the caller resets) what the program's telemetry recorded.
ProgramTelemetry read_program_telemetry();

/// Cells per repetition: `solved` sums the mesh of every linear solve,
/// `meshed` the meshes the workload solves on.
struct Cells {
  double solved = 0.0;
  double meshed = 0.0;
};

/// Exact counts a layer walk saw.
struct WalkCounts {
  std::size_t cg_solves = 0;
  std::size_t cg_iterations = 0;
  std::size_t steps = 0;
};

/// One workload. A repetition is one closed-loop pass of the public
/// pipeline over all its scenarios; the next starts when it ends.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Draw the inputs from `seed`, validate them, and build and mesh each
  /// global scene (the timed set-up).
  virtual void setup(std::uint64_t seed) = 0;
  virtual std::size_t scenarios_per_rep() const = 0;
  /// One repetition of the public pipeline (the timed part).
  virtual void run_pipeline() = 0;
  /// Check the outputs of the last repetition: structure, sanity, and
  /// bit-identity with the first repetition.
  virtual void check_rep(Ledger& ledger) = 0;
  /// Untimed work after the loop: the remaining output checks and the
  /// cells per repetition.
  virtual Cells finish(Ledger& ledger) = 0;
  /// One outside-in layer walk, recorded as spans; checks that it
  /// reproduces the pipeline's outputs bit for bit.
  virtual void walk(Tracer& tracer, Ledger& ledger, WalkCounts& counts) = 0;

  /// Checks that only the traced run can afford.
  virtual void traced_checks(Ledger& /*ledger*/) {}
  /// Program spans covering a batch's scenario work (for idle_frac); empty
  /// when the workload runs no scenario batch.
  virtual std::vector<std::string> batch_spans() const { return {}; }
  virtual std::size_t cache_hits() const { return 0; }
  /// Timeline only: simulated seconds, steps and step CG iterations per rep.
  virtual double sim_seconds_per_rep() const { return 0.0; }
  virtual std::size_t steps_per_rep() const { return 0; }
  virtual std::size_t step_cg_iterations_per_rep() const { return 0; }
  /// One line describing the drawn inputs.
  virtual void describe(std::ostream& os) const = 0;
};

std::unique_ptr<Workload> make_corners();
std::unique_ptr<Workload> make_timeline();
std::unique_ptr<Workload> make_global_ladder();

}  // namespace e2ebench
