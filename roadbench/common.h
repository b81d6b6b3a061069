// Shared plumbing for the roadmine benchmark: run options, the result
// record every workload fills in, clocks, quantiles, and span helpers.
//
// The benchmark measures the library from outside: every number here is
// taken by timing calls into public functions (directly, or through the
// decorators in decorators.h). Nothing under src/ is instrumented for it.
#ifndef ROADMINE_ROADBENCH_COMMON_H_
#define ROADMINE_ROADBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "exec/profiler.h"
#include "obs/trace.h"

namespace roadbench {

// How big each workload's inputs are. The defaults are what the benchmark
// measures; Small() is the self-check's quick pass over the same code.
struct Scale {
  size_t study_cv_folds = 10;
  size_t pipeline_segments = 150'000;
  size_t pipeline_page_rows = 16'384;
  size_t pipeline_trees = 20;
  size_t online_segments = 60'000;
  size_t online_trees = 40;
  double online_rung_seconds = 0.6;      // Each ladder rung.
  // Set-up repeats until this much time has passed; setup_s is the
  // median set-up.
  double setup_seconds = 5.0;

  static Scale Small();
};

struct RunConfig {
  uint64_t seed = 42;
  double seconds = 10.0;
  Scale scale;
  // Corrupts the workload's expected outputs; the self-check uses it to
  // prove the output checks can fail.
  bool perturb_reference = false;
  std::string work_dir;           // Scratch space inside the checkout.
  roadmine::exec::ThreadPool* pool = nullptr;  // nproc - 1 workers.
  roadmine::exec::PoolProfiler* profiler = nullptr;  // Attached to pool.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload reports: operations attempted/failed (an operation is
// a sweep, a pipeline stage, or a request), whether the run was valid
// (an open-loop run whose generator fell behind is not), and metrics.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool valid = true;
  std::string invalid_reason;
  std::vector<Metric> metrics;

  // Counts one operation; returns `ok` so callers can chain checks.
  bool Op(bool ok, const std::string& what = "");
  void Invalidate(const std::string& reason);
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// Monotonic clock helpers.
using Clock = std::chrono::steady_clock;
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MillisSince(Clock::time_point start) {
  return SecondsSince(start) * 1e3;
}

// Nearest-rank quantile of `values` (copied, q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

// Span names the benchmark records are "bench.<layer>.<call>". Layer
// self-times are aggregated from these spans only, on one thread.
struct LayerTrace {
  // Per span name: summed self time (children are other bench spans).
  std::vector<std::pair<std::string, double>> self_ms;
  double SelfMs(const std::string& name) const;
  double TotalSelfMs() const;
};

// Clears the collector and enables it (traced passes only).
void BeginTrace();
// Disables the collector and aggregates the calling thread's bench.*
// spans with obs::AggregateSpans.
LayerTrace EndTrace();

// Runs `setup` at least once and again until `budget_s` seconds have
// passed. Returns the median seconds of one set-up, or a negative value
// as soon as a set-up fails.
double MedianSetupSeconds(double budget_s, const std::function<bool()>& setup);

}  // namespace roadbench

#endif  // ROADMINE_ROADBENCH_COMMON_H_
