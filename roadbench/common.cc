#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/trace_aggregate.h"

namespace roadbench {

Scale Scale::Small() {
  Scale scale;
  scale.study_cv_folds = 3;
  scale.pipeline_segments = 20'000;
  scale.pipeline_page_rows = 4'096;
  scale.pipeline_trees = 5;
  scale.online_segments = 8'000;
  scale.online_trees = 10;
  scale.online_rung_seconds = 0.2;
  scale.setup_seconds = 0.0;
  return scale;
}

bool Outcome::Op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (!what.empty()) std::fprintf(stderr, "roadbench: check failed: %s\n",
                                    what.c_str());
  }
  return ok;
}

void Outcome::Invalidate(const std::string& reason) {
  valid = false;
  if (invalid_reason.empty()) invalid_reason = reason;
  std::fprintf(stderr, "roadbench: run invalid: %s\n", reason.c_str());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const size_t mid = sorted.size() / 2;
  return sorted.size() % 2 == 1 ? sorted[mid]
                                : 0.5 * (sorted[mid - 1] + sorted[mid]);
}

double LayerTrace::SelfMs(const std::string& name) const {
  for (const auto& [span, ms] : self_ms) {
    if (span == name) return ms;
  }
  return 0.0;
}

double LayerTrace::TotalSelfMs() const {
  double total = 0.0;
  for (const auto& entry : self_ms) total += entry.second;
  return total;
}

namespace {
constexpr char kMarkerSpan[] = "bench.marker";
}  // namespace

void BeginTrace() {
  roadmine::obs::TraceCollector& collector =
      roadmine::obs::TraceCollector::Global();
  collector.Clear();
  collector.Enable();
  // A zero-length span that identifies the measuring thread.
  roadmine::obs::ScopedSpan marker(kMarkerSpan);
}

LayerTrace EndTrace() {
  roadmine::obs::TraceCollector& collector =
      roadmine::obs::TraceCollector::Global();
  collector.Disable();
  const std::vector<roadmine::obs::SpanRecord> spans = collector.Snapshot();
  collector.Clear();

  uint32_t measuring_thread = 0;
  for (const auto& span : spans) {
    if (span.name == kMarkerSpan) measuring_thread = span.thread_id;
  }
  // Only the benchmark's own spans on the measuring thread: library spans
  // and spans on pool workers overlap the measuring thread's wall time
  // and would double-count it.
  std::vector<roadmine::obs::SpanRecord> mine;
  for (const auto& span : spans) {
    if (span.thread_id == measuring_thread && span.name != kMarkerSpan &&
        span.name.rfind("bench.", 0) == 0) {
      mine.push_back(span);
    }
  }
  LayerTrace trace;
  for (const auto& stage : roadmine::obs::AggregateSpans(mine).stages) {
    trace.self_ms.emplace_back(stage.name, stage.self_ms);
  }
  return trace;
}

double MedianSetupSeconds(double budget_s,
                          const std::function<bool()>& setup) {
  std::vector<double> seconds;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point one = Clock::now();
    if (!setup()) return -1.0;
    seconds.push_back(SecondsSince(one));
  } while (SecondsSince(start) < budget_s);
  return Median(seconds);
}

}  // namespace roadbench
