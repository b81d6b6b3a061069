// The benchmark's three workloads. Each has two entry points:
//   Measure* — the untraced run: set-up repeated for
//     config.scale.setup_seconds (setup_s is the median), then the timed
//     part repeated for config.seconds; fills the end-to-end metrics.
//     The batch workloads (paper_study, network_pipeline) report
//     setup_s, job_s (median time of the timed part) and quality;
//     online_scoring reports setup_s, score_p50_ms, score_p99_ms,
//     sustained_rps and quality.
//   Trace*   — one set-up, then untraced, traced, traced and untraced
//     passes of the timed part (online_scoring: one untraced and one
//     traced leg); fills the workload's per-layer metrics from the
//     benchmark's own spans, plus trace.coverage.<workload> (layer
//     self-times / wall time) and trace.overhead_frac.<workload>.
// Every entry point counts its operations and output checks in the
// Outcome; a failed check is a failed operation, never dropped.
#ifndef ROADMINE_ROADBENCH_WORKLOADS_H_
#define ROADMINE_ROADBENCH_WORKLOADS_H_

#include "common.h"

namespace roadbench {

void MeasurePaperStudy(const RunConfig& config, Outcome* out);
void TracePaperStudy(const RunConfig& config, Outcome* out);

void MeasureNetworkPipeline(const RunConfig& config, Outcome* out);
void TraceNetworkPipeline(const RunConfig& config, Outcome* out);

void MeasureOnlineScoring(const RunConfig& config, Outcome* out);
void TraceOnlineScoring(const RunConfig& config, Outcome* out);

}  // namespace roadbench

#endif  // ROADMINE_ROADBENCH_WORKLOADS_H_
