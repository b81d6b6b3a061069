// roadbench: the roadmine benchmark binary.
//
//   roadbench --workload <paper_study|network_pipeline|online_scoring>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//   roadbench --self-check --work-dir <dir>
//
// Untraced runs (--trace 0) run only the named workload and report the
// end-to-end metrics. Traced runs (--trace 1) report the per-layer
// metrics of every workload, starting with the named one, so each traced
// run covers every layer. The last line of stdout is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The line before it records the run: workload, seed, the held-out seed,
// worker count and the host-capacity probe.
//
// --self-check runs a small pass of every workload (untraced and traced)
// and requires zero failed operations, then feeds perturbed references
// and requires every workload to report failures. Exit 0 iff all hold.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <sched.h>

#include "common.h"
#include "host_probe.h"
#include "obs/resource.h"
#include "workloads.h"

namespace roadbench {
namespace {

// Later performance claims are confirmed on this seed, which is not used
// while a change is being written.
constexpr uint64_t kHeldOutSeed = 4242;

using MetricList = std::vector<std::pair<std::string, std::string>>;

// The end-to-end metrics (name, unit) each workload must report.
const MetricList kBatchMetrics = {
    {"setup_s", "s"},      {"job_s", "s"},         {"peak_rss_mb", "MB"},
    {"quality", "score"},  {"ok_frac", "frac"}};
const MetricList kOnlineMetrics = {
    {"setup_s", "s"},          {"score_p50_ms", "ms"}, {"score_p99_ms", "ms"},
    {"sustained_rps", "1/s"},  {"peak_rss_mb", "MB"},  {"quality", "score"},
    {"ok_frac", "frac"}};

struct Workload {
  const char* name;
  void (*measure)(const RunConfig&, Outcome*);
  void (*trace)(const RunConfig&, Outcome*);
  const MetricList* metrics;
};

const Workload kWorkloads[] = {
    {"paper_study", MeasurePaperStudy, TracePaperStudy, &kBatchMetrics},
    {"network_pipeline", MeasureNetworkPipeline, TraceNetworkPipeline,
     &kBatchMetrics},
    {"online_scoring", MeasureOnlineScoring, TraceOnlineScoring,
     &kOnlineMetrics},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool self_check = false;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-check") {
      args->self_check = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  if (args->work_dir.empty()) return false;
  return args->self_check || FindWorkload(args->workload) != nullptr;
}

void PrintResult(const Outcome& outcome, bool correct) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& metric = outcome.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metric.name.c_str(),
                std::isfinite(metric.value) ? metric.value : 0.0,
                metric.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Runs one benchmark invocation; returns the process exit code.
int RunOnce(const Args& args, const HostProbe& host, RunConfig config) {
  const Workload& named = *FindWorkload(args.workload);
  std::printf("{\"run\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"held_out_seed\": %llu, \"seconds\": %.17g, \"trace\": %d, "
              "\"workers\": %zu, \"host\": {\"nproc\": %zu, "
              "\"spin_1t_ms\": %.17g, \"spin_nt_ms\": %.17g, "
              "\"capacity\": %.17g}}}\n",
              named.name, static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(kHeldOutSeed), args.seconds,
              args.trace ? 1 : 0, config.pool->concurrency(), host.nproc,
              host.spin_1t_ms, host.spin_nt_ms, host.capacity);

  Outcome outcome;
  if (!args.trace) {
    named.measure(config, &outcome);
    outcome.Add("peak_rss_mb", roadmine::obs::CurrentMemoryUsage().peak_rss_mb,
                "MB");
  } else {
    roadmine::exec::PoolProfiler profiler;
    config.pool->AttachProfiler(&profiler);
    config.profiler = &profiler;
    named.trace(config, &outcome);
    for (const Workload& other : kWorkloads) {
      if (&other != &named) other.trace(config, &outcome);
    }
    config.pool->AttachProfiler(nullptr);
  }
  const double ok_frac =
      outcome.attempted == 0
          ? 0.0
          : static_cast<double>(outcome.attempted - outcome.failed) /
                static_cast<double>(outcome.attempted);

  bool correct = outcome.valid && outcome.failed == 0 && outcome.attempted > 0;
  if (!args.trace) {
    outcome.Add("ok_frac", ok_frac, "frac");
    // Every end-to-end metric must be present and finite.
    for (const auto& [name, unit] : *named.metrics) {
      const auto it = std::find_if(
          outcome.metrics.begin(), outcome.metrics.end(),
          [&](const Metric& metric) { return metric.name == name; });
      if (it == outcome.metrics.end()) {
        std::fprintf(stderr, "roadbench: metric %s missing\n", name.c_str());
        outcome.Add(name, 0.0, unit);
        correct = false;
      }
    }
  }
  for (const Metric& metric : outcome.metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "roadbench: metric %s is not finite\n",
                   metric.name.c_str());
      correct = false;
    }
  }
  PrintResult(outcome, correct);
  return 0;
}

int SelfCheck(RunConfig config) {
  config.scale = Scale::Small();
  config.seconds = 1.0;
  roadmine::exec::PoolProfiler profiler;
  config.pool->AttachProfiler(&profiler);
  config.profiler = &profiler;
  bool all_ok = true;
  auto report = [&](const char* what, const Workload& workload, bool ok,
                    const Outcome& outcome) {
    std::printf("self-check %-9s %-16s attempted %6llu failed %6llu  %s\n",
                what, workload.name,
                static_cast<unsigned long long>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed),
                ok ? "ok" : "FAILED");
    all_ok = all_ok && ok;
  };
  for (const Workload& workload : kWorkloads) {
    Outcome measured;
    workload.measure(config, &measured);
    // Validity is about the host keeping the open loop on schedule, not
    // about the outputs; an invalid run is reported above, not failed.
    report("measure", workload, measured.attempted > 0 && measured.failed == 0,
           measured);
    Outcome traced;
    workload.trace(config, &traced);
    report("trace", workload, traced.attempted > 0 && traced.failed == 0,
           traced);
  }
  // The checks must be able to fail: perturbed references must show up
  // as failed operations (failed_frac > 0) on every workload.
  RunConfig perturbed = config;
  perturbed.perturb_reference = true;
  for (const Workload& workload : kWorkloads) {
    Outcome outcome;
    workload.measure(perturbed, &outcome);
    report("perturbed", workload, outcome.failed > 0, outcome);
  }
  config.pool->AttachProfiler(nullptr);
  std::printf("self-check %s\n", all_ok ? "passed" : "FAILED");
  return all_ok ? 0 : 1;
}

// How many CPUs this process may run on (its affinity mask, which a
// container or `taskset` may narrow below the machine's count).
size_t AllowedCpuCount() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof(cpus), &cpus) != 0) return 1;
  return std::max(1, CPU_COUNT(&cpus));
}

}  // namespace
}  // namespace roadbench

int main(int argc, char** argv) {
  using namespace roadbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: roadbench --workload <paper_study|network_pipeline|"
                 "online_scoring> --seed <n> --seconds <s> --trace <0|1> "
                 "--work-dir <dir>\n       roadbench --self-check "
                 "--work-dir <dir>\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "roadbench: cannot create %s\n",
                 args.work_dir.c_str());
    return 1;
  }

  // nproc - 1 workers plus the calling (or generator) thread.
  const size_t nproc = AllowedCpuCount();
  const HostProbe host = args.self_check ? HostProbe{} : ProbeHost(nproc);
  roadmine::exec::ThreadPool pool(std::max<size_t>(1, nproc - 1));
  RunConfig config;
  config.seed = args.seed;
  config.seconds = args.seconds;
  config.work_dir = args.work_dir;
  config.pool = &pool;
  return args.self_check ? SelfCheck(config) : RunOnce(args, host, config);
}
