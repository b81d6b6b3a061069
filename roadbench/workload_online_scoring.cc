// online_scoring: the per-request path. Set-up trains, compiles and
// registers a GBT over an in-RAM network. One generator thread then runs
// an open loop: seeded Poisson arrivals, mostly 1-row lookups, some
// 32-row routes and a few 512-row district re-scores, each submitted to
// the pool to call ScoringService::ScoreBatch on the latest version while
// the generator registers a new version every half second.
//
// Latency is timed from each request's due time, so a stall charges every
// request queued behind it. The timed part is a nominal-rate leg
// (latency) followed by a ladder of fixed rates walked upward until a
// rung misses the limit (sustained rate).
#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/deployment.h"
#include "core/thresholds.h"
#include "ml/gradient_boosting.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"
#include "serve/flat_model.h"
#include "serve/scoring_service.h"
#include "util/rng.h"
#include "workloads.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define ROADBENCH_CPU_RELAX() _mm_pause()
#else
#define ROADBENCH_CPU_RELAX() ((void)0)
#endif

namespace roadbench {

namespace {

using roadmine::data::Dataset;

constexpr int kThreshold = 4;
constexpr char kModelName[] = "crash_prone";
// The p99 latency limit every rate is judged against.
constexpr double kLimitMs = 2.0;
// Rate of the latency leg: about a quarter of what a 4-core host
// sustains.
constexpr double kNominalRps = 20000.0;
// The ladder: fixed rates, coarse at first and 5% apart around the
// capacity of a 4-core host, walked upward until a rung fails.
constexpr double kLadderRps[] = {
    20000,  40000,  50000,  52500,  55000,  57900,  60800,  63800,
    67000,  70400,  73900,  77600,  81500,  85600,  89800,  94300,
    99000,  104000, 109200, 114700, 120400, 126400, 132700, 139400};
// Legs are judged window by window: a leg's p99 is the median of its
// windows' p99s, so one host stall (a few ms with the vCPU descheduled)
// spoils a window, not the leg, while a growing queue spoils them all.
constexpr double kNominalWindowSeconds = 1.0;
constexpr double kRungWindowSeconds = 0.1;
// The generator fell behind its schedule when, in the median window,
// its p99 lateness exceeds this share of the limit; the run is invalid.
constexpr double kMaxLateShare = 0.1;
constexpr double kRegisterEverySeconds = 0.5;

struct OnlineState {
  Dataset network;
  std::shared_ptr<const roadmine::serve::FlatModel> model;
  std::unique_ptr<roadmine::serve::ScoringService> service;
  std::vector<double> reference;  // Expected score of every row.
  int next_version = 2;
};

// Set-up: network → dataset → GBT fit → compile → register v1.
bool SetUpOnline(const RunConfig& config, Outcome* out, OnlineState* state) {
  namespace roadgen = roadmine::roadgen;
  roadgen::GeneratorConfig gen_config;
  gen_config.num_segments = config.scale.online_segments;
  gen_config.seed = config.seed;
  gen_config.executor = config.pool;
  roadgen::RoadNetworkGenerator generator(gen_config);
  auto segments = generator.Generate();
  if (!out->Op(segments.ok(), "online_scoring: generate")) return false;
  auto network = roadgen::BuildSegmentDataset(*segments);
  if (!out->Op(network.ok(), "online_scoring: build dataset")) return false;
  const std::string target = roadmine::core::ThresholdTargetName(kThreshold);
  if (!out->Op(roadmine::core::AddCrashProneTarget(
                   *network, roadgen::kSegmentCrashCountColumn, kThreshold)
                   .ok(),
               "online_scoring: target")) {
    return false;
  }
  state->network = std::move(*network);

  roadmine::ml::GradientBoostedTreesParams params;
  params.num_trees = config.scale.online_trees;
  params.max_depth = 5;
  params.seed = config.seed;
  params.executor = config.pool;
  roadmine::ml::GradientBoostedTrees gbt(params);
  if (!out->Op(gbt.Fit(state->network, target, roadgen::RoadAttributeColumns(),
                       state->network.AllRowIndices())
                   .ok(),
               "online_scoring: fit")) {
    return false;
  }
  auto flat = roadmine::serve::CompileModel(gbt);
  if (!out->Op(flat.ok(), "online_scoring: compile")) return false;
  state->model =
      std::make_shared<const roadmine::serve::FlatModel>(std::move(*flat));
  state->service = std::make_unique<roadmine::serve::ScoringService>();
  state->next_version = 2;
  return out->Op(state->service->Register(kModelName, "v1", state->model).ok(),
                 "online_scoring: register");
}

// Untimed: the reference scores every response is checked against.
bool ComputeReference(const RunConfig& config, Outcome* out,
                      OnlineState* state) {
  auto scores = state->model->PredictBatch(state->network,
                                           state->network.AllRowIndices());
  if (!out->Op(scores.ok(), "online_scoring: reference scores")) return false;
  state->reference = std::move(*scores);
  if (config.perturb_reference) {
    // Perturb every reference by one ulp: each response must now fail.
    for (double& score : state->reference) {
      score = std::nextafter(score, 2.0);
    }
  }
  return true;
}

struct Request {
  double due_s = 0.0;  // Offset from the leg's start.
  std::vector<size_t> rows;
  // Filled in by the generator and the serving worker.
  Clock::time_point submitted;
  double late_ms = 0.0;
  double queue_us = 0.0;
  double service_us = 0.0;
  double latency_ms = 0.0;  // From due time to response.
  size_t in_flight = 0;     // Requests in flight when this one was sent.
  bool ok = false;
};

// Seeded Poisson arrivals at `rps` for `seconds`, with the request mix.
std::vector<Request> MakeSchedule(uint64_t seed, uint64_t leg, double rps,
                                  double seconds, size_t num_rows) {
  roadmine::util::Rng rng(roadmine::util::Rng::SplitSeed(seed, leg));
  const auto last_row = static_cast<int64_t>(num_rows) - 1;
  std::vector<Request> requests;
  requests.reserve(static_cast<size_t>(rps * seconds * 1.1) + 16);
  for (double t = rng.Exponential(rps); t < seconds;
       t += rng.Exponential(rps)) {
    Request request;
    request.due_s = t;
    const double kind = rng.Uniform();
    if (kind < 0.85) {  // Single-segment lookup.
      request.rows.push_back(static_cast<size_t>(rng.UniformInt(0, last_row)));
    } else if (kind < 0.98) {  // A route: 32 consecutive segments.
      const size_t length = std::min<size_t>(32, num_rows);
      const auto first = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(num_rows - length)));
      for (size_t r = 0; r < length; ++r) request.rows.push_back(first + r);
    } else {  // A district re-score: 512 scattered segments.
      for (size_t r = 0; r < 512; ++r) {
        request.rows.push_back(static_cast<size_t>(rng.UniformInt(0, last_row)));
      }
      std::sort(request.rows.begin(), request.rows.end());
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

struct LegResult {
  size_t requests = 0;
  size_t failed = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;       // Median of window p99s; failures are +inf.
  double late_ms_p99 = 0.0;  // Median of window p99s.
  double backlog = 0.0;      // Median of in-flight counts at window ends.
  double service_us_p50 = 0.0;
  double service_us_p99 = 0.0;
  double service_us_mean = 0.0;
  double queue_us_p99 = 0.0;
  double raw_late_ms_p99 = 0.0;  // Over every request of the leg.
  double register_us_p99 = 0.0;
  size_t backlog_max = 0;
  bool registered_ok = true;

  bool GeneratorBehind() const {
    return late_ms_p99 > kMaxLateShare * kLimitMs;
  }
  bool MeetsLimit(double rps) const {
    // A backlog that outgrew what the limit allows means the queue was
    // growing, even if the rung ended before latency showed it.
    const double allowed_backlog = std::max(16.0, rps * kLimitMs / 1e3);
    return failed == 0 && registered_ok && p99_ms <= kLimitMs &&
           backlog <= allowed_backlog && !GeneratorBehind();
  }
};

// Runs one open-loop leg on the calling (generator) thread.
LegResult RunLeg(const RunConfig& config, OnlineState* state, uint64_t leg,
                 double rps, double seconds, double window_seconds) {
  std::vector<Request> requests = MakeSchedule(
      config.seed, leg, rps, seconds, state->network.num_rows());
  // Generator/worker handshake; results never depend on it.
  std::atomic<size_t> in_flight{0};  // roadmine-lint: allow(determinism)
  LegResult result;
  std::vector<double> register_us;
  roadmine::serve::ScoringService& service = *state->service;
  const Dataset& network = state->network;
  const std::vector<double>& reference = state->reference;

  // Spans are built only in the traced leg, so the untraced legs pay
  // nothing for them.
  const bool tracing = roadmine::obs::TraceCollector::Global().enabled();

  const Clock::time_point leg_start = Clock::now();
  double next_register_s = kRegisterEverySeconds / 2;
  for (Request& request : requests) {
    if (request.due_s >= next_register_s) {
      next_register_s += kRegisterEverySeconds;
      std::string version = "v";
      version += std::to_string(state->next_version++);
      const Clock::time_point start = Clock::now();
      const bool ok =
          service.Register(kModelName, version, state->model).ok();
      register_us.push_back(SecondsSince(start) * 1e6);
      result.registered_ok = result.registered_ok && ok;
    }
    const Clock::time_point due =
        leg_start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(request.due_s));
    Clock::time_point now = Clock::now();
    while (now < due) {
      ROADBENCH_CPU_RELAX();
      now = Clock::now();
    }
    request.submitted = now;
    request.in_flight = in_flight.load(std::memory_order_relaxed);
    request.late_ms =
        std::chrono::duration<double, std::milli>(now - due).count();
    result.backlog_max = std::max(result.backlog_max, ++in_flight);
    Request* slot = &request;
    config.pool->Submit([slot, due, tracing, &service, &network, &reference,
                         &in_flight] {
      const Clock::time_point start = Clock::now();
      auto scores = [&] {
        std::optional<roadmine::obs::ScopedSpan> span;
        if (tracing) span.emplace("bench.serve.score_batch");
        return service.ScoreBatch(kModelName, "", network, slot->rows);
      }();
      const Clock::time_point end = Clock::now();
      bool ok = scores.ok() && scores->size() == slot->rows.size();
      for (size_t k = 0; ok && k < slot->rows.size(); ++k) {
        ok = std::bit_cast<uint64_t>((*scores)[k]) ==
             std::bit_cast<uint64_t>(reference[slot->rows[k]]);
      }
      slot->queue_us =
          std::chrono::duration<double, std::micro>(start - slot->submitted)
              .count();
      slot->service_us =
          std::chrono::duration<double, std::micro>(end - start).count();
      slot->latency_ms =
          std::chrono::duration<double, std::milli>(end - due).count();
      slot->ok = ok;
      in_flight.fetch_sub(1, std::memory_order_release);
    });
  }
  config.pool->Wait();

  // Per-window statistics, windows by due time.
  const size_t windows = std::max<size_t>(
      1, static_cast<size_t>(std::lround(seconds / window_seconds)));
  std::vector<std::vector<double>> window_latency(windows);
  std::vector<std::vector<double>> window_late(windows);
  std::vector<double> window_backlog(windows, 0.0);
  std::vector<double> latency, service_us, queue_us, late_ms;
  latency.reserve(requests.size());
  service_us.reserve(requests.size());
  for (const Request& request : requests) {
    const size_t w = std::min(
        windows - 1, static_cast<size_t>(request.due_s / seconds *
                                         static_cast<double>(windows)));
    const double ms = request.ok ? request.latency_ms
                                 : std::numeric_limits<double>::infinity();
    if (!request.ok) ++result.failed;
    latency.push_back(ms);
    window_latency[w].push_back(ms);
    window_late[w].push_back(request.late_ms);
    window_backlog[w] = static_cast<double>(request.in_flight);
    service_us.push_back(request.service_us);
    queue_us.push_back(request.queue_us);
    late_ms.push_back(request.late_ms);
    result.service_us_mean += request.service_us;
  }
  std::vector<double> window_p99, window_late_p99;
  for (size_t w = 0; w < windows; ++w) {
    if (window_latency[w].empty()) continue;
    window_p99.push_back(Quantile(window_latency[w], 0.99));
    window_late_p99.push_back(Quantile(window_late[w], 0.99));
  }
  result.requests = requests.size();
  if (!requests.empty()) {
    result.service_us_mean /= static_cast<double>(requests.size());
  }
  result.p50_ms = Quantile(latency, 0.50);
  result.p99_ms = Median(window_p99);
  result.late_ms_p99 = Median(window_late_p99);
  result.backlog = Median(window_backlog);
  result.service_us_p50 = Quantile(service_us, 0.50);
  result.service_us_p99 = Quantile(service_us, 0.99);
  result.queue_us_p99 = Quantile(queue_us, 0.99);
  result.raw_late_ms_p99 = Quantile(late_ms, 0.99);
  result.register_us_p99 = Quantile(register_us, 0.99);
  std::fprintf(stderr,
               "roadbench: online_scoring leg %.0f/s: %zu requests, p50 %.4f ms, "
               "p99 %.4f ms, generator late p99 %.4f ms, backlog %.0f\n",
               rps, result.requests, result.p50_ms, result.p99_ms,
               result.late_ms_p99, result.backlog);
  return result;
}

// Counts a leg's requests as operations (a failed response is a failed
// operation) and invalidates the run if the generator fell behind.
void AccountLeg(const LegResult& leg, const char* what, Outcome* out) {
  out->attempted += leg.requests;
  out->failed += leg.failed;
  if (leg.failed > 0) {
    std::fprintf(stderr,
                 "roadbench: check failed: online_scoring: %zu of %zu %s "
                 "responses differ from the reference scores\n",
                 leg.failed, leg.requests, what);
  }
  out->Op(leg.registered_ok, "online_scoring: register new version");
}

}  // namespace

void MeasureOnlineScoring(const RunConfig& config, Outcome* out) {
  OnlineState state;
  const double setup_s =
      MedianSetupSeconds(config.scale.setup_seconds,
                         [&] { return SetUpOnline(config, out, &state); });
  if (setup_s < 0.0) return;
  if (!ComputeReference(config, out, &state)) return;
  auto program = roadmine::core::BuildWorksProgram(state.network, *state.model);
  if (!out->Op(program.ok(), "online_scoring: works program")) return;

  const Clock::time_point start = Clock::now();
  const LegResult nominal = RunLeg(config, &state, 0, kNominalRps,
                                   0.4 * config.seconds, kNominalWindowSeconds);
  AccountLeg(nominal, "nominal-rate", out);
  if (nominal.GeneratorBehind()) {
    out->Invalidate("generator fell behind its schedule at the nominal rate");
  }

  // Walk the ladder until a rung misses the limit or time runs out.
  double sustained = 0.0;
  uint64_t leg = 1;
  for (double rps : kLadderRps) {
    if (SecondsSince(start) + config.scale.online_rung_seconds >
        config.seconds) {
      break;
    }
    const LegResult rung =
        RunLeg(config, &state, leg++, rps, config.scale.online_rung_seconds,
               kRungWindowSeconds);
    AccountLeg(rung, "ladder", out);
    if (!rung.MeetsLimit(rps)) break;
    sustained = rps;
  }

  out->Add("setup_s", setup_s, "s");
  out->Add("score_p50_ms", nominal.p50_ms, "ms");
  out->Add("score_p99_ms", nominal.p99_ms, "ms");
  out->Add("sustained_rps", sustained, "1/s");
  out->Add("quality", program->top_decile_agreement, "score");
  std::fprintf(stderr,
               "roadbench: online_scoring nominal leg: %zu requests at "
               "%.0f/s, limit p99 <= %.1f ms\n",
               nominal.requests, kNominalRps, kLimitMs);
}

void TraceOnlineScoring(const RunConfig& config, Outcome* out) {
  OnlineState state;
  if (!SetUpOnline(config, out, &state)) return;
  if (!ComputeReference(config, out, &state)) return;

  const double seconds = 0.2 * config.seconds;
  config.profiler->Begin(config.pool->concurrency());
  const LegResult plain =
      RunLeg(config, &state, 0, kNominalRps, seconds, kNominalWindowSeconds);
  const roadmine::exec::PoolProfile pool = config.profiler->Finish();
  AccountLeg(plain, "nominal-rate", out);

  // The traced leg is profiled too, so the two legs differ only in tracing.
  config.profiler->Begin(config.pool->concurrency());
  BeginTrace();
  const LegResult traced =
      RunLeg(config, &state, 0, kNominalRps, seconds, kNominalWindowSeconds);
  EndTrace();
  (void)config.profiler->Finish();
  AccountLeg(traced, "traced nominal-rate", out);

  out->Add("online.score_p50_ms", plain.p50_ms, "ms");
  out->Add("online.score_p99_ms", plain.p99_ms, "ms");
  out->Add("serve.service_us_p50", plain.service_us_p50, "us");
  out->Add("serve.service_us_p99", plain.service_us_p99, "us");
  out->Add("exec.queue_wait_us_p99", plain.queue_us_p99, "us");
  out->Add("serve.register_us_p99", plain.register_us_p99, "us");
  out->Add("serve.backlog_max", static_cast<double>(plain.backlog_max),
           "count");
  out->Add("exec.busy_frac.serve", pool.busy_fraction_mean, "frac");
  out->Add("gen.late_ms_p99", plain.raw_late_ms_p99, "ms");
  out->Add("trace.overhead_frac.online_scoring",
           traced.service_us_mean / plain.service_us_mean - 1.0, "frac");
}

}  // namespace roadbench
