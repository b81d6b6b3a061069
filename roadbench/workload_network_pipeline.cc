// network_pipeline: the operator's batch job. Set-up emits a large
// network to pages (roadgen::EmitSegmentPages) and writes it out as CSV.
// The timed part ingests that CSV, re-pages it, trains a GBT from the
// pages, compiles it to a FlatModel and builds the paged works program
// through the compiled model.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/deployment.h"
#include "core/thresholds.h"
#include "data/csv_io.h"
#include "data/paged_dataset.h"
#include "decorators.h"
#include "ml/gradient_boosting.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/paged_emit.h"
#include "serve/flat_model.h"
#include "util/rng.h"
#include "workloads.h"

namespace roadbench {

namespace {

namespace fs = std::filesystem;
using roadmine::data::Dataset;
using roadmine::data::PagedDataset;

constexpr int kThreshold = 4;

struct PipelineInputs {
  std::string csv_path;
  uint64_t emitted = 0;
  uint64_t csv_bytes = 0;
};

// Set-up: emit the network to pages, then stream the pages out as CSV in
// the library's default number format (6 significant digits), as an
// operator exporting through roadmine would produce it.
bool EmitNetwork(const RunConfig& config, Outcome* out,
                 PipelineInputs* inputs) {
  const std::string emit_dir = config.work_dir + "/emitted_pages";
  std::error_code ec;
  fs::remove_all(emit_dir, ec);

  roadmine::roadgen::GeneratorConfig gen_config;
  gen_config.num_segments = config.scale.pipeline_segments;
  gen_config.seed = config.seed;
  {
    roadmine::obs::ScopedSpan span("bench.roadgen.emit");
    auto rows = roadmine::roadgen::EmitSegmentPages(
        gen_config, emit_dir,
        {.page_rows = config.scale.pipeline_page_rows,
         .targets = {{roadmine::core::ThresholdTargetName(kThreshold),
                      static_cast<double>(kThreshold)}}});
    if (!out->Op(rows.ok(), "network_pipeline: emit")) return false;
    inputs->emitted = *rows;
  }

  inputs->csv_path = config.work_dir + "/network.csv";
  auto pages = PagedDataset::Open(emit_dir);
  if (!out->Op(pages.ok(), "network_pipeline: open emitted pages")) {
    return false;
  }
  std::ofstream csv(inputs->csv_path, std::ios::binary | std::ios::trunc);
  for (size_t p = 0; p < pages->num_pages(); ++p) {
    auto page = pages->ReadPage(p);
    if (!out->Op(page.ok(), "network_pipeline: read emitted page")) {
      return false;
    }
    std::string text = roadmine::data::DatasetToCsvText(*page);
    // Every page carries the header; keep only the first one.
    const size_t body = p == 0 ? 0 : text.find('\n') + 1;
    csv.write(text.data() + body,
              static_cast<std::streamsize>(text.size() - body));
  }
  csv.close();
  fs::remove_all(emit_dir, ec);
  if (!out->Op(csv.good(), "network_pipeline: write CSV")) return false;
  inputs->csv_bytes = fs::file_size(inputs->csv_path, ec);
  return true;
}

roadmine::ml::GradientBoostedTreesParams GbtParams(const RunConfig& config) {
  roadmine::ml::GradientBoostedTreesParams params;
  params.num_trees = config.scale.pipeline_trees;
  params.max_depth = 5;
  params.max_bins = 256;
  params.seed = config.seed;
  params.executor = config.pool;
  return params;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

struct PassResult {
  double wall_ms = 0.0;
  double top_decile_agreement = 0.0;
  double csv_peak_buffer_kb = 0.0;
  uint64_t page_bytes = 0;
  uint64_t pages_read = 0;
  uint64_t rows_scored = 0;
  roadmine::exec::PoolProfile fit_pool;
};

// The timed part: CSV → pages → FitPaged → CompileModel → paged works
// program. Output checks that need extra scoring run after the clock
// stops.
PassResult RunPipelinePass(const RunConfig& config,
                           const PipelineInputs& inputs, bool profile_pool,
                           Outcome* out) {
  const std::string pages_dir = config.work_dir + "/pages";
  std::error_code ec;
  fs::remove_all(pages_dir, ec);
  const std::string target = roadmine::core::ThresholdTargetName(kThreshold);
  const std::vector<std::string>& features =
      roadmine::roadgen::RoadAttributeColumns();
  // Perturbed runs expect one scored row too many and flip one bit of the
  // reference scores, so the works and FlatModel checks must fail. The
  // ingest checks stay exact: the later stages need their output.
  const uint64_t expected_scored =
      inputs.emitted + (config.perturb_reference ? 1 : 0);

  PassResult pass;
  const Clock::time_point start = Clock::now();

  // Stage 1: CSV ingest, re-paged to disk.
  bool ingested = false;
  {
    std::unique_ptr<roadmine::data::CsvChunkReader> reader;
    {
      roadmine::obs::ScopedSpan span("bench.data.csv_open");
      auto opened = roadmine::data::CsvChunkReader::OpenFile(inputs.csv_path);
      if (opened.ok()) reader = std::move(*opened);
    }
    std::unique_ptr<roadmine::data::PagedDatasetWriter> writer;
    if (reader != nullptr) {
      roadmine::obs::ScopedSpan span("bench.data.page_write");
      auto created = roadmine::data::PagedDatasetWriter::Create(
          pages_dir, reader->schema(),
          {.page_rows = config.scale.pipeline_page_rows});
      if (created.ok()) writer = std::move(*created);
    }
    bool write_ok = writer != nullptr;
    bool read_ok = reader != nullptr;
    if (read_ok && write_ok) {
      TimedRowSource csv(*reader, "bench.data.csv_next");
      for (;;) {
        auto chunk = csv.Next();
        if (!chunk.ok()) {
          read_ok = false;
          break;
        }
        if (*chunk == nullptr) break;
        roadmine::obs::ScopedSpan span("bench.data.page_write");
        if (!writer->Append(**chunk).ok()) {
          write_ok = false;
          break;
        }
      }
      if (write_ok) {
        roadmine::obs::ScopedSpan span("bench.data.page_write");
        write_ok = writer->Finish().ok();
      }
      read_ok = read_ok && csv.rows() == inputs.emitted;
      pass.csv_peak_buffer_kb =
          static_cast<double>(reader->peak_buffered_bytes()) / 1024.0;
    }
    out->Op(read_ok, "network_pipeline: CSV ingest (rows ingested == emitted)");
    write_ok = write_ok && writer->rows_written() == inputs.emitted;
    out->Op(write_ok, "network_pipeline: page write");
    ingested = read_ok && write_ok;
  }
  if (!ingested) return pass;

  // Stage 2: GBT training from the pages.
  roadmine::util::Result<PagedDataset> paged = [&] {
    roadmine::obs::ScopedSpan span("bench.data.page_open");
    return PagedDataset::Open(pages_dir);
  }();
  if (!out->Op(paged.ok(), "network_pipeline: open pages")) return pass;
  pass.page_bytes = DirectoryBytes(pages_dir);

  auto gbt = std::make_unique<roadmine::ml::GradientBoostedTrees>(
      GbtParams(config));
  {
    auto stream = paged->Pages(config.pool);
    TimedRowSource train(stream, "bench.data.page_next.train");
    if (profile_pool) config.profiler->Begin(config.pool->concurrency());
    roadmine::util::Status fit = [&] {
      roadmine::obs::ScopedSpan span("bench.ml.gbt_fit_paged");
      return gbt->FitPaged(train, target, features);
    }();
    if (profile_pool) pass.fit_pool = config.profiler->Finish();
    pass.pages_read += train.chunks();
    if (!out->Op(fit.ok(), "network_pipeline: FitPaged")) return pass;
  }

  // Stage 3: compile.
  roadmine::util::Result<roadmine::serve::FlatModel> flat = [&] {
    roadmine::obs::ScopedSpan span("bench.serve.compile");
    return roadmine::serve::CompileModel(*gbt);
  }();
  if (!out->Op(flat.ok(), "network_pipeline: CompileModel")) return pass;

  // Stage 4: paged works program through the compiled model.
  roadmine::core::WorksProgram program;
  {
    auto stream = paged->Pages(config.pool);
    TimedRowSource works(stream, "bench.data.page_next.works");
    TimedPredictor predictor(*flat, "bench.serve.predict_batch");
    const roadmine::core::DeploymentConfig deploy;  // Top 50, no floor.
    auto built = [&] {
      roadmine::obs::ScopedSpan span("bench.core.works_paged");
      return roadmine::core::BuildWorksProgramPaged(works, predictor, deploy);
    }();
    pass.pages_read += works.chunks();
    pass.rows_scored = predictor.rows();
    bool ok = built.ok();
    if (ok) {
      program = std::move(*built);
      ok = program.segments.size() == deploy.max_segments &&
           predictor.rows() == expected_scored &&
           std::is_sorted(program.segments.begin(), program.segments.end(),
                          [](const auto& a, const auto& b) {
                            return a.crash_prone_probability >
                                   b.crash_prone_probability;
                          });
    }
    out->Op(ok, "network_pipeline: works program (full, sorted, every row "
                "scored)");
  }
  pass.wall_ms = MillisSince(start);
  pass.top_decile_agreement = program.top_decile_agreement;

  // Untimed check: the compiled model scores a sampled page bitwise like
  // the GBT it came from.
  roadmine::util::Rng rng(config.seed);
  const auto sampled = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(paged->num_pages()) - 1));
  auto page = paged->ReadPage(sampled);
  bool same = page.ok();
  if (same) {
    const std::vector<size_t> rows = page->AllRowIndices();
    auto flat_scores = flat->PredictBatch(*page, rows);
    auto gbt_scores = gbt->PredictBatch(*page, rows);
    if (config.perturb_reference && gbt_scores.ok() && !gbt_scores->empty()) {
      uint64_t bits;
      std::memcpy(&bits, gbt_scores->data(), sizeof(bits));
      bits ^= 1;
      std::memcpy(gbt_scores->data(), &bits, sizeof(bits));
    }
    same = flat_scores.ok() && gbt_scores.ok() &&
           flat_scores->size() == rows.size() &&
           gbt_scores->size() == rows.size() &&
           std::memcmp(flat_scores->data(), gbt_scores->data(),
                       rows.size() * sizeof(double)) == 0;
  }
  out->Op(same, "network_pipeline: FlatModel == GBT on a sampled page");
  return pass;
}

}  // namespace

void MeasureNetworkPipeline(const RunConfig& config, Outcome* out) {
  PipelineInputs inputs;
  const double setup_s =
      MedianSetupSeconds(config.scale.setup_seconds,
                         [&] { return EmitNetwork(config, out, &inputs); });
  if (setup_s < 0.0) return;

  std::vector<double> pass_ms;
  double agreement = 0.0;
  const Clock::time_point start = Clock::now();
  do {
    const PassResult pass = RunPipelinePass(config, inputs, false, out);
    if (pass.wall_ms <= 0.0) return;  // A stage failed; counted above.
    pass_ms.push_back(pass.wall_ms);
    agreement = pass.top_decile_agreement;
    std::fprintf(stderr, "roadbench: network_pipeline pass %zu: %.3f s\n",
                 pass_ms.size(), pass.wall_ms / 1e3);
  } while (SecondsSince(start) < config.seconds);

  out->Add("setup_s", setup_s, "s");
  out->Add("job_s", Median(pass_ms) / 1e3, "s");
  out->Add("quality", agreement, "score");
}

void TraceNetworkPipeline(const RunConfig& config, Outcome* out) {
  PipelineInputs inputs;
  BeginTrace();
  const bool emitted = EmitNetwork(config, out, &inputs);
  const LayerTrace setup_trace = EndTrace();
  if (!emitted) return;
  out->Add("roadgen.emit_ms", setup_trace.SelfMs("bench.roadgen.emit"), "ms");

  // Plain, traced, traced, plain: both kinds sit at the same mean position
  // in the sequence, so warm-up and slow host drift cancel out of the
  // overhead. The layer metrics come from the second traced pass.
  const PassResult plain_first = RunPipelinePass(config, inputs, false, out);
  BeginTrace();
  const PassResult traced_first = RunPipelinePass(config, inputs, true, out);
  EndTrace();
  BeginTrace();
  const PassResult traced = RunPipelinePass(config, inputs, true, out);
  const LayerTrace trace = EndTrace();
  const PassResult plain_last = RunPipelinePass(config, inputs, false, out);
  if (plain_first.wall_ms <= 0.0 || traced_first.wall_ms <= 0.0 ||
      traced.wall_ms <= 0.0 || plain_last.wall_ms <= 0.0) {
    return;
  }

  const double csv_ms = trace.SelfMs("bench.data.csv_open") +
                        trace.SelfMs("bench.data.csv_next");
  const double rows = static_cast<double>(inputs.emitted);
  const double fit_self_ms = trace.SelfMs("bench.ml.gbt_fit_paged");
  const double predict_ms = trace.SelfMs("bench.serve.predict_batch");
  out->Add("data.csv_ingest_ms", csv_ms, "ms");
  out->Add("data.csv_mb_per_s",
           static_cast<double>(inputs.csv_bytes) / 1e6 / (csv_ms / 1e3),
           "MB/s");
  out->Add("data.csv_peak_buffer_kb", traced.csv_peak_buffer_kb, "KiB");
  out->Add("data.page_write_ms", trace.SelfMs("bench.data.page_write"), "ms");
  out->Add("data.page_bytes", static_cast<double>(traced.page_bytes), "bytes");
  out->Add("data.pages_read", static_cast<double>(traced.pages_read), "count");
  out->Add("data.page_wait_ms.train",
           trace.SelfMs("bench.data.page_next.train"), "ms");
  out->Add("data.page_wait_ms.works",
           trace.SelfMs("bench.data.page_next.works"), "ms");
  out->Add("ml.gbt_fit_self_ms", fit_self_ms, "ms");
  out->Add("ml.gbt_row_trees_per_s",
           rows * static_cast<double>(config.scale.pipeline_trees) /
               (fit_self_ms / 1e3),
           "1/s");
  out->Add("exec.busy_frac.gbt_fit", traced.fit_pool.busy_fraction_mean,
           "frac");
  out->Add("exec.imbalance.gbt_fit", traced.fit_pool.imbalance, "ratio");
  out->Add("serve.compile_ms", trace.SelfMs("bench.serve.compile"), "ms");
  out->Add("serve.predict_ms", predict_ms, "ms");
  out->Add("serve.predict_rows_per_s",
           static_cast<double>(traced.rows_scored) / (predict_ms / 1e3),
           "1/s");
  out->Add("core.works_self_ms", trace.SelfMs("bench.core.works_paged"), "ms");
  out->Add("trace.coverage.network_pipeline",
           trace.TotalSelfMs() / traced.wall_ms, "frac");
  out->Add("trace.overhead_frac.network_pipeline",
           (traced_first.wall_ms + traced.wall_ms) /
                   (plain_first.wall_ms + plain_last.wall_ms) -
               1.0,
           "frac");
}

}  // namespace roadbench
