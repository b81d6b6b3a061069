// Streaming scoring: ScorePaged over a chunked RowSource must equal
// scoring the materialized table and taking its top k, at any thread
// count; BuildWorksProgramPaged, over any chunking and as the in-RAM
// BuildWorksProgram, must equal a brute-force works-program oracle.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/deployment.h"
#include "core/thresholds.h"
#include "data/dataset.h"
#include "data/paged_dataset.h"
#include "data/row_source.h"
#include "exec/executor.h"
#include "ml/gradient_boosting.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"
#include "serve/scoring_service.h"

namespace roadmine::serve {
namespace {

struct Fixture {
  data::Dataset table;
  std::shared_ptr<const ml::GradientBoostedTrees> model;
};

Fixture TrainedFixture() {
  roadgen::GeneratorConfig config;
  config.num_segments = 400;
  config.seed = 977;
  auto segments = roadgen::RoadNetworkGenerator(config).Generate();
  EXPECT_TRUE(segments.ok());
  auto ds = roadgen::BuildSegmentDataset(*segments);
  EXPECT_TRUE(ds.ok());
  EXPECT_TRUE(core::AddCrashProneTarget(
                  *ds, roadgen::kSegmentCrashCountColumn, 4)
                  .ok());
  ml::GradientBoostedTreesParams params;
  params.num_trees = 6;
  params.max_depth = 3;
  params.seed = 61;
  auto model = std::make_shared<ml::GradientBoostedTrees>(params);
  EXPECT_TRUE(model
                  ->Fit(*ds, core::ThresholdTargetName(4),
                        roadgen::RoadAttributeColumns(), ds->AllRowIndices())
                  .ok());
  return Fixture{*std::move(ds), std::move(model)};
}

// The ground truth ScorePaged promises: score everything in RAM, order
// by (score desc, row asc), keep k.
std::vector<PagedScore> InRamTopK(const ScoringService& service,
                                  const data::Dataset& table, size_t k) {
  auto scores =
      service.ScoreBatch("crash", "", table, table.AllRowIndices());
  EXPECT_TRUE(scores.ok());
  std::vector<PagedScore> ranked(scores->size());
  for (size_t i = 0; i < scores->size(); ++i) {
    ranked[i] = {static_cast<uint64_t>(i), (*scores)[i]};
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const PagedScore& a, const PagedScore& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.row < b.row;
            });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

void ExpectSameRanking(const std::vector<PagedScore>& got,
                       const std::vector<PagedScore>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].row, want[i].row) << "rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
  }
}

TEST(ScorePagedTest, EqualsInRamTopKAcrossChunkings) {
  const Fixture fx = TrainedFixture();
  ScoringService service;
  ASSERT_TRUE(service.Register("crash", "v1", fx.model).ok());
  const auto want = InRamTopK(service, fx.table, 25);

  for (const size_t chunk_rows : {size_t{1}, size_t{33}, size_t{4096}}) {
    data::DatasetSource source(fx.table, fx.table.AllRowIndices(),
                               chunk_rows);
    auto got = service.ScorePaged("crash", "v1", source, 25);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameRanking(*got, want);
  }
}

TEST(ScorePagedTest, ThreadedPagesMatchSerial) {
  const Fixture fx = TrainedFixture();

  const std::string dir = ::testing::TempDir() + "/score_paged";
  std::filesystem::remove_all(dir);
  auto writer = data::PagedDatasetWriter::Create(
      dir, data::TableSchema::FromDataset(fx.table), {.page_rows = 64});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(fx.table).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  auto paged = data::PagedDataset::Open(dir);
  ASSERT_TRUE(paged.ok());

  ScoringService serial_service;
  ASSERT_TRUE(serial_service.Register("crash", "v1", fx.model).ok());
  const auto want = InRamTopK(serial_service, fx.table, 40);

  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    exec::ThreadPool pool(threads);
    ScoringService service({.executor = &pool});
    ASSERT_TRUE(service.Register("crash", "v1", fx.model).ok());
    data::PagedDataset::PageStream stream = paged->Pages(&pool);
    auto got = service.ScorePaged("crash", "", stream, 40);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameRanking(*got, want);
  }
}

TEST(ScorePagedTest, TopKPastStreamLengthReturnsEveryRowRanked) {
  const Fixture fx = TrainedFixture();
  ScoringService service;
  ASSERT_TRUE(service.Register("crash", "v1", fx.model).ok());
  data::DatasetSource source(fx.table);
  auto got = service.ScorePaged("crash", "v1", source, 1u << 20);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), fx.table.num_rows());
  ExpectSameRanking(*got, InRamTopK(service, fx.table, fx.table.num_rows()));
}

TEST(ScorePagedTest, RejectsZeroTopKAndUnknownModels) {
  const Fixture fx = TrainedFixture();
  ScoringService service;
  ASSERT_TRUE(service.Register("crash", "v1", fx.model).ok());
  data::DatasetSource source(fx.table);
  EXPECT_FALSE(service.ScorePaged("crash", "v1", source, 0).ok());
  EXPECT_FALSE(service.ScorePaged("nope", "", source, 5).ok());
  EXPECT_FALSE(service.ScorePaged("crash", "v9", source, 5).ok());
}

// --- Paged works program -------------------------------------------------

// The treatment triggers of core::DeploymentConfig, spelled out.
std::vector<std::string> OracleTreatments(const data::Dataset& table,
                                          size_t row,
                                          const core::DeploymentConfig& c) {
  auto value = [&](const char* name) {
    return (*table.ColumnByName(name))->NumericAt(row);
  };
  std::vector<std::string> out;
  if (value("f60") < c.f60_floor) {
    out.push_back("reseal: skid resistance below floor");
  }
  if (value("texture_depth") < c.texture_floor) {
    out.push_back("retexture: texture depth below floor");
  }
  if (value("seal_age") > c.seal_age_ceiling) {
    out.push_back("reseal: surface beyond design life");
  }
  if (value("shoulder_width") < c.shoulder_floor) {
    out.push_back("widen shoulder");
  }
  if (value("roughness_iri") > c.roughness_ceiling) {
    out.push_back("rehabilitate: roughness above ceiling");
  }
  if (out.empty()) out.push_back("investigate: no surface deficit flagged");
  return out;
}

// The program by brute force: score every row, sort all rows by
// (probability desc, row asc) and by (count desc, row asc), count the
// overlap of the two top deciles, and list the probability order down to
// the floor and the cap.
core::WorksProgram OracleProgram(const data::Dataset& table,
                                 const ml::Predictor& model,
                                 const core::DeploymentConfig& config) {
  const size_t n = table.num_rows();
  auto scores = model.PredictBatch(table, table.AllRowIndices());
  EXPECT_TRUE(scores.ok());
  const data::Column& ids =
      **table.ColumnByName(roadgen::kSegmentIdColumn);
  const data::Column& counts =
      **table.ColumnByName(roadgen::kSegmentCrashCountColumn);
  auto ranked_by = [&](auto key) {
    std::vector<size_t> order = table.AllRowIndices();
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (key(a) != key(b)) return key(a) > key(b);
      return a < b;
    });
    return order;
  };
  const std::vector<size_t> by_probability =
      ranked_by([&](size_t r) { return (*scores)[r]; });
  const std::vector<size_t> by_count =
      ranked_by([&](size_t r) { return counts.NumericAt(r); });

  const size_t decile = std::max<size_t>(1, n / 10);
  size_t overlap = 0;
  for (size_t i = 0; i < decile; ++i) {
    overlap += std::count(by_count.begin(), by_count.begin() + decile,
                          by_probability[i]);
  }
  core::WorksProgram program;
  program.top_decile_agreement =
      static_cast<double>(overlap) / static_cast<double>(decile);
  for (size_t row : by_probability) {
    if ((*scores)[row] < config.min_probability) break;
    if (config.max_segments != 0 &&
        program.segments.size() == config.max_segments) {
      break;
    }
    program.segments.push_back(
        {.segment_id = static_cast<int64_t>(ids.NumericAt(row)),
         .crash_prone_probability = (*scores)[row],
         .observed_crash_count = counts.NumericAt(row),
         .recommended_treatments = OracleTreatments(table, row, config)});
  }
  return program;
}

void ExpectSameProgram(const core::WorksProgram& got,
                       const core::WorksProgram& want) {
  EXPECT_EQ(got.top_decile_agreement, want.top_decile_agreement);
  ASSERT_EQ(got.segments.size(), want.segments.size());
  for (size_t i = 0; i < got.segments.size(); ++i) {
    EXPECT_EQ(got.segments[i].segment_id, want.segments[i].segment_id);
    EXPECT_EQ(got.segments[i].crash_prone_probability,
              want.segments[i].crash_prone_probability);
    EXPECT_EQ(got.segments[i].observed_crash_count,
              want.segments[i].observed_crash_count);
    EXPECT_EQ(got.segments[i].recommended_treatments,
              want.segments[i].recommended_treatments);
  }
}

// Every form of the builder against the oracle: the in-RAM entry point,
// the whole table as one zero-copy chunk, and gathered chunks.
void ExpectEveryFormMatchesTheOracle(const Fixture& fx,
                                     const core::DeploymentConfig& config) {
  const core::WorksProgram want = OracleProgram(fx.table, *fx.model, config);
  auto in_ram = core::BuildWorksProgram(fx.table, *fx.model, config);
  ASSERT_TRUE(in_ram.ok()) << in_ram.status().ToString();
  ExpectSameProgram(*in_ram, want);

  data::DatasetSource zero_copy(fx.table);
  auto single = core::BuildWorksProgramPaged(zero_copy, *fx.model, config);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  ExpectSameProgram(*single, want);

  for (const size_t chunk_rows : {size_t{17}, size_t{64}, size_t{128}}) {
    data::DatasetSource source(fx.table, fx.table.AllRowIndices(),
                               chunk_rows);
    auto got = core::BuildWorksProgramPaged(source, *fx.model, config);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameProgram(*got, want);
  }
}

TEST(BuildWorksProgramPagedTest, ReproducesTheInRamProgram) {
  const Fixture fx = TrainedFixture();
  // 400 rows: the decile (40) outgrows the cap, so the probability heap
  // keeps rows the program never lists.
  ExpectEveryFormMatchesTheOracle(fx, {.max_segments = 30});
}

TEST(BuildWorksProgramPagedTest, HonorsMaxSegmentsZeroAndFloors) {
  const Fixture fx = TrainedFixture();
  // List everything above the floor: inherently O(rows).
  ExpectEveryFormMatchesTheOracle(
      fx, {.max_segments = 0, .min_probability = 0.05});
  // A floor above every score lists nothing but still ranks the decile.
  ExpectEveryFormMatchesTheOracle(
      fx, {.max_segments = 0, .min_probability = 2.0});
}

}  // namespace
}  // namespace roadmine::serve
