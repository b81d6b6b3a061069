// Byte-identity goldens for the exact tree learners and gradient-boosted
// trees.
//
// Each case fits one model on the calibrated paper-scale network
// (generator seed 42) the way the CP-t study does: a stratified 67% train
// split of the phase's dataset, the CP-t target, every road attribute.
// The serialization is compared byte for byte with a committed file under
// tests/testdata/tree_goldens/. The files record exact-greedy models: every
// numeric candidate cut sits midway between consecutive distinct values of
// the node's rows, and every 0/1 or count target sums exactly. Each case
// fits at 1, 2 and 8 threads, and all three must match the file.
//
// The GBT goldens pin both fits: Fit on ascending rows, on the study's
// shuffled train split, under row and column sampling and on a table with
// missing numeric and categorical cells, and FitPaged over on-disk pages,
// serially and on 4 threads.
//
// Set ROADMINE_WRITE_GOLDENS=<dir> to write the single-thread
// serializations into <dir> instead of comparing (the thread-count
// checks still run). Regenerate only for a deliberate format change.
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/study.h"
#include "core/thresholds.h"
#include "data/paged_dataset.h"
#include "data/split.h"
#include "exec/executor.h"
#include "ml/bagging.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosting.h"
#include "ml/m5_tree.h"
#include "ml/regression_tree.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"
#include "util/rng.h"

namespace roadmine::ml {
namespace {

enum class Model { kTree, kPrunedTree, kBagged, kRegression, kM5 };

struct GoldenCase {
  const char* name;  // File stem under tests/testdata/tree_goldens/.
  Model model;
  int phase;         // 1 = crash/no-crash rows, 2 = crash-only rows.
  int threshold;     // CP-t target; -1 = the raw segment crash count.
  uint64_t split_seed;
  bool deep = false;  // Deep tree settings instead of the study's.
  SplitCriterion criterion = SplitCriterion::kChiSquare;
  double feature_fraction = 1.0;  // Bagged trees only.
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

// The study's tree settings (core::StudyConfig) and a deep variant with
// small leaves, where most nodes are small and many cuts are tied.
DecisionTreeParams TreeParams(const GoldenCase& c) {
  DecisionTreeParams params{.min_samples_leaf = 30, .max_leaves = 64};
  if (c.deep) {
    params = DecisionTreeParams{
        .min_samples_split = 10, .min_samples_leaf = 5, .max_leaves = 256};
  }
  params.criterion = c.criterion;
  return params;
}

struct PhaseData {
  data::Dataset dataset;
  std::vector<std::string> features;
};

const PhaseData& Phase(int phase) {
  static const std::vector<PhaseData>* phases = [] {
    roadgen::GeneratorConfig config;
    config.seed = 42;
    roadgen::RoadNetworkGenerator generator(config);
    auto segments = generator.Generate();
    EXPECT_TRUE(segments.ok());
    const auto records = generator.SimulateCrashRecords(*segments);
    auto both = roadgen::BuildCrashNoCrashDataset(*segments, records);
    auto crash_only = roadgen::BuildCrashOnlyDataset(*segments, records);
    EXPECT_TRUE(both.ok() && crash_only.ok());
    auto* out = new std::vector<PhaseData>(2);
    (*out)[0].dataset = std::move(*both);
    (*out)[1].dataset = std::move(*crash_only);
    for (PhaseData& data : *out) {
      for (int t : {0, 2, 4, 8, 16, 32, 64}) {
        EXPECT_TRUE(core::AddCrashProneTarget(
                        data.dataset, roadgen::kSegmentCrashCountColumn, t)
                        .ok());
      }
      for (const std::string& name : roadgen::RoadAttributeColumns()) {
        if (data.dataset.HasColumn(name)) data.features.push_back(name);
      }
    }
    return out;
  }();
  return (*phases)[static_cast<size_t>(phase - 1)];
}

std::string TargetOf(const GoldenCase& c) {
  return c.threshold < 0 ? std::string(roadgen::kSegmentCrashCountColumn)
                         : core::ThresholdTargetName(c.threshold);
}

// The study's stratified 67% split, seeded by (split_seed, threshold).
// Its train rows come out shuffled, not ascending.
util::Result<data::TrainValidationIndices> StudySplit(
    const data::Dataset& dataset, const std::string& strata,
    uint64_t split_seed, int threshold) {
  util::Rng rng(util::Rng::SplitSeed(split_seed,
                                     static_cast<uint64_t>(threshold + 1)));
  return data::StratifiedTrainValidationSplit(dataset, strata, 0.67, rng);
}

// Fits the case's model with `executor` (null = serial) and returns its
// serialization, or an empty string after recording a failure.
std::string FitSerialized(const GoldenCase& c, exec::Executor* executor) {
  const PhaseData& data = Phase(c.phase);
  const std::string target = TargetOf(c);
  // Stratify on a binary column even for the count target.
  const std::string strata =
      c.threshold < 0 ? core::ThresholdTargetName(8) : target;
  auto split = StudySplit(data.dataset, strata, c.split_seed, c.threshold);
  EXPECT_TRUE(split.ok());
  if (!split.ok()) return "";
  const std::vector<size_t>& train = split->train;

  switch (c.model) {
    case Model::kTree:
    case Model::kPrunedTree: {
      DecisionTreeParams params = TreeParams(c);
      params.executor = executor;
      DecisionTreeClassifier tree(params);
      EXPECT_TRUE(tree.Fit(data.dataset, target, data.features, train).ok());
      if (c.model == Model::kPrunedTree) {
        EXPECT_TRUE(
            tree.PruneReducedError(data.dataset, target, split->validation)
                .ok());
      }
      return tree.Serialize();
    }
    case Model::kBagged: {
      BaggedTreesParams params;
      params.num_trees = 8;
      params.tree = TreeParams(c);
      params.feature_fraction = c.feature_fraction;
      params.executor = executor;
      BaggedTreesClassifier bagged(params);
      EXPECT_TRUE(bagged.Fit(data.dataset, target, data.features, train).ok());
      return bagged.Serialize();
    }
    case Model::kRegression: {
      RegressionTreeParams params{.min_samples_leaf = 30, .max_leaves = 160};
      params.executor = executor;
      RegressionTree tree(params);
      EXPECT_TRUE(tree.Fit(data.dataset, target, data.features, train).ok());
      return tree.Serialize();
    }
    case Model::kM5: {
      M5TreeParams params;
      params.tree.executor = executor;
      M5Tree tree(params);
      EXPECT_TRUE(tree.Fit(data.dataset, target, data.features, train).ok());
      return tree.Serialize();
    }
  }
  return "";
}

std::string GoldenPath(const std::string& dir, const std::string& stem) {
  return dir + "/" + stem + ".txt";
}

// Writes `serial` as golden `stem` under ROADMINE_WRITE_GOLDENS when that
// is set, else compares it with the committed file.
void CheckGolden(const std::string& stem, const std::string& serial) {
  if (const char* out_dir = std::getenv("ROADMINE_WRITE_GOLDENS")) {
    std::ofstream out(GoldenPath(out_dir, stem), std::ios::binary);
    out << serial;
    ASSERT_TRUE(out.good()) << GoldenPath(out_dir, stem);
  } else {
    std::ifstream in(GoldenPath(ROADMINE_TESTDATA_DIR "/tree_goldens", stem),
                     std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden " << stem;
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_TRUE(serial == golden.str()) << stem << " diverged from golden";
  }
}

class TreeGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(TreeGoldenTest, SerializationMatchesGoldenAtAnyThreadCount) {
  const GoldenCase& c = GetParam();
  const std::string serial = FitSerialized(c, nullptr);
  ASSERT_FALSE(serial.empty());
  CheckGolden(c.name, serial);

  for (size_t threads : {2u, 8u}) {
    exec::ThreadPool pool(threads);
    EXPECT_TRUE(FitSerialized(c, &pool) == serial)
        << c.name << " at " << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperNetwork, TreeGoldenTest,
    ::testing::Values(
        // Decision trees at the study's size, both phases, two splits.
        GoldenCase{"dt_p1_cp0_s1", Model::kTree, 1, 0, 1},
        GoldenCase{"dt_p1_cp2_s1", Model::kTree, 1, 2, 1},
        GoldenCase{"dt_p1_cp8_s2", Model::kTree, 1, 8, 2},
        GoldenCase{"dt_p1_cp32_s1", Model::kTree, 1, 32, 1},
        GoldenCase{"dt_p2_cp2_s1", Model::kTree, 2, 2, 1},
        GoldenCase{"dt_p2_cp4_s1", Model::kTree, 2, 4, 1},
        GoldenCase{"dt_p2_cp4_s2", Model::kTree, 2, 4, 2},
        GoldenCase{"dt_p2_cp8_s1", Model::kTree, 2, 8, 1},
        GoldenCase{"dt_p2_cp16_s2", Model::kTree, 2, 16, 2},
        GoldenCase{"dt_p2_cp64_s1", Model::kTree, 2, 64, 1},
        GoldenCase{"dt_p2_cp8_s1_gini", Model::kTree, 2, 8, 1, false,
                   SplitCriterion::kGini},
        GoldenCase{"dt_p2_cp8_s1_entropy", Model::kTree, 2, 8, 1, false,
                   SplitCriterion::kEntropy},
        // Deep trees.
        GoldenCase{"dt_deep_p1_cp4_s1", Model::kTree, 1, 4, 1, true},
        GoldenCase{"dt_deep_p2_cp8_s2", Model::kTree, 2, 8, 2, true},
        GoldenCase{"dt_deep_p2_cp16_s1_gini", Model::kTree, 2, 16, 1, true,
                   SplitCriterion::kGini},
        // Reduced-error pruning against the validation rows.
        GoldenCase{"pruned_deep_p1_cp2_s1", Model::kPrunedTree, 1, 2, 1, true},
        GoldenCase{"pruned_deep_p2_cp8_s1", Model::kPrunedTree, 2, 8, 1, true},
        // Bagged trees: bootstrap rows, with and without feature bagging.
        GoldenCase{"bagged_p2_cp8_s1", Model::kBagged, 2, 8, 1},
        GoldenCase{"bagged_p1_cp4_s2_ff06", Model::kBagged, 1, 4, 2, false,
                   SplitCriterion::kChiSquare, 0.6},
        // Regression and M5 trees on CP-t targets, and on the raw count.
        GoldenCase{"rt_p1_cp4_s1", Model::kRegression, 1, 4, 1},
        GoldenCase{"rt_p2_cp8_s1", Model::kRegression, 2, 8, 1},
        GoldenCase{"rt_p2_cp16_s2", Model::kRegression, 2, 16, 2},
        GoldenCase{"rt_p2_count_s1", Model::kRegression, 2, -1, 1},
        GoldenCase{"m5_p2_cp4_s1", Model::kM5, 2, 4, 1},
        GoldenCase{"m5_p2_cp16_s2", Model::kM5, 2, 16, 2}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

struct GbtGoldenCase {
  const char* name;
  const char* golden;  // File stem under tests/testdata/tree_goldens/.
  int phase;
  int threshold;
  uint64_t split_seed;  // 0 = every row, ascending; else the study split.
  double subsample = 1.0;
  double colsample = 1.0;
  bool missing_cells = false;  // Fit on MissingCells(phase) instead.
  bool paged = false;          // FitPaged over on-disk pages (every row).
};

void PrintTo(const GbtGoldenCase& c, std::ostream* os) { *os << c.name; }

// The phase's table with missing cells: every 7th row loses `f60`, every
// 11th `texture_depth` and every 5th its `surface_type` level, so splits
// send missing rows both ways on numeric and categorical features.
const data::Dataset& MissingCells(int phase) {
  static const std::vector<data::Dataset>* tables = [] {
    auto* out = new std::vector<data::Dataset>;
    for (int p : {1, 2}) {
      data::Dataset ds = Phase(p).dataset;
      for (const auto& [name, every] :
           {std::pair<const char*, size_t>{"f60", 7}, {"texture_depth", 11}}) {
        auto col = ds.ColumnByName(name);
        EXPECT_TRUE(col.ok());
        std::vector<double> values = (*col)->numeric_values();
        for (size_t r = 0; r < values.size(); r += every) {
          values[r] = std::numeric_limits<double>::quiet_NaN();
        }
        EXPECT_TRUE(ds.ReplaceColumn(data::Column::Numeric(name, values)).ok());
      }
      auto surface = ds.ColumnByName("surface_type");
      EXPECT_TRUE(surface.ok());
      std::vector<int32_t> codes = (*surface)->codes();
      for (size_t r = 0; r < codes.size(); r += 5) codes[r] = -1;
      auto replaced = data::Column::Categorical("surface_type", codes,
                                                (*surface)->categories());
      EXPECT_TRUE(replaced.ok());
      EXPECT_TRUE(ds.ReplaceColumn(*std::move(replaced)).ok());
      out->push_back(std::move(ds));
    }
    return out;
  }();
  return (*tables)[static_cast<size_t>(phase - 1)];
}

// The phase's table written as 4096-row pages under the test temp dir.
const data::PagedDataset& PhasePages(int phase) {
  static std::vector<std::optional<data::PagedDataset>> pages(2);
  std::optional<data::PagedDataset>& slot =
      pages[static_cast<size_t>(phase - 1)];
  if (!slot.has_value()) {
    const data::Dataset& ds = Phase(phase).dataset;
    const std::string dir = ::testing::TempDir() + "/gbt_golden_pages_" +
                            std::to_string(phase);
    std::filesystem::remove_all(dir);
    auto writer = data::PagedDatasetWriter::Create(
        dir, data::TableSchema::FromDataset(ds), {.page_rows = 4096});
    EXPECT_TRUE(writer.ok());
    EXPECT_TRUE((*writer)->Append(ds).ok());
    EXPECT_TRUE((*writer)->Finish().ok());
    auto opened = data::PagedDataset::Open(dir);
    EXPECT_TRUE(opened.ok());
    slot.emplace(*std::move(opened));
  }
  return *slot;
}

std::string FitGbtSerialized(const GbtGoldenCase& c,
                             exec::Executor* executor) {
  const PhaseData& data = Phase(c.phase);
  const data::Dataset& dataset =
      c.missing_cells ? MissingCells(c.phase) : data.dataset;
  const std::string target = core::ThresholdTargetName(c.threshold);
  GradientBoostedTreesParams params = core::StudyConfig{}.gbt_params;
  params.subsample = c.subsample;
  params.colsample = c.colsample;
  params.executor = executor;
  GradientBoostedTrees model(params);
  if (c.paged) {
    data::PagedDataset::PageStream stream = PhasePages(c.phase).Pages(executor);
    const util::Status status = model.FitPaged(stream, target, data.features);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return status.ok() ? model.Serialize() : "";
  }
  std::vector<size_t> rows = dataset.AllRowIndices();
  if (c.split_seed != 0) {
    auto split = StudySplit(dataset, target, c.split_seed, c.threshold);
    EXPECT_TRUE(split.ok());
    if (!split.ok()) return "";
    rows = split->train;
  }
  const util::Status status =
      model.Fit(dataset, target, data.features, rows);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return status.ok() ? model.Serialize() : "";
}

class GbtGoldenTest : public ::testing::TestWithParam<GbtGoldenCase> {};

TEST_P(GbtGoldenTest, SerializationMatchesGoldenSerialAndOnFourThreads) {
  const GbtGoldenCase& c = GetParam();
  const std::string serial = FitGbtSerialized(c, nullptr);
  ASSERT_FALSE(serial.empty());
  CheckGolden(c.golden, serial);

  exec::ThreadPool pool(4);
  EXPECT_TRUE(FitGbtSerialized(c, &pool) == serial) << c.name
                                                    << " at 4 threads";
}

INSTANTIATE_TEST_SUITE_P(
    PaperNetwork, GbtGoldenTest,
    ::testing::Values(
        // Every row in order, in RAM and from pages: one model.
        GbtGoldenCase{"gbt_p1_cp8_all", "gbt_p1_cp8_all", 1, 8, 0},
        GbtGoldenCase{"gbt_p1_cp8_all_paged", "gbt_p1_cp8_all", 1, 8, 0, 1.0,
                      1.0, false, true},
        // The study's shuffled train split, without and with sampling.
        GbtGoldenCase{"gbt_p1_cp4_s1", "gbt_p1_cp4_s1", 1, 4, 1},
        GbtGoldenCase{"gbt_p2_cp8_s2_study", "gbt_p2_cp8_s2_study", 2, 8, 2,
                      0.8, 0.8},
        GbtGoldenCase{"gbt_p1_cp8_s1_sub07_col06", "gbt_p1_cp8_s1_sub07_col06",
                      1, 8, 1, 0.7, 0.6},
        // Missing numeric and categorical cells.
        GbtGoldenCase{"gbt_p2_cp4_s1_missing", "gbt_p2_cp4_s1_missing", 2, 4,
                      1, 1.0, 1.0, true},
        GbtGoldenCase{"gbt_p1_cp16_all_missing", "gbt_p1_cp16_all_missing", 1,
                      16, 0, 0.8, 0.8, true}),
    [](const ::testing::TestParamInfo<GbtGoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace roadmine::ml
