// Persistence round-trips for every trained model type: serialize, load
// back through the model store's header dispatch, and require bit-identical
// predictions — across randomized roadgen datasets with missing values.
#include "serve/model_store.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/thresholds.h"
#include "ml/bagging.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosting.h"
#include "ml/logistic_regression.h"
#include "ml/m5_tree.h"
#include "ml/naive_bayes.h"
#include "ml/neural_net.h"
#include "ml/regression_tree.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"
#include "serve/flat_model.h"
#include "util/string_util.h"

namespace roadmine::serve {
namespace {

data::Dataset RoadDataset(size_t n, uint64_t seed) {
  roadgen::GeneratorConfig config;
  config.num_segments = n;
  config.seed = seed;
  roadgen::RoadNetworkGenerator gen(config);
  auto segments = gen.Generate();
  EXPECT_TRUE(segments.ok());
  auto ds = roadgen::BuildSegmentDataset(*segments);
  EXPECT_TRUE(ds.ok());
  EXPECT_TRUE(core::AddCrashProneTarget(*ds, roadgen::kSegmentCrashCountColumn,
                                        4)
                  .ok());
  return std::move(*ds);
}

// Serializes `model`, loads it back through LoadPredictor (exercising the
// header dispatch), and checks name + bit-identical batch predictions.
template <typename ModelT>
void ExpectRoundTrip(const ModelT& model, const data::Dataset& ds,
                     const char* expected_name) {
  const std::string blob = model.Serialize();
  auto loaded = LoadPredictor(blob, ds);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_STREQ((*loaded)->name(), expected_name);
  auto want = model.PredictBatch(ds, ds.AllRowIndices());
  auto got = (*loaded)->PredictBatch(ds, ds.AllRowIndices());
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*want, *got);  // Bit-identical after the round-trip.
}

TEST(ModelIoTest, EveryModelTypeRoundTrips) {
  // A couple of seeds per family: the formats must survive whatever tree
  // shapes / encoders the data produces, not one lucky fit.
  for (uint64_t seed : {2u, 19u}) {
    data::Dataset ds = RoadDataset(1500, seed);
    const std::string target = core::ThresholdTargetName(4);
    const std::vector<std::string>& features =
        roadgen::RoadAttributeColumns();
    const std::vector<size_t> rows = ds.AllRowIndices();

    ml::DecisionTreeClassifier dt{
        ml::DecisionTreeParams{.min_samples_leaf = 25}};
    ASSERT_TRUE(dt.Fit(ds, target, features, rows).ok());
    ExpectRoundTrip(dt, ds, "decision_tree");

    ml::BaggedTreesParams bag_params;
    bag_params.num_trees = 5;
    bag_params.tree.min_samples_leaf = 40;
    ml::BaggedTreesClassifier bagged(bag_params);
    ASSERT_TRUE(bagged.Fit(ds, target, features, rows).ok());
    ExpectRoundTrip(bagged, ds, "bagged_trees");

    ml::RegressionTree rt{ml::RegressionTreeParams{.min_samples_leaf = 25}};
    ASSERT_TRUE(
        rt.Fit(ds, roadgen::kSegmentCrashCountColumn, features, rows).ok());
    ExpectRoundTrip(rt, ds, "regression_tree");

    ml::M5Tree m5;
    ASSERT_TRUE(
        m5.Fit(ds, roadgen::kSegmentCrashCountColumn, features, rows).ok());
    ExpectRoundTrip(m5, ds, "m5_tree");

    ml::NaiveBayesClassifier nb;
    ASSERT_TRUE(nb.Fit(ds, target, features, rows).ok());
    ExpectRoundTrip(nb, ds, "naive_bayes");

    ml::LogisticRegressionParams lr_params;
    lr_params.max_iterations = 60;
    ml::LogisticRegression lr(lr_params);
    ASSERT_TRUE(lr.Fit(ds, target, features, rows).ok());
    ExpectRoundTrip(lr, ds, "logistic_regression");

    ml::NeuralNetParams nn_params;
    nn_params.hidden_layers = {6};
    nn_params.epochs = 8;
    ml::NeuralNetClassifier nn(nn_params);
    ASSERT_TRUE(nn.Fit(ds, target, features, rows).ok());
    ExpectRoundTrip(nn, ds, "neural_net");

    auto flat = CompileModel(dt);
    ASSERT_TRUE(flat.ok());
    ExpectRoundTrip(*flat, ds, "flat_decision_tree");
  }
}

TEST(ModelIoTest, FileRoundTrip) {
  data::Dataset ds = RoadDataset(800, 7);
  ml::DecisionTreeClassifier dt{
      ml::DecisionTreeParams{.min_samples_leaf = 30}};
  ASSERT_TRUE(dt.Fit(ds, core::ThresholdTargetName(4),
                     roadgen::RoadAttributeColumns(), ds.AllRowIndices())
                  .ok());

  const std::string path = "model_io_test.roadmine";
  ASSERT_TRUE(SaveModelToFile(dt.Serialize(), path).ok());
  auto loaded = LoadPredictorFromFile(path, ds);
  ASSERT_TRUE(loaded.ok());
  auto want = dt.PredictBatch(ds, ds.AllRowIndices());
  auto got = (*loaded)->PredictBatch(ds, ds.AllRowIndices());
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*want, *got);
  std::remove(path.c_str());
}

TEST(ModelIoTest, MissingFileIsNotFound) {
  data::Dataset ds = RoadDataset(200, 1);
  auto loaded = LoadPredictorFromFile("/nonexistent/model.roadmine", ds);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound);
}

TEST(ModelIoTest, UnknownHeaderRejected) {
  data::Dataset ds = RoadDataset(200, 1);
  EXPECT_FALSE(LoadPredictor("", ds).ok());
  EXPECT_FALSE(LoadPredictor("roadmine-decision-tree v999\n", ds).ok());
  EXPECT_FALSE(LoadPredictor("not a model at all", ds).ok());
}

TEST(ModelIoTest, TruncatedBlobsRejected) {
  data::Dataset ds = RoadDataset(800, 15);
  const std::string target = core::ThresholdTargetName(4);
  const std::vector<std::string>& features = roadgen::RoadAttributeColumns();

  ml::NaiveBayesClassifier nb;
  ASSERT_TRUE(nb.Fit(ds, target, features, ds.AllRowIndices()).ok());
  ml::LogisticRegressionParams lr_params;
  lr_params.max_iterations = 40;
  ml::LogisticRegression lr(lr_params);
  ASSERT_TRUE(lr.Fit(ds, target, features, ds.AllRowIndices()).ok());

  for (const std::string& blob : {nb.Serialize(), lr.Serialize()}) {
    // Cut the blob in half: the self-terminating sections must notice.
    EXPECT_FALSE(LoadPredictor(blob.substr(0, blob.size() / 2), ds).ok());
  }
}

TEST(ModelIoTest, UnknownColumnRejected) {
  data::Dataset train = RoadDataset(800, 23);
  ml::DecisionTreeClassifier dt{
      ml::DecisionTreeParams{.min_samples_leaf = 30}};
  ASSERT_TRUE(dt.Fit(train, core::ThresholdTargetName(4),
                     roadgen::RoadAttributeColumns(), train.AllRowIndices())
                  .ok());
  const std::string blob = dt.Serialize();

  // A scoring dataset without the fitted columns must be rejected.
  data::Dataset wrong;
  ASSERT_TRUE(wrong.AddColumn(data::Column::Numeric("unrelated", {1.0})).ok());
  EXPECT_FALSE(LoadPredictor(blob, wrong).ok());
}

// --- Hostile model text ---------------------------------------------------
//
// Model text comes from outside: a malformed block must come back from
// LoadPredictor as a Status, never hang the scorer or allocate by a
// count it has not read items for.

// The body of a capped child: a 10 s alarm and, outside ASan and TSan
// builds (their shadow memory needs the address space), a 4 GiB
// address-space cap; exits 0 only if LoadPredictor returned an error.
[[noreturn]] void LoadInCappedChild(const std::string& text,
                                    const data::Dataset& ds) {
  alarm(10);
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  rlimit cap;
  cap.rlim_cur = cap.rlim_max = 4ull << 30;
  setrlimit(RLIMIT_AS, &cap);
#endif
  std::_Exit(LoadPredictor(text, ds).ok() ? 1 : 0);
}

// Loads `text` in a forked capped child, so a hang, a crash or an
// allocation sized by the text fails the test instead of the run.
void ExpectRejectedWithinCaps(const std::string& text,
                              const data::Dataset& ds) {
  EXPECT_EXIT(LoadInCappedChild(text, ds), ::testing::ExitedWithCode(0), "")
      << text.substr(0, 200);
}

// `blob` with tab field `field` of its first line starting with `prefix`
// replaced by `value`.
std::string WithField(const std::string& blob, const std::string& prefix,
                      size_t field, const std::string& value) {
  std::vector<std::string> lines = util::Split(blob, '\n');
  for (std::string& line : lines) {
    if (!util::StartsWith(line, prefix)) continue;
    std::vector<std::string> parts = util::Split(line, '\t');
    parts[field] = value;
    line = util::Join(parts, "\t");
    return util::Join(lines, "\n");
  }
  ADD_FAILURE() << "no line starting with " << prefix;
  return blob;
}

// `blob` with its first "<keyword> <n>" line's count raised to 2e9 and
// cut before the second line starting with `item`: one item follows.
std::string CountBomb(const std::string& blob, const std::string& keyword,
                      const std::string& item) {
  std::vector<std::string> lines = util::Split(blob, '\n');
  std::vector<std::string> kept;
  bool raised = false;
  size_t items = 0;
  for (const std::string& line : lines) {
    if (!raised && util::StartsWith(line, keyword + " ")) {
      kept.push_back(keyword + " 2000000000");
      raised = true;
      continue;
    }
    if (raised && util::StartsWith(line, item) && ++items == 2) break;
    kept.push_back(line);
  }
  EXPECT_TRUE(raised) << "no '" << keyword << "' count line";
  EXPECT_EQ(items, 2u) << "fewer than two '" << item << "' lines";
  return util::Join(kept, "\n");
}

ml::GradientBoostedTrees FitGbt(const data::Dataset& ds) {
  ml::GradientBoostedTreesParams params;
  params.num_trees = 3;
  params.max_depth = 3;
  ml::GradientBoostedTrees gbt(params);
  EXPECT_TRUE(gbt.Fit(ds, core::ThresholdTargetName(4),
                      roadgen::RoadAttributeColumns(), ds.AllRowIndices())
                  .ok());
  return gbt;
}

TEST(HostileModelTextTest, GbtChildIndicesThatLoopAreRejected) {
  data::Dataset ds = RoadDataset(800, 31);
  const std::string blob = FitGbt(ds).Serialize();
  ASSERT_TRUE(LoadPredictor(blob, ds).ok());
  // The first tree's root is its first internal node; field 5 is its
  // left child. 4294967296 wraps to 0 when narrowed to int, and 0 is
  // the root itself: either way PredictBatch would cycle forever.
  ExpectRejectedWithinCaps(WithField(blob, "node\t0\t", 5, "4294967296"),
                           ds);
  ExpectRejectedWithinCaps(WithField(blob, "node\t0\t", 5, "0"), ds);
}

TEST(HostileModelTextTest, HugeCountsAllocateNothingLarge) {
  data::Dataset ds = RoadDataset(800, 37);
  const std::string target = core::ThresholdTargetName(4);
  const std::vector<std::string>& features = roadgen::RoadAttributeColumns();
  const std::vector<size_t> rows = ds.AllRowIndices();

  ExpectRejectedWithinCaps(CountBomb(FitGbt(ds).Serialize(), "tree", "node\t"),
                           ds);

  ml::LogisticRegressionParams lr_params;
  lr_params.max_iterations = 20;
  ml::LogisticRegression lr(lr_params);
  ASSERT_TRUE(lr.Fit(ds, target, features, rows).ok());
  ExpectRejectedWithinCaps(CountBomb(lr.Serialize(), "weights", "w\t"), ds);

  ml::M5Tree m5;
  ASSERT_TRUE(m5.Fit(ds, roadgen::kSegmentCrashCountColumn, features, rows)
                  .ok());
  ExpectRejectedWithinCaps(CountBomb(m5.Serialize(), "leaf_models", "leaf\t"),
                           ds);

  ml::BaggedTreesParams bag_params;
  bag_params.num_trees = 2;
  bag_params.tree.min_samples_leaf = 40;
  ml::BaggedTreesClassifier bagged(bag_params);
  ASSERT_TRUE(bagged.Fit(ds, target, features, rows).ok());
  ExpectRejectedWithinCaps(CountBomb(bagged.Serialize(), "trees", "tree "),
                           ds);
}

}  // namespace
}  // namespace roadmine::serve
