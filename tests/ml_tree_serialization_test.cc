#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ml/bagging.h"
#include "ml/decision_tree.h"
#include "ml/m5_tree.h"
#include "ml/regression_tree.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace roadmine::ml {
namespace {

// Mixed numeric + categorical task so both split kinds serialize.
data::Dataset MixedDataset(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x, y;
  std::vector<std::string> c;
  for (size_t i = 0; i < n; ++i) {
    const double xi = rng.Uniform(0.0, 10.0);
    const bool chip = rng.Bernoulli(0.4);
    x.push_back(rng.Bernoulli(0.05) ? std::numeric_limits<double>::quiet_NaN()
                                    : xi);
    c.push_back(chip ? "chip_seal" : "asphalt");
    y.push_back((xi > 5.0 || chip) ? 1.0 : 0.0);
  }
  data::Dataset ds;
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  EXPECT_TRUE(ds.AddColumn(data::Column::CategoricalFromStrings("c", c)).ok());
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  return ds;
}

DecisionTreeClassifier FitTree(const data::Dataset& ds) {
  DecisionTreeParams params;
  params.min_samples_leaf = 20;
  DecisionTreeClassifier tree(params);
  EXPECT_TRUE(tree.Fit(ds, "y", {"x", "c"}, ds.AllRowIndices()).ok());
  return tree;
}

TEST(TreeSerializationTest, RoundTripPreservesPredictions) {
  data::Dataset ds = MixedDataset(1500, 1);
  DecisionTreeClassifier tree = FitTree(ds);
  const std::string blob = tree.Serialize();
  auto loaded = DecisionTreeClassifier::Deserialize(blob, ds);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->leaf_count(), tree.leaf_count());
  EXPECT_EQ(loaded->node_count(), tree.node_count());
  for (size_t r = 0; r < ds.num_rows(); r += 7) {
    EXPECT_DOUBLE_EQ(loaded->PredictProba(ds, r), tree.PredictProba(ds, r))
        << "row " << r;
  }
}

TEST(TreeSerializationTest, RoundTripPreservesRules) {
  data::Dataset ds = MixedDataset(800, 3);
  DecisionTreeClassifier tree = FitTree(ds);
  auto loaded = DecisionTreeClassifier::Deserialize(tree.Serialize(), ds);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->ExtractRules(), tree.ExtractRules());
}

TEST(TreeSerializationTest, LoadsAgainstEquivalentSchema) {
  // Score a different dataset with the same column layout.
  data::Dataset train = MixedDataset(1000, 5);
  data::Dataset other = MixedDataset(300, 99);
  DecisionTreeClassifier tree = FitTree(train);
  auto loaded = DecisionTreeClassifier::Deserialize(tree.Serialize(), other);
  ASSERT_TRUE(loaded.ok());
  for (size_t r = 0; r < other.num_rows(); r += 13) {
    EXPECT_DOUBLE_EQ(loaded->PredictProba(other, r),
                     tree.PredictProba(other, r));
  }
}

TEST(TreeSerializationTest, SchemaMismatchRejected) {
  data::Dataset ds = MixedDataset(500, 7);
  DecisionTreeClassifier tree = FitTree(ds);
  const std::string blob = tree.Serialize();

  data::Dataset missing_column;
  ASSERT_TRUE(
      missing_column.AddColumn(data::Column::Numeric("x", {1.0})).ok());
  EXPECT_FALSE(
      DecisionTreeClassifier::Deserialize(blob, missing_column).ok());

  data::Dataset wrong_type;
  ASSERT_TRUE(wrong_type
                  .AddColumn(data::Column::CategoricalFromStrings("x", {"a"}))
                  .ok());
  ASSERT_TRUE(wrong_type
                  .AddColumn(data::Column::CategoricalFromStrings("c", {"a"}))
                  .ok());
  EXPECT_FALSE(DecisionTreeClassifier::Deserialize(blob, wrong_type).ok());
}

TEST(TreeSerializationTest, CorruptInputsRejected) {
  data::Dataset ds = MixedDataset(500, 9);
  DecisionTreeClassifier tree = FitTree(ds);
  const std::string blob = tree.Serialize();

  EXPECT_FALSE(DecisionTreeClassifier::Deserialize("", ds).ok());
  EXPECT_FALSE(DecisionTreeClassifier::Deserialize("garbage", ds).ok());

  // Truncate after the header.
  const std::string truncated = blob.substr(0, blob.find("nodes "));
  EXPECT_FALSE(DecisionTreeClassifier::Deserialize(truncated, ds).ok());

  // Corrupt a node line's numeric field.
  std::string corrupted = blob;
  const size_t pos = corrupted.find("node\t");
  corrupted.replace(pos, 6, "node\tZ");
  EXPECT_FALSE(DecisionTreeClassifier::Deserialize(corrupted, ds).ok());
}

TEST(TreeSerializationTest, HeaderVersionChecked) {
  data::Dataset ds = MixedDataset(300, 11);
  DecisionTreeClassifier tree = FitTree(ds);
  std::string blob = tree.Serialize();
  blob.replace(0, blob.find('\n'), "roadmine-decision-tree v999");
  EXPECT_FALSE(DecisionTreeClassifier::Deserialize(blob, ds).ok());
}

// --- Child-index validation --------------------------------------------
//
// A child index that wraps when narrowed to int (4294967296 -> 0), points
// back at its own node or an ancestor, or runs past the node count would
// make prediction loop forever or read out of bounds; every tree loader
// and container must reject it.

// The text with field `field` (6 = left child, 7 = right child) of the
// `nth` internal node line replaced by `value`.
std::string WithChild(const std::string& blob, size_t nth, size_t field,
                      const std::string& value) {
  std::vector<std::string> lines = util::Split(blob, '\n');
  for (std::string& line : lines) {
    if (!util::StartsWith(line, "node\t1\t") &&
        util::StartsWith(line, "node\t") && nth-- == 0) {
      std::vector<std::string> parts = util::Split(line, '\t');
      parts[field] = value;
      line = util::Join(parts, "\t");
      return util::Join(lines, "\n");
    }
  }
  ADD_FAILURE() << "no internal node " << nth;
  return blob;
}

// Corruptions of the first and second internal nodes (the root, then its
// first internal descendant at index >= 1).
std::vector<std::string> BadChildren(const std::string& blob) {
  return {
      WithChild(blob, 0, 6, "4294967296"),  // Wraps to the root itself.
      WithChild(blob, 0, 7, "4294967297"),  // Wraps to 1.
      WithChild(blob, 0, 6, "0"),           // Self-loop.
      WithChild(blob, 1, 7, "0"),           // Back to the root.
      WithChild(blob, 0, 6, "-1"),          // Internal node without child.
      WithChild(blob, 0, 7, "999999"),      // Past the node count.
      WithChild(blob, 0, 6, "2147483648"),  // Past INT_MAX.
  };
}

data::Dataset RegressionDataset() {
  data::Dataset ds = MixedDataset(800, 21);
  std::vector<double> target;
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    target.push_back(ds.column(2).NumericAt(r) * 3.0 + (r % 5));
  }
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("t", target)).ok());
  return ds;
}

TEST(TreeSerializationTest, DecisionTreeRejectsBadChildIndices) {
  data::Dataset ds = MixedDataset(800, 13);
  const std::string blob = FitTree(ds).Serialize();
  ASSERT_TRUE(DecisionTreeClassifier::Deserialize(blob, ds).ok());
  for (const std::string& bad : BadChildren(blob)) {
    EXPECT_FALSE(DecisionTreeClassifier::Deserialize(bad, ds).ok()) << bad;
  }
}

TEST(TreeSerializationTest, PrunedDecisionTreeStillLoads) {
  // Pruned-away subtrees leave leaves that keep their former children.
  data::Dataset ds = MixedDataset(800, 17);
  DecisionTreeParams params;
  params.min_samples_leaf = 2;
  params.min_samples_split = 4;
  DecisionTreeClassifier tree(params);
  std::vector<size_t> train, validation;
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    (r % 3 == 0 ? validation : train).push_back(r);
  }
  ASSERT_TRUE(tree.Fit(ds, "y", {"x", "c"}, train).ok());
  const size_t leaves = tree.leaf_count();
  ASSERT_TRUE(tree.PruneReducedError(ds, "y", validation).ok());
  ASSERT_LT(tree.leaf_count(), leaves);
  auto loaded = DecisionTreeClassifier::Deserialize(tree.Serialize(), ds);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Serialize(), tree.Serialize());
}

TEST(TreeSerializationTest, RegressionTreeRejectsBadChildIndices) {
  data::Dataset ds = RegressionDataset();
  RegressionTree tree(RegressionTreeParams{.min_samples_leaf = 20});
  ASSERT_TRUE(tree.Fit(ds, "t", {"x", "c"}, ds.AllRowIndices()).ok());
  const std::string blob = tree.Serialize();
  ASSERT_TRUE(RegressionTree::Deserialize(blob, ds).ok());
  for (const std::string& bad : BadChildren(blob)) {
    EXPECT_FALSE(RegressionTree::Deserialize(bad, ds).ok()) << bad;
  }
}

TEST(TreeSerializationTest, M5TreeRejectsBadChildIndices) {
  data::Dataset ds = RegressionDataset();
  M5TreeParams params;
  params.tree.min_samples_leaf = 20;
  M5Tree tree(params);
  ASSERT_TRUE(tree.Fit(ds, "t", {"x", "c"}, ds.AllRowIndices()).ok());
  const std::string blob = tree.Serialize();
  ASSERT_TRUE(M5Tree::Deserialize(blob, ds).ok());
  for (const std::string& bad : BadChildren(blob)) {
    EXPECT_FALSE(M5Tree::Deserialize(bad, ds).ok()) << bad;
  }
}

TEST(TreeSerializationTest, BaggedTreesRejectBadChildIndices) {
  data::Dataset ds = MixedDataset(800, 19);
  BaggedTreesParams params;
  params.num_trees = 3;
  params.tree.min_samples_leaf = 20;
  BaggedTreesClassifier bagged(params);
  ASSERT_TRUE(bagged.Fit(ds, "y", {"x", "c"}, ds.AllRowIndices()).ok());
  const std::string blob = bagged.Serialize();
  ASSERT_TRUE(BaggedTreesClassifier::Deserialize(blob, ds).ok());
  for (const std::string& bad : BadChildren(blob)) {
    EXPECT_FALSE(BaggedTreesClassifier::Deserialize(bad, ds).ok()) << bad;
  }
}

// --- Feature-count validation ------------------------------------------
//
// The feature count is untrusted text: a huge one must end in a clean
// "truncated feature list" error, never in an allocation sized by it.

// The text with its first "features <n>" line's count replaced by `count`.
std::string WithFeatureCount(const std::string& blob,
                             const std::string& count) {
  std::vector<std::string> lines = util::Split(blob, '\n');
  for (std::string& line : lines) {
    if (util::StartsWith(line, "features ")) {
      line = "features " + count;
      return util::Join(lines, "\n");
    }
  }
  ADD_FAILURE() << "no features line";
  return blob;
}

const std::vector<std::string> kHugeFeatureCounts = {
    "9000000000000000000", "4294967296", "1000000000"};

TEST(TreeSerializationTest, DecisionTreeRejectsHugeFeatureCount) {
  data::Dataset ds = MixedDataset(500, 23);
  const std::string blob = FitTree(ds).Serialize();
  for (const std::string& count : kHugeFeatureCounts) {
    EXPECT_FALSE(
        DecisionTreeClassifier::Deserialize(WithFeatureCount(blob, count), ds)
            .ok())
        << count;
  }
}

TEST(TreeSerializationTest, BaggedTreesRejectHugeFeatureCount) {
  data::Dataset ds = MixedDataset(500, 29);
  BaggedTreesParams params;
  params.num_trees = 2;
  params.tree.min_samples_leaf = 20;
  BaggedTreesClassifier bagged(params);
  ASSERT_TRUE(bagged.Fit(ds, "y", {"x", "c"}, ds.AllRowIndices()).ok());
  const std::string blob = bagged.Serialize();
  for (const std::string& count : kHugeFeatureCounts) {
    EXPECT_FALSE(
        BaggedTreesClassifier::Deserialize(WithFeatureCount(blob, count), ds)
            .ok())
        << count;
  }
}

TEST(TreeSerializationTest, RegressionTreeRejectsHugeFeatureCount) {
  data::Dataset ds = RegressionDataset();
  RegressionTree tree(RegressionTreeParams{.min_samples_leaf = 20});
  ASSERT_TRUE(tree.Fit(ds, "t", {"x", "c"}, ds.AllRowIndices()).ok());
  const std::string blob = tree.Serialize();
  for (const std::string& count : kHugeFeatureCounts) {
    EXPECT_FALSE(
        RegressionTree::Deserialize(WithFeatureCount(blob, count), ds).ok())
        << count;
  }
}

TEST(TreeSerializationTest, M5TreeRejectsHugeFeatureCount) {
  data::Dataset ds = RegressionDataset();
  M5TreeParams params;
  params.tree.min_samples_leaf = 20;
  M5Tree tree(params);
  ASSERT_TRUE(tree.Fit(ds, "t", {"x", "c"}, ds.AllRowIndices()).ok());
  const std::string blob = tree.Serialize();
  for (const std::string& count : kHugeFeatureCounts) {
    EXPECT_FALSE(M5Tree::Deserialize(WithFeatureCount(blob, count), ds).ok())
        << count;
  }
}

}  // namespace
}  // namespace roadmine::ml
