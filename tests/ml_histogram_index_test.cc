// HistogramIndex binning and the tree learners' split search over it:
// index structure, equivalence with an exact-greedy gather+sort oracle,
// merged-bin routing, thread-count and shared-index determinism.
#include "ml/histogram_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/thresholds.h"
#include "exec/executor.h"
#include "ml/bagging.h"
#include "ml/decision_tree.h"
#include "ml/regression_tree.h"
#include "roadgen/dataset_builder.h"
#include "roadgen/generator.h"
#include "serve/flat_model.h"
#include "util/rng.h"

namespace roadmine::ml {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<FeatureRef> NumericFeature(const data::Dataset&, size_t col,
                                       const std::string& name) {
  return {FeatureRef{col, data::ColumnType::kNumeric, name}};
}

// y = 1 iff x > 5, with many distinct values so binning has work to do.
data::Dataset ThresholdDataset(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x, y;
  for (size_t i = 0; i < n; ++i) {
    const double xi = rng.Uniform(0.0, 10.0);
    x.push_back(xi);
    y.push_back(xi > 5.0 ? 1.0 : 0.0);
  }
  data::Dataset ds;
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  EXPECT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  return ds;
}

TEST(HistogramIndexTest, HeavilyTiedColumnCollapsesToFewBins) {
  // 1000 rows but only 3 distinct values: the sketch must not fabricate
  // edges between ties, however many bins were requested.
  std::vector<double> x;
  for (size_t i = 0; i < 1000; ++i) x.push_back(static_cast<double>(i % 3));
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  auto index = HistogramIndex::Build(ds, NumericFeature(ds, 0, "x"),
                                     ds.AllRowIndices(), {.max_bins = 256});
  ASSERT_TRUE(index.ok());
  const HistogramIndex::FeatureBins& bins = index->ColumnBins(0);
  EXPECT_EQ(bins.num_bins, 3u);
  EXPECT_FALSE(bins.constant);
  EXPECT_EQ(bins.upper, (std::vector<double>{0.0, 1.0, 2.0}));
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    EXPECT_EQ(bins.codes[r], static_cast<uint16_t>(r % 3));
  }
}

TEST(HistogramIndexTest, AllMissingColumnIsConstantWithMissingCodes) {
  data::Dataset ds;
  ASSERT_TRUE(
      ds.AddColumn(data::Column::Numeric("x", {kNaN, kNaN, kNaN, kNaN})).ok());
  auto index = HistogramIndex::Build(ds, NumericFeature(ds, 0, "x"),
                                     ds.AllRowIndices(), {.max_bins = 8});
  ASSERT_TRUE(index.ok());
  const HistogramIndex::FeatureBins& bins = index->ColumnBins(0);
  EXPECT_TRUE(bins.constant);
  EXPECT_EQ(bins.num_bins, 0u);
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(bins.codes[r], HistogramIndex::kMissingBin);
  }
}

TEST(HistogramIndexTest, ConstantColumnIsFlaggedAndNeverSplit) {
  std::vector<double> x(64, 7.25), y;
  for (size_t i = 0; i < 64; ++i) y.push_back(i % 2 ? 1.0 : 0.0);
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  auto index = HistogramIndex::Build(ds, NumericFeature(ds, 0, "x"),
                                     ds.AllRowIndices(), {.max_bins = 8});
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index->ColumnBins(0).constant);

  DecisionTreeParams params;
  params.min_samples_leaf = 2;
  params.min_samples_split = 4;
  DecisionTreeClassifier tree(params);
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  EXPECT_EQ(tree.leaf_count(), 1u);
}

TEST(HistogramIndexTest, RejectsOutOfRangeBinCounts) {
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", {1.0, 2.0})).ok());
  EXPECT_FALSE(HistogramIndex::Build(ds, NumericFeature(ds, 0, "x"),
                                     ds.AllRowIndices(), {.max_bins = 1})
                   .ok());
  EXPECT_FALSE(HistogramIndex::Build(ds, NumericFeature(ds, 0, "x"),
                                     ds.AllRowIndices(), {.max_bins = 70000})
                   .ok());
}

TEST(HistogramIndexTest, CategoricalLevelsMapDirectly) {
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::CategoricalFromStrings(
                               "surface", {"chip", "asphalt", "chip", "",
                                           "concrete", "asphalt"}))
                  .ok());
  auto index = HistogramIndex::Build(
      ds, {FeatureRef{0, data::ColumnType::kCategorical, "surface"}},
      ds.AllRowIndices(), {.max_bins = 8});
  ASSERT_TRUE(index.ok());
  const HistogramIndex::FeatureBins& bins = index->ColumnBins(0);
  EXPECT_FALSE(bins.is_numeric);
  EXPECT_FALSE(bins.constant);
  EXPECT_EQ(bins.num_bins, 3u);
  EXPECT_EQ(bins.codes[0], 0u);
  EXPECT_EQ(bins.codes[1], 1u);
  EXPECT_EQ(bins.codes[3], HistogramIndex::kMissingBin);
  EXPECT_EQ(bins.codes[4], 2u);
}

// --- Exact-greedy oracle -------------------------------------------------
//
// The reference split search the trees must reproduce: per node, gather
// each numeric feature's present (value, target) pairs, sort them by
// value, and score every cut between consecutive distinct values, placed
// at their SplitMidpoint; order categorical levels by positive rate
// (classification) or mean (regression) and score prefix splits. The
// first strictly best candidate wins, in feature order then cut order.
// The scores repeat the library's formulas operation for operation so
// that near-ties break the same way.

struct OracleSplit {
  bool valid = false;
  size_t feature = 0;
  double threshold = 0.0;
  std::vector<uint8_t> left_categories;
  bool missing_goes_left = true;
  double score = 0.0;  // Criterion score or SSE reduction.
};

double Gini(double pos, double neg) {
  const double n = pos + neg;
  if (n <= 0.0) return 0.0;
  const double p = pos / n;
  return 2.0 * p * (1.0 - p);
}

double Entropy(double pos, double neg) {
  const double n = pos + neg;
  if (n <= 0.0) return 0.0;
  double h = 0.0;
  for (double count : {pos, neg}) {
    if (count <= 0.0) continue;
    const double p = count / n;
    h -= p * std::log2(p);
  }
  return h;
}

// Class counts of a candidate: left positives/total and node totals.
double ClassScore(SplitCriterion criterion, double lp, double ln, double rp,
                  double rn) {
  const double lt = lp + ln, rt = rp + rn, n = lt + rt;
  switch (criterion) {
    case SplitCriterion::kChiSquare: {
      const double denom = lt * rt * (lp + rp) * (ln + rn);
      if (denom <= 0.0) return 0.0;
      const double det = lp * rn - ln * rp;
      return n * det * det / denom;
    }
    case SplitCriterion::kGini:
      if (n <= 0.0) return 0.0;
      return Gini(lp + rp, ln + rn) -
             ((lt / n) * Gini(lp, ln) + (rt / n) * Gini(rp, rn));
    case SplitCriterion::kEntropy:
      if (n <= 0.0) return 0.0;
      return Entropy(lp + rp, ln + rn) -
             ((lt / n) * Entropy(lp, ln) + (rt / n) * Entropy(rp, rn));
  }
  return 0.0;
}

bool ClassMissingGoesLeft(double lp, double ln, double rp, double rn,
                          double mp, double mn) {
  const double lt = lp + ln, rt = rp + rn;
  if (mp + mn > 0.0) {
    const double miss = mp / (mp + mn);
    return std::fabs(miss - lp / std::max(lt, 1.0)) <=
           std::fabs(miss - rp / std::max(rt, 1.0));
  }
  return lt >= rt;
}

OracleSplit OracleClassSplit(const data::Dataset& ds,
                             const std::vector<int8_t>& labels,
                             const std::vector<FeatureRef>& features,
                             const std::vector<size_t>& rows,
                             const DecisionTreeParams& params) {
  const double min_leaf = static_cast<double>(params.min_samples_leaf);
  OracleSplit best;
  auto consider = [&](size_t f, double lp, double ln, double tp, double tn,
                      double mp, double mn) {
    const double rp = tp - lp, rn = tn - ln;
    const double score = ClassScore(params.criterion, lp, ln, rp, rn);
    if (score <= best.score) return false;
    best.valid = true;
    best.score = score;
    best.feature = f;
    best.threshold = 0.0;
    best.left_categories.clear();
    best.missing_goes_left = ClassMissingGoesLeft(lp, ln, rp, rn, mp, mn);
    return true;
  };
  for (size_t f = 0; f < features.size(); ++f) {
    const data::Column& col = ds.column(features[f].column_index);
    double mp = 0.0, mn = 0.0;
    if (features[f].type == data::ColumnType::kNumeric) {
      std::vector<std::pair<double, int8_t>> present;
      for (size_t r : rows) {
        if (col.IsMissing(r)) {
          (labels[r] ? mp : mn) += 1.0;
        } else {
          present.emplace_back(col.NumericAt(r), labels[r]);
        }
      }
      std::sort(present.begin(), present.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      const double n = static_cast<double>(present.size());
      if (n < 2.0 * min_leaf) continue;
      double tp = 0.0;
      for (const auto& p : present) tp += p.second;
      double lp = 0.0;
      for (size_t i = 0; i + 1 < present.size(); ++i) {
        lp += present[i].second;
        if (present[i].first == present[i + 1].first) continue;
        const double ln_all = static_cast<double>(i + 1);
        if (ln_all < min_leaf || n - ln_all < min_leaf) continue;
        if (consider(f, lp, ln_all - lp, tp, n - tp, mp, mn)) {
          best.threshold =
              SplitMidpoint(present[i].first, present[i + 1].first);
        }
      }
      continue;
    }
    const size_t k = col.category_count();
    std::vector<double> pos(k, 0.0), neg(k, 0.0);
    for (size_t r : rows) {
      if (col.IsMissing(r)) {
        (labels[r] ? mp : mn) += 1.0;
      } else {
        (labels[r] ? pos : neg)[static_cast<size_t>(col.CodeAt(r))] += 1.0;
      }
    }
    std::vector<size_t> order;
    double tp = 0.0, tn = 0.0;
    for (size_t c = 0; c < k; ++c) {
      if (pos[c] + neg[c] <= 0.0) continue;
      order.push_back(c);
      tp += pos[c];
      tn += neg[c];
    }
    if (order.size() < 2 || tp + tn < 2.0 * min_leaf) continue;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return pos[a] / (pos[a] + neg[a]) < pos[b] / (pos[b] + neg[b]);
    });
    double lp = 0.0, ln = 0.0;
    for (size_t j = 0; j + 1 < order.size(); ++j) {
      lp += pos[order[j]];
      ln += neg[order[j]];
      if (lp + ln < min_leaf || tp + tn - (lp + ln) < min_leaf) continue;
      if (consider(f, lp, ln, tp, tn, mp, mn)) {
        best.left_categories.assign(k, 0);
        for (size_t jj = 0; jj <= j; ++jj) best.left_categories[order[jj]] = 1;
      }
    }
  }
  return best;
}

struct Moments {
  double n = 0.0, sum = 0.0, sum_sq = 0.0;
  void Add(double y) {
    n += 1.0;
    sum += y;
    sum_sq += y * y;
  }
  double mean() const { return n > 0.0 ? sum / n : 0.0; }
  double sse() const {
    return n > 0.0 ? std::max(0.0, sum_sq - sum * sum / n) : 0.0;
  }
  Moments Minus(const Moments& o) const {
    return {n - o.n, sum - o.sum, sum_sq - o.sum_sq};
  }
};

OracleSplit OracleRegressionSplit(const data::Dataset& ds,
                                  const std::vector<double>& target,
                                  const std::vector<FeatureRef>& features,
                                  const std::vector<size_t>& rows,
                                  const RegressionTreeParams& params) {
  const double min_leaf = static_cast<double>(params.min_samples_leaf);
  OracleSplit best;
  auto consider = [&](size_t f, const Moments& left, const Moments& total,
                      const Moments& missing) {
    const Moments right = total.Minus(left);
    const double gain = total.sse() - left.sse() - right.sse();
    if (gain <= best.score) return false;
    best.valid = true;
    best.score = gain;
    best.feature = f;
    best.threshold = 0.0;
    best.left_categories.clear();
    best.missing_goes_left =
        missing.n > 0.0 ? std::fabs(missing.mean() - left.mean()) <=
                              std::fabs(missing.mean() - right.mean())
                        : left.n >= right.n;
    return true;
  };
  for (size_t f = 0; f < features.size(); ++f) {
    const data::Column& col = ds.column(features[f].column_index);
    Moments missing;
    if (features[f].type == data::ColumnType::kNumeric) {
      std::vector<std::pair<double, double>> present;
      for (size_t r : rows) {
        if (col.IsMissing(r)) {
          missing.Add(target[r]);
        } else {
          present.emplace_back(col.NumericAt(r), target[r]);
        }
      }
      std::stable_sort(
          present.begin(), present.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      if (static_cast<double>(present.size()) < 2.0 * min_leaf) continue;
      Moments total;
      for (const auto& p : present) total.Add(p.second);
      Moments left;
      for (size_t i = 0; i + 1 < present.size(); ++i) {
        left.Add(present[i].second);
        if (present[i].first == present[i + 1].first) continue;
        if (left.n < min_leaf || total.n - left.n < min_leaf) continue;
        if (consider(f, left, total, missing)) {
          best.threshold =
              SplitMidpoint(present[i].first, present[i + 1].first);
        }
      }
      continue;
    }
    const size_t k = col.category_count();
    std::vector<Moments> level(k);
    for (size_t r : rows) {
      if (col.IsMissing(r)) {
        missing.Add(target[r]);
      } else {
        level[static_cast<size_t>(col.CodeAt(r))].Add(target[r]);
      }
    }
    std::vector<size_t> order;
    Moments total;
    for (size_t c = 0; c < k; ++c) {
      if (level[c].n <= 0.0) continue;
      order.push_back(c);
      total = {total.n + level[c].n, total.sum + level[c].sum,
               total.sum_sq + level[c].sum_sq};
    }
    if (order.size() < 2 || total.n < 2.0 * min_leaf) continue;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return level[a].mean() < level[b].mean();
    });
    Moments left;
    for (size_t j = 0; j + 1 < order.size(); ++j) {
      const Moments& m = level[order[j]];
      left = {left.n + m.n, left.sum + m.sum, left.sum_sq + m.sum_sq};
      if (left.n < min_leaf || total.n - left.n < min_leaf) continue;
      if (consider(f, left, total, missing)) {
        best.left_categories.assign(k, 0);
        for (size_t jj = 0; jj <= j; ++jj) best.left_categories[order[jj]] = 1;
      }
    }
  }
  return best;
}

// The fit rows reaching each node (with multiplicity, in fit-row order),
// routed by the fitted thresholds exactly as prediction routes them.
template <typename NodeView>
std::vector<std::vector<size_t>> RowsPerNode(
    const std::vector<NodeView>& nodes, const std::vector<FeatureRef>& features,
    const data::Dataset& ds, const std::vector<size_t>& rows) {
  std::vector<std::vector<size_t>> per_node(nodes.size());
  for (size_t r : rows) {
    size_t id = 0;
    while (true) {
      per_node[id].push_back(r);
      const NodeView& node = nodes[id];
      if (node.is_leaf) break;
      const data::Column& col = ds.column(features[node.feature].column_index);
      bool left;
      if (col.IsMissing(r)) {
        left = node.missing_goes_left;
      } else if (features[node.feature].type == data::ColumnType::kNumeric) {
        left = col.NumericAt(r) <= node.threshold;
      } else {
        left = node.left_categories[static_cast<size_t>(col.CodeAt(r))] != 0;
      }
      id = static_cast<size_t>(left ? node.left : node.right);
    }
  }
  return per_node;
}

// Every internal node must split exactly where the oracle does over the
// rows reaching it: same feature, same threshold bits, same category set
// and missing direction.
template <typename NodeView>
void ExpectNodesMatch(const std::vector<NodeView>& nodes,
                      const std::function<OracleSplit(size_t)>& oracle) {
  size_t internal = 0;
  for (size_t id = 0; id < nodes.size(); ++id) {
    if (nodes[id].is_leaf) continue;
    ++internal;
    const OracleSplit want = oracle(id);
    ASSERT_TRUE(want.valid) << "node " << id;
    EXPECT_EQ(nodes[id].feature, want.feature) << "node " << id;
    EXPECT_EQ(std::bit_cast<uint64_t>(nodes[id].threshold),
              std::bit_cast<uint64_t>(want.threshold))
        << "node " << id << ": " << nodes[id].threshold << " vs "
        << want.threshold;
    EXPECT_EQ(nodes[id].left_categories, want.left_categories)
        << "node " << id;
    EXPECT_EQ(nodes[id].missing_goes_left, want.missing_goes_left)
        << "node " << id;
  }
  EXPECT_GT(internal, 0u);
}

void ExpectTreeMatchesOracle(const DecisionTreeClassifier& tree,
                             const data::Dataset& ds,
                             const std::string& target,
                             const std::vector<size_t>& rows,
                             const DecisionTreeParams& params) {
  auto labels = ExtractBinaryLabels(ds, target);
  ASSERT_TRUE(labels.ok());
  const auto nodes = tree.ExportNodes();
  const auto per_node = RowsPerNode(nodes, tree.features(), ds, rows);
  ExpectNodesMatch(nodes, [&](size_t id) {
    return OracleClassSplit(ds, *labels, tree.features(), per_node[id],
                            params);
  });
}

void ExpectTreeMatchesOracle(const RegressionTree& tree,
                             const data::Dataset& ds,
                             const std::string& target,
                             const std::vector<size_t>& rows,
                             const RegressionTreeParams& params) {
  auto values = ExtractNumericTarget(ds, target);
  ASSERT_TRUE(values.ok());
  const auto nodes = tree.ExportNodes();
  const auto per_node = RowsPerNode(nodes, tree.features(), ds, rows);
  ExpectNodesMatch(nodes, [&](size_t id) {
    return OracleRegressionSplit(ds, *values, tree.features(), per_node[id],
                                 params);
  });
}

// With merged bins a cut must still fall between whole bins at every node:
// all rows routed left carry lower codes than all rows routed right, so
// serving (`x <= threshold`) routes each build row as training (`bin <=
// cut`) did.
template <typename NodeView>
void ExpectCutsRespectBins(const std::vector<NodeView>& nodes,
                           const std::vector<std::vector<size_t>>& per_node,
                           const data::Column& x,
                           const HistogramIndex::FeatureBins& bins) {
  for (size_t id = 0; id < nodes.size(); ++id) {
    if (nodes[id].is_leaf) continue;
    uint16_t max_left = 0, min_right = HistogramIndex::kMissingBin;
    for (size_t r : per_node[id]) {
      const uint16_t code = bins.codes[r];
      if (x.NumericAt(r) <= nodes[id].threshold) {
        max_left = std::max(max_left, code);
      } else {
        min_right = std::min(min_right, code);
      }
    }
    EXPECT_LT(max_left, min_right) << "node " << id << " splits a bin";
  }
}

// The trees' core claim: the histogram tree IS the exact-greedy tree —
// every split where the oracle puts it over the same rows, so also the
// same structure, routing and leaf statistics.
TEST(HistogramEquivalenceTest, MatchesExactGreedyWhenDistinctFitsBins) {
  data::Dataset ds = ThresholdDataset(600, 11);
  DecisionTreeParams params;
  params.min_samples_leaf = 5;
  params.min_samples_split = 10;
  DecisionTreeClassifier tree(params);
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  ExpectTreeMatchesOracle(tree, ds, "y", ds.AllRowIndices(), params);
}

// With fewer bins than distinct values (a coarse shared index) the
// candidate set coarsens; the documented tolerance is agreement of hard
// train-set predictions, not probabilities, on a cleanly separable
// boundary.
TEST(HistogramEquivalenceTest, CoarseBinsStillLearnSeparableBoundary) {
  data::Dataset ds = ThresholdDataset(2000, 12);
  auto coarse = HistogramIndex::Build(ds, NumericFeature(ds, 0, "x"),
                                      ds.AllRowIndices(), {.max_bins = 32});
  ASSERT_TRUE(coarse.ok());
  DecisionTreeParams params;
  params.min_samples_leaf = 5;
  params.min_samples_split = 10;
  params.histogram_index = &*coarse;
  DecisionTreeClassifier tree(params);
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  size_t correct = 0;
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    const int truth = ds.column(1).NumericAt(r) != 0.0 ? 1 : 0;
    correct += tree.Predict(ds, r) == truth;
  }
  EXPECT_GT(static_cast<double>(correct) / ds.num_rows(), 0.98);
}

// Rows whose feature value sits at a merged bin's edge must route the
// same way in training (bin codes) and in serving (raw-value compare).
// Exercised end to end through the FlatModel compiler.
TEST(HistogramEquivalenceTest, BinEdgeValuesRouteIdenticallyWhenServed) {
  // Duplicate every value so each bin edge is also a data value carried by
  // several rows, with a label flip exactly at an interior edge.
  std::vector<double> x, y;
  for (int v = 0; v < 40; ++v) {
    for (int k = 0; k < 5; ++k) {
      x.push_back(static_cast<double>(v) * 0.25);
      y.push_back(v >= 20 ? 1.0 : 0.0);
    }
  }
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  // 40 distinct values > 16 bins: edges merged.
  auto shared = HistogramIndex::Build(ds, NumericFeature(ds, 0, "x"),
                                      ds.AllRowIndices(), {.max_bins = 16});
  ASSERT_TRUE(shared.ok());
  ASSERT_LT(shared->ColumnBins(0).num_bins, 40u);

  DecisionTreeParams params;
  params.min_samples_leaf = 2;
  params.min_samples_split = 4;
  params.histogram_index = &*shared;
  DecisionTreeClassifier tree(params);
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  ASSERT_GT(tree.leaf_count(), 1u);
  const auto nodes = tree.ExportNodes();
  ExpectCutsRespectBins(
      nodes, RowsPerNode(nodes, tree.features(), ds, ds.AllRowIndices()),
      ds.column(0), shared->ColumnBins(0));

  auto flat = serve::CompileModel(tree);
  ASSERT_TRUE(flat.ok());
  auto train_probs = tree.PredictBatch(ds, ds.AllRowIndices());
  auto served_probs = flat->PredictBatch(ds, ds.AllRowIndices());
  ASSERT_TRUE(train_probs.ok() && served_probs.ok());
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    EXPECT_EQ((*served_probs)[r], (*train_probs)[r]) << "row " << r;
  }
}

// The regression twin: a column with more distinct values than the code
// space forces merged bins into the regression tree's private index.
TEST(HistogramEquivalenceTest, RegressionBinEdgesRouteIdenticallyWhenServed) {
  const size_t n = HistogramIndex::kMaxBins + 4000;
  std::vector<double> x, y;
  for (size_t i = 0; i < n; ++i) {
    x.push_back(static_cast<double>(i) * 0.5);
    y.push_back(static_cast<double>((i / 9000) % 3));
  }
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("x", x)).ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric("y", y)).ok());
  auto bins = HistogramIndex::Build(ds, NumericFeature(ds, 0, "x"),
                                    ds.AllRowIndices(),
                                    {.max_bins = HistogramIndex::kMaxBins});
  ASSERT_TRUE(bins.ok());
  ASSERT_LT(bins->ColumnBins(0).num_bins, n);

  RegressionTree tree(RegressionTreeParams{
      .min_samples_split = 100, .min_samples_leaf = 50, .max_leaves = 12});
  ASSERT_TRUE(tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
  ASSERT_GT(tree.leaf_count(), 1u);
  const auto nodes = tree.ExportNodes();
  ExpectCutsRespectBins(
      nodes, RowsPerNode(nodes, tree.features(), ds, ds.AllRowIndices()),
      ds.column(0), bins->ColumnBins(0));

  auto flat = serve::CompileModel(tree);
  ASSERT_TRUE(flat.ok());
  auto train_preds = tree.PredictBatch(ds, ds.AllRowIndices());
  auto served_preds = flat->PredictBatch(ds, ds.AllRowIndices());
  ASSERT_TRUE(train_preds.ok() && served_preds.ok());
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    ASSERT_EQ((*served_preds)[r], (*train_preds)[r]) << "row " << r;
  }
}

TEST(HistogramDeterminismTest, TreeBitIdenticalSerialVsThreaded) {
  data::Dataset ds = ThresholdDataset(5000, 13);  // Above the exec cutoff.
  DecisionTreeParams serial;
  serial.min_samples_leaf = 5;
  serial.min_samples_split = 10;
  DecisionTreeClassifier serial_tree(serial);
  ASSERT_TRUE(serial_tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());

  for (size_t threads : {2u, 8u}) {
    exec::ThreadPool pool(threads);
    DecisionTreeParams threaded = serial;
    threaded.executor = &pool;
    DecisionTreeClassifier threaded_tree(threaded);
    ASSERT_TRUE(threaded_tree.Fit(ds, "y", {"x"}, ds.AllRowIndices()).ok());
    EXPECT_EQ(threaded_tree.Serialize(), serial_tree.Serialize())
        << threads << " threads";
  }
}

TEST(HistogramIndexTest, SharedIndexMatchesPrivateBuild) {
  data::Dataset ds = ThresholdDataset(400, 14);
  std::vector<FeatureRef> features = NumericFeature(ds, 0, "x");
  auto shared = HistogramIndex::Build(ds, features, ds.AllRowIndices(),
                                      {.max_bins = HistogramIndex::kMaxBins});
  ASSERT_TRUE(shared.ok());

  DecisionTreeParams private_params;
  private_params.min_samples_leaf = 5;
  private_params.min_samples_split = 10;
  DecisionTreeParams shared_params = private_params;
  shared_params.histogram_index = &*shared;

  // The shared index bins every row; a fit on a subset must still match
  // the one that bins only its own rows.
  std::vector<size_t> rows;
  for (size_t r = 0; r < ds.num_rows(); r += 3) rows.push_back(r);
  DecisionTreeClassifier private_tree(private_params),
      shared_tree(shared_params);
  ASSERT_TRUE(private_tree.Fit(ds, "y", {"x"}, rows).ok());
  ASSERT_TRUE(shared_tree.Fit(ds, "y", {"x"}, rows).ok());
  EXPECT_EQ(shared_tree.Serialize(), private_tree.Serialize());
}

// --- Roadgen data with adversarial columns -------------------------------

// Roadgen dataset with the CP-8 target plus the columns the engine must
// handle: a constant numeric attribute, an all-missing numeric attribute,
// a numeric attribute with injected NaNs, and a single-level categorical
// attribute.
data::Dataset AugmentedRoadgenDataset(size_t segments, uint64_t seed) {
  roadgen::GeneratorConfig config;
  config.num_segments = segments;
  config.seed = seed;
  roadgen::RoadNetworkGenerator gen(config);
  auto generated = gen.Generate();
  EXPECT_TRUE(generated.ok());
  auto ds = roadgen::BuildCrashOnlyDataset(
      *generated, gen.SimulateCrashRecords(*generated));
  EXPECT_TRUE(ds.ok());
  EXPECT_TRUE(
      core::AddCrashProneTarget(*ds, roadgen::kSegmentCrashCountColumn, 8)
          .ok());

  util::Rng rng(seed * 31 + 7);
  const size_t n = ds->num_rows();
  std::vector<double> constant(n, 4.5);
  std::vector<double> all_missing(n, kNaN);
  std::vector<double> gappy;
  std::vector<std::string> one_level;
  gappy.reserve(n);
  one_level.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    gappy.push_back(rng.Bernoulli(0.2) ? kNaN : rng.Uniform(0.0, 100.0));
    one_level.push_back("sealed");
  }
  EXPECT_TRUE(
      ds->AddColumn(data::Column::Numeric("const_num", constant)).ok());
  EXPECT_TRUE(
      ds->AddColumn(data::Column::Numeric("all_missing", all_missing)).ok());
  EXPECT_TRUE(ds->AddColumn(data::Column::Numeric("gappy", gappy)).ok());
  EXPECT_TRUE(
      ds->AddColumn(
            data::Column::CategoricalFromStrings("one_level", one_level))
          .ok());
  return std::move(*ds);
}

std::vector<std::string> AugmentedFeatures() {
  std::vector<std::string> features = roadgen::RoadAttributeColumns();
  features.push_back("const_num");
  features.push_back("all_missing");
  features.push_back("gappy");
  features.push_back("one_level");
  return features;
}

std::vector<FeatureRef> Resolve(const data::Dataset& ds,
                                const std::vector<std::string>& names) {
  auto refs = ResolveFeatures(ds, names, "");
  EXPECT_TRUE(refs.ok());
  return *refs;
}

DecisionTreeParams BaseTreeParams() {
  DecisionTreeParams params;
  params.min_samples_leaf = 10;
  params.min_samples_split = 20;
  params.max_leaves = 32;
  return params;
}

std::string FitSerialized(const data::Dataset& ds,
                          const std::vector<std::string>& features,
                          const std::vector<size_t>& rows,
                          DecisionTreeParams params) {
  DecisionTreeClassifier tree(params);
  EXPECT_TRUE(tree.Fit(ds, "crash_prone_gt8", features, rows).ok());
  return tree.Serialize();
}

TEST(HistogramIndexTest, BoundsMissingCodesAndCoverage) {
  data::Dataset ds;
  ASSERT_TRUE(ds.AddColumn(data::Column::Numeric(
                               "x", {3.0, kNaN, 1.0, 3.0, kNaN, 2.0, 3.0}))
                  .ok());
  ASSERT_TRUE(ds.AddColumn(data::Column::CategoricalFromStrings(
                               "c", {"b", "a", "", "b", "a", "b", "a"}))
                  .ok());
  ASSERT_TRUE(
      ds.AddColumn(data::Column::Numeric("flat", std::vector<double>(7, 2.0)))
          .ok());
  auto index = HistogramIndex::Build(ds, Resolve(ds, {"x", "c", "flat"}),
                                     ds.AllRowIndices(), {.max_bins = 2});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_rows(), 7u);

  // Three distinct values in two bins: {1, 2} merge, so the first bin's
  // bounds differ while the second holds 3.0 alone.
  const HistogramIndex::FeatureBins& x = index->ColumnBins(0);
  EXPECT_EQ(x.upper, (std::vector<double>{2.0, 3.0}));
  EXPECT_EQ(x.lower, (std::vector<double>{1.0, 3.0}));
  EXPECT_EQ(x.codes, (std::vector<uint16_t>{1, HistogramIndex::kMissingBin, 0,
                                            1, HistogramIndex::kMissingBin, 0,
                                            1}));
  EXPECT_FALSE(x.constant);

  const HistogramIndex::FeatureBins& c = index->ColumnBins(1);
  EXPECT_EQ(c.codes[2], HistogramIndex::kMissingBin);
  for (size_t r : {0u, 1u, 3u, 4u, 5u, 6u}) {
    EXPECT_EQ(c.codes[r], static_cast<uint16_t>(ds.column(1).CodeAt(r)));
  }
  EXPECT_FALSE(c.constant);
  EXPECT_TRUE(index->ColumnBins(2).constant);

  // Coverage: indexed columns with matching types only.
  EXPECT_TRUE(index->Covers({{0, data::ColumnType::kNumeric, "x"}}));
  EXPECT_FALSE(index->Covers({{0, data::ColumnType::kCategorical, "x"}}));
  EXPECT_FALSE(index->Covers({{1, data::ColumnType::kNumeric, "c"}}));
}

TEST(HistogramIndexTest, AllMissingAndSingleLevelColumnsAreConstant) {
  data::Dataset ds = AugmentedRoadgenDataset(120, 11);
  auto index = HistogramIndex::Build(ds, Resolve(ds, AugmentedFeatures()),
                                     ds.AllRowIndices(),
                                     {.max_bins = HistogramIndex::kMaxBins});
  ASSERT_TRUE(index.ok());
  auto bins = [&](const char* name) -> const HistogramIndex::FeatureBins& {
    auto c = ds.ColumnIndex(name);
    EXPECT_TRUE(c.ok());
    return index->ColumnBins(*c);
  };
  EXPECT_TRUE(bins("const_num").constant);
  EXPECT_TRUE(bins("all_missing").constant);
  EXPECT_EQ(bins("all_missing").num_bins, 0u);
  EXPECT_TRUE(bins("one_level").constant);
  EXPECT_FALSE(bins("gappy").constant);
  // One bin per distinct value: lower and upper coincide.
  EXPECT_EQ(bins("gappy").lower, bins("gappy").upper);
}

TEST(HistogramIndexTest, ParallelBuildIsIdenticalToSerial) {
  data::Dataset ds = AugmentedRoadgenDataset(400, 23);
  const std::vector<FeatureRef> features = Resolve(ds, AugmentedFeatures());
  for (size_t max_bins : {size_t{16}, HistogramIndex::kMaxBins}) {
    auto serial =
        HistogramIndex::Build(ds, features, ds.AllRowIndices(), {max_bins});
    ASSERT_TRUE(serial.ok());
    exec::ThreadPool pool(4);
    auto parallel = HistogramIndex::Build(ds, features, ds.AllRowIndices(),
                                          {max_bins}, &pool);
    ASSERT_TRUE(parallel.ok());
    for (const FeatureRef& ref : features) {
      const auto& s = serial->ColumnBins(ref.column_index);
      const auto& p = parallel->ColumnBins(ref.column_index);
      EXPECT_EQ(s.upper, p.upper) << ref.name;
      EXPECT_EQ(s.lower, p.lower) << ref.name;
      EXPECT_EQ(s.codes, p.codes) << ref.name;
      EXPECT_EQ(s.constant, p.constant) << ref.name;
    }
  }
}

// --- Decision tree vs the exact-greedy oracle ----------------------------
//
// "Legacy" below is the gather+sort per-node search, which lives on as the
// oracle above; "indexed" is the tree's histogram engine.

using BitIdentityConfig = std::tuple<SplitCriterion, uint64_t /*seed*/>;

class TreeBitIdentityTest : public ::testing::TestWithParam<BitIdentityConfig> {
};

TEST_P(TreeBitIdentityTest, IndexedEqualsLegacyOnRoadgenData) {
  const auto [criterion, seed] = GetParam();
  data::Dataset ds = AugmentedRoadgenDataset(700, seed);
  const std::vector<std::string> features = AugmentedFeatures();
  const std::vector<size_t> rows = ds.AllRowIndices();

  DecisionTreeParams params = BaseTreeParams();
  params.criterion = criterion;
  DecisionTreeClassifier tree(params);
  ASSERT_TRUE(tree.Fit(ds, "crash_prone_gt8", features, rows).ok());
  ExpectTreeMatchesOracle(tree, ds, "crash_prone_gt8", rows, params);

  // Parallel split search must not perturb the choice either.
  exec::ThreadPool pool(4);
  params.executor = &pool;
  EXPECT_EQ(FitSerialized(ds, features, rows, params), tree.Serialize());
}

TEST_P(TreeBitIdentityTest, IndexedEqualsLegacyOnBootstrapRows) {
  const auto [criterion, seed] = GetParam();
  data::Dataset ds = AugmentedRoadgenDataset(500, seed + 100);
  const std::vector<std::string> features = AugmentedFeatures();

  // Bootstrap-style multiset: duplicates, shuffled, some rows absent.
  util::Rng rng(seed * 13 + 1);
  std::vector<size_t> rows;
  rows.reserve(ds.num_rows());
  for (size_t i = 0; i < ds.num_rows(); ++i) {
    rows.push_back(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(ds.num_rows()) - 1)));
  }

  DecisionTreeParams params = BaseTreeParams();
  params.criterion = criterion;
  DecisionTreeClassifier tree(params);
  ASSERT_TRUE(tree.Fit(ds, "crash_prone_gt8", features, rows).ok());
  ExpectTreeMatchesOracle(tree, ds, "crash_prone_gt8", rows, params);
}

INSTANTIATE_TEST_SUITE_P(
    CriteriaAndSeeds, TreeBitIdentityTest,
    ::testing::Combine(::testing::Values(SplitCriterion::kChiSquare,
                                         SplitCriterion::kGini,
                                         SplitCriterion::kEntropy),
                       ::testing::Values<uint64_t>(3, 17, 29)));

TEST(TreeBitIdentityTest, SharedPrebuiltIndexEqualsPrivateBuild) {
  data::Dataset ds = AugmentedRoadgenDataset(600, 41);
  const std::vector<std::string> features = AugmentedFeatures();
  const std::vector<size_t> rows = ds.AllRowIndices();
  auto shared = HistogramIndex::Build(ds, Resolve(ds, features), rows,
                                      {.max_bins = HistogramIndex::kMaxBins});
  ASSERT_TRUE(shared.ok());

  DecisionTreeParams params = BaseTreeParams();
  const std::string privately_built = FitSerialized(ds, features, rows, params);
  params.histogram_index = &*shared;
  EXPECT_EQ(FitSerialized(ds, features, rows, params), privately_built);
}

TEST(TreeBitIdentityTest, MismatchedSharedIndexIsRejected) {
  data::Dataset ds = AugmentedRoadgenDataset(300, 5);
  data::Dataset other = AugmentedRoadgenDataset(200, 5);
  const std::vector<std::string> features = AugmentedFeatures();
  auto stale = HistogramIndex::Build(other, Resolve(other, features),
                                     other.AllRowIndices());
  ASSERT_TRUE(stale.ok());

  DecisionTreeParams params = BaseTreeParams();
  params.histogram_index = &*stale;  // Built over a different row count.
  DecisionTreeClassifier tree(params);
  EXPECT_FALSE(
      tree.Fit(ds, "crash_prone_gt8", features, ds.AllRowIndices()).ok());
}

// --- Regression tree vs the oracle ---------------------------------------

RegressionTreeParams BaseRegressionParams() {
  RegressionTreeParams params;
  params.min_samples_leaf = 10;
  params.min_samples_split = 20;
  params.max_leaves = 32;
  return params;
}

// Crash counts are integers, so every target sum is exact in any order
// and the per-bin sums reproduce the oracle's row-by-row sums bit for bit.
TEST(RegressionBitIdentityTest, IndexedEqualsLegacyOnAscendingRows) {
  for (uint64_t seed : {7u, 19u}) {
    data::Dataset ds = AugmentedRoadgenDataset(700, seed);
    const std::vector<std::string> features = AugmentedFeatures();
    const std::vector<size_t> rows = ds.AllRowIndices();

    const RegressionTreeParams params = BaseRegressionParams();
    RegressionTree tree(params);
    ASSERT_TRUE(
        tree.Fit(ds, roadgen::kSegmentCrashCountColumn, features, rows).ok());
    ExpectTreeMatchesOracle(tree, ds, roadgen::kSegmentCrashCountColumn, rows,
                            params);

    exec::ThreadPool pool(4);
    RegressionTreeParams threaded = params;
    threaded.executor = &pool;
    RegressionTree parallel(threaded);
    ASSERT_TRUE(
        parallel.Fit(ds, roadgen::kSegmentCrashCountColumn, features, rows)
            .ok());
    EXPECT_EQ(parallel.Serialize(), tree.Serialize());
  }
}

TEST(RegressionBitIdentityTest, ShuffledRowsMatchAscendingRows) {
  data::Dataset ds = AugmentedRoadgenDataset(400, 31);
  const std::vector<std::string> features = AugmentedFeatures();
  const std::vector<size_t> ascending = ds.AllRowIndices();
  std::vector<size_t> shuffled = ascending;
  util::Rng rng(9);
  rng.Shuffle(shuffled);

  RegressionTreeParams params = BaseRegressionParams();
  params.max_leaves = 16;
  RegressionTree sorted_fit(params), shuffled_fit(params);
  ASSERT_TRUE(
      sorted_fit.Fit(ds, roadgen::kSegmentCrashCountColumn, features, ascending)
          .ok());
  ASSERT_TRUE(shuffled_fit
                  .Fit(ds, roadgen::kSegmentCrashCountColumn, features,
                       shuffled)
                  .ok());
  EXPECT_EQ(shuffled_fit.Serialize(), sorted_fit.Serialize());
  ExpectTreeMatchesOracle(shuffled_fit, ds, roadgen::kSegmentCrashCountColumn,
                          shuffled, params);
}

// --- Bagged ensemble over one shared index -------------------------------

TEST(BaggingBitIdentityTest, SharedIndexEnsembleEqualsPrivateIndex) {
  data::Dataset ds = AugmentedRoadgenDataset(500, 53);
  const std::vector<std::string> features = AugmentedFeatures();
  std::vector<size_t> rows;
  for (size_t r = 0; r < ds.num_rows(); ++r) {
    if (r % 4 != 0) rows.push_back(r);
  }

  BaggedTreesParams params;
  params.num_trees = 8;
  params.tree = BaseTreeParams();
  BaggedTreesClassifier own_index(params);  // Bins `rows` once for all.
  ASSERT_TRUE(own_index.Fit(ds, "crash_prone_gt8", features, rows).ok());

  auto shared = HistogramIndex::Build(ds, Resolve(ds, features),
                                      ds.AllRowIndices(),
                                      {.max_bins = HistogramIndex::kMaxBins});
  ASSERT_TRUE(shared.ok());
  params.tree.histogram_index = &*shared;  // Bins every dataset row.
  BaggedTreesClassifier shared_index(params);
  ASSERT_TRUE(shared_index.Fit(ds, "crash_prone_gt8", features, rows).ok());

  EXPECT_EQ(shared_index.Serialize(), own_index.Serialize());
}

}  // namespace
}  // namespace roadmine::ml
