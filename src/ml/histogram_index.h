// Feature binning shared by every tree learner's split search.
//
// A HistogramIndex maps every feature column to a small code space once
// per dataset: numeric columns get at most `max_bins` bins over the sorted
// build rows (one bin per distinct value when there are few enough, else
// bins cut at evenly spaced ranks), categorical columns map their level
// codes through directly, and missing values get the dedicated kMissingBin
// code. Trainers then build per-node statistics over codes (O(rows) per
// feature, no sorting) and scan at most max_bins candidate cuts per split.
//
// Each numeric bin records the smallest and largest build-row value it
// holds (`lower`, `upper`), so a cut between bins can be turned back into
// a threshold on raw values. The exact tree learners (decision, regression
// and M5 trees) bin with kMaxBins, which keeps one bin per distinct value
// for any column with up to 65534 distinct values, and cut midway between
// `upper` of the last left bin and `lower` of the next bin populated at
// the node: exactly the exact-greedy threshold (DESIGN.md §12). Gradient
// boosting bins coarsely and cuts at `upper` itself.
#ifndef ROADMINE_ML_HISTOGRAM_INDEX_H_
#define ROADMINE_ML_HISTOGRAM_INDEX_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "data/dataset.h"
#include "ml/common.h"
#include "util/status.h"

namespace roadmine::exec {
class Executor;
}  // namespace roadmine::exec

namespace roadmine::ml {

struct HistogramIndexParams {
  // Upper bound on bins per numeric column (2..kMaxBins). 256 keeps a
  // per-node histogram of a whole feature in a few cache lines while
  // leaving split quality indistinguishable at study scale.
  size_t max_bins = 256;
};

class HistogramIndex {
 public:
  // Code reserved for missing values (numeric NaN / negative categorical
  // code). Also assigned to rows the index was built without, should a
  // caller bin a dataset row outside the build set's value range.
  static constexpr uint16_t kMissingBin = 0xFFFF;
  // The largest bin count: every code below kMissingBin is a bin.
  static constexpr size_t kMaxBins = kMissingBin - 1;

  // One column's binning. `codes` is dense over ALL dataset rows (not
  // just the build rows) so trainers can subsample rows freely without
  // re-binning; rows whose value falls outside the build range clamp to
  // the first/last bin.
  struct FeatureBins {
    bool is_numeric = true;
    // Fewer than two distinct present values among the build rows: the
    // column can never split and trainers skip it outright.
    bool constant = false;
    // Numeric only: ascending cut values, one per bin; bin b holds values
    // in (upper[b-1], upper[b]] and upper.back() is the build-row max.
    std::vector<double> upper;
    // Numeric only: the smallest build-row value in each bin, so
    // upper[b-1] < lower[b] <= upper[b]. Equal to upper when every bin
    // holds a single distinct value.
    std::vector<double> lower;
    // upper.size() for numeric columns, category_count for categorical.
    size_t num_bins = 0;
    std::vector<uint16_t> codes;
  };

  HistogramIndex() = default;

  // Bins every feature column over the build rows. A trainer may use the
  // index for any fit whose rows are among the build rows. Features
  // evaluate independently on `executor` (results are bit-identical at
  // any thread count). Fails on empty rows/features, out-of-range
  // max_bins, or a categorical column with more levels than the code
  // space.
  [[nodiscard]] static util::Result<HistogramIndex> Build(
      const data::Dataset& dataset, const std::vector<FeatureRef>& features,
      const std::vector<size_t>& rows, HistogramIndexParams params = {},
      exec::Executor* executor = nullptr);

  // True when every listed feature column is indexed with matching type.
  bool Covers(const std::vector<FeatureRef>& features) const;

  // Binning for the feature stored at `column_index`; requires Covers.
  const FeatureBins& ColumnBins(size_t column_index) const {
    return bins_[slot_[column_index] - 1];
  }

  size_t num_rows() const { return num_rows_; }
  size_t max_bins() const { return params_.max_bins; }

 private:
  HistogramIndexParams params_;
  size_t num_rows_ = 0;
  // slot_[column_index] is 1 + index into bins_, or 0 when not indexed.
  std::vector<size_t> slot_;
  std::vector<FeatureBins> bins_;
};

// The index a tree fit searches: `shared` when non-null, after checking
// that it covers `features` over a dataset of the same row count, else an
// exact (kMaxBins) index over `rows` built into `*owned`.
[[nodiscard]] util::Result<const HistogramIndex*> ResolveFitIndex(
    const HistogramIndex* shared, const data::Dataset& dataset,
    const std::vector<FeatureRef>& features, const std::vector<size_t>& rows,
    exec::Executor* executor, std::optional<HistogramIndex>* owned);

}  // namespace roadmine::ml

#endif  // ROADMINE_ML_HISTOGRAM_INDEX_H_
