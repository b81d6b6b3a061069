#include "ml/histogram_index.h"

#include <algorithm>
#include <cmath>

#include "exec/executor.h"

namespace roadmine::ml {

using util::InvalidArgumentError;
using util::Result;
using util::Status;

namespace {

// Bins one numeric column. Cut values are data values: all distinct
// build-row values when they fit, else the values at max_bins evenly
// spaced ranks of the sorted multiset (heavy ties collapse via the final
// dedup, so a column may end with far fewer bins than max_bins). Each
// bin's lower bound is the first sorted value above the previous cut.
void BinNumeric(const data::Column& col, const std::vector<size_t>& rows,
                size_t max_bins, HistogramIndex::FeatureBins* out) {
  std::vector<double> values;
  values.reserve(rows.size());
  for (size_t r : rows) {
    const double v = col.NumericAt(r);
    if (!std::isnan(v)) values.push_back(v);
  }
  std::sort(values.begin(), values.end());

  std::vector<double>& upper = out->upper;
  std::vector<double> distinct = values;
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  if (distinct.size() <= max_bins) {
    upper = std::move(distinct);
  } else {
    upper.reserve(max_bins);
    const size_t n = values.size();
    for (size_t b = 1; b <= max_bins; ++b) {
      upper.push_back(values[b * n / max_bins - 1]);
    }
    upper.erase(std::unique(upper.begin(), upper.end()), upper.end());
  }
  std::vector<double>& lower = out->lower;
  lower.reserve(upper.size());
  auto next = values.begin();
  for (double cut : upper) {
    lower.push_back(*next);
    next = std::upper_bound(next, values.end(), cut);
  }
  out->num_bins = upper.size();
  out->constant = upper.size() < 2;

  const std::vector<double>& numeric = col.numeric_values();
  out->codes.resize(numeric.size(), HistogramIndex::kMissingBin);
  if (upper.empty()) return;  // All missing: every code stays kMissingBin.
  for (size_t r = 0; r < numeric.size(); ++r) {
    const double v = numeric[r];
    if (std::isnan(v)) continue;
    const size_t bin = static_cast<size_t>(
        std::lower_bound(upper.begin(), upper.end(), v) - upper.begin());
    // Rows above the build-row max (possible only outside the build set)
    // clamp into the last bin.
    out->codes[r] =
        static_cast<uint16_t>(std::min(bin, upper.size() - 1));
  }
}

Status BinCategorical(const data::Column& col, const std::vector<size_t>& rows,
                      HistogramIndex::FeatureBins* out) {
  const size_t k = col.category_count();
  if (k >= HistogramIndex::kMissingBin) {
    return InvalidArgumentError("column '" + col.name() + "' has " +
                                std::to_string(k) +
                                " levels, beyond the histogram code space");
  }
  out->is_numeric = false;
  out->num_bins = k;
  const std::vector<int32_t>& src = col.codes();
  out->codes.resize(src.size(), HistogramIndex::kMissingBin);
  for (size_t r = 0; r < src.size(); ++r) {
    if (src[r] >= 0) out->codes[r] = static_cast<uint16_t>(src[r]);
  }
  // Constant when the build rows touch fewer than two levels.
  std::vector<uint8_t> seen(k, 0);
  size_t present = 0;
  for (size_t r : rows) {
    const int32_t code = src[r];
    if (code < 0 || seen[static_cast<size_t>(code)]) continue;
    seen[static_cast<size_t>(code)] = 1;
    ++present;
    if (present >= 2) break;
  }
  out->constant = present < 2;
  return Status::Ok();
}

}  // namespace

Result<HistogramIndex> HistogramIndex::Build(const data::Dataset& dataset,
                                             const std::vector<FeatureRef>& features,
                                             const std::vector<size_t>& rows,
                                             HistogramIndexParams params,
                                             exec::Executor* executor) {
  if (rows.empty()) return InvalidArgumentError("cannot bin 0 rows");
  if (features.empty()) return InvalidArgumentError("no features to bin");
  if (params.max_bins < 2 || params.max_bins > kMaxBins) {
    return InvalidArgumentError("max_bins must be in [2, " +
                                std::to_string(kMaxBins) + "]");
  }
  HistogramIndex index;
  index.params_ = params;
  index.num_rows_ = dataset.num_rows();
  index.slot_.assign(dataset.num_columns(), 0);
  index.bins_.resize(features.size());
  for (size_t f = 0; f < features.size(); ++f) {
    index.slot_[features[f].column_index] = f + 1;
  }
  // Each feature bins independently and writes only its own slot, so an
  // executor changes nothing but speed.
  ROADMINE_RETURN_IF_ERROR(exec::ParallelFor(
      executor, features.size(), [&](size_t f) -> Status {
        const data::Column& col = dataset.column(features[f].column_index);
        FeatureBins& out = index.bins_[f];
        if (features[f].type == data::ColumnType::kNumeric) {
          BinNumeric(col, rows, params.max_bins, &out);
          return Status::Ok();
        }
        return BinCategorical(col, rows, &out);
      }));
  return index;
}

bool HistogramIndex::Covers(const std::vector<FeatureRef>& features) const {
  for (const FeatureRef& ref : features) {
    if (ref.column_index >= slot_.size() || slot_[ref.column_index] == 0) {
      return false;
    }
    const FeatureBins& bins = bins_[slot_[ref.column_index] - 1];
    if (bins.is_numeric != (ref.type == data::ColumnType::kNumeric)) {
      return false;
    }
  }
  return true;
}

Result<const HistogramIndex*> ResolveFitIndex(
    const HistogramIndex* shared, const data::Dataset& dataset,
    const std::vector<FeatureRef>& features, const std::vector<size_t>& rows,
    exec::Executor* executor, std::optional<HistogramIndex>* owned) {
  if (shared != nullptr) {
    if (shared->num_rows() != dataset.num_rows() ||
        !shared->Covers(features)) {
      return InvalidArgumentError(
          "histogram_index does not cover this dataset's feature columns");
    }
    return shared;
  }
  auto built = HistogramIndex::Build(dataset, features, rows,
                                     {.max_bins = HistogramIndex::kMaxBins},
                                     executor);
  if (!built.ok()) return built.status();
  owned->emplace(std::move(*built));
  return &**owned;
}

}  // namespace roadmine::ml
