#include "ml/gradient_boosting.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>

#include "exec/executor.h"
#include "ml/histogram_index.h"
#include "ml/quantile_sketch.h"
#include "ml/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace roadmine::ml {

using util::InvalidArgumentError;
using util::Result;
using util::Status;

namespace {

double Sigmoid(double margin) { return 1.0 / (1.0 + std::exp(-margin)); }

// Engage the executor only for passes over at least this many rows (the
// same value as the exact-greedy trees: the cutoff depends only on the
// row count, never the thread count, and each feature's slots sum in row
// order regardless).
constexpr size_t kParallelMinRows = 4096;

// Doubles per cache line: threaded histogram builds give every feature
// task its own whole lines, so no two tasks ever write the same line.
constexpr size_t kLineBytes = 64;
constexpr size_t kLineDoubles = kLineBytes / sizeof(double);

// One candidate split of one node; merged across features in feature
// order with a strict gain comparison.
struct SplitCand {
  bool valid = false;
  double gain = 0.0;
  size_t feature = 0;  // Index into the fit's feature list.
  double threshold = 0.0;
  // Numeric only: the bin index of `threshold` (cut "bin <= threshold_bin").
  // Lets the engine route rows by code without touching raw values.
  size_t threshold_bin = 0;
  std::vector<uint8_t> left_categories;
  bool missing_goes_left = true;
  // Rows of the node on each side: sums of histogram counts, so exact.
  double left_count = 0.0, right_count = 0.0;
};

// Slots per cache-line-aligned run: 8 slots of 3 doubles are 3 whole
// lines.
constexpr size_t kLineSlots = kLineDoubles;

// Per-node gradient/hessian histogram over the active features. Slot s
// holds its (g, h, count) in doubles 3s..3s+2 of one line-aligned run.
// Active feature a owns slots [offset[a], offset[a] + num_bins], the last
// holding the missing rows; offsets are multiples of kLineSlots, so
// threaded builds, one task per feature, never write the same line.
// Subtractable: parent - smaller child = larger child, slot-wise.
class NodeHist {
 public:
  // `slots` zero slots.
  void Allocate(size_t slots) {
    storage_.assign(3 * slots + kLineDoubles - 1, 0.0);
    void* aligned = storage_.data();
    size_t space = storage_.size() * sizeof(double);
    std::align(kLineBytes, 3 * slots * sizeof(double), aligned, space);
    first_ = static_cast<size_t>(static_cast<double*>(aligned) -
                                 storage_.data());
    slots_ = slots;
  }
  void SubtractFrom(const NodeHist& parent, const NodeHist& sibling) {
    Allocate(parent.slots_);
    double* out = Slot(0);
    const double* p = parent.Slot(0);
    const double* s = sibling.Slot(0);
    for (size_t i = 0; i < 3 * slots_; ++i) out[i] = p[i] - s[i];
  }

  double* Slot(size_t s) { return storage_.data() + first_ + 3 * s; }
  const double* Slot(size_t s) const {
    return storage_.data() + first_ + 3 * s;
  }
  double G(size_t s) const { return Slot(s)[0]; }
  double H(size_t s) const { return Slot(s)[1]; }
  double Count(size_t s) const { return Slot(s)[2]; }

 private:
  std::vector<double> storage_;
  size_t first_ = 0;  // Index of the first aligned double in storage_.
  size_t slots_ = 0;
};

// Shared state for growing one boosted tree.
struct TreeContext {
  const GradientBoostedTreesParams* params = nullptr;
  // Binning per feature index (parallel to the fit's features).
  const std::vector<HistogramIndex::FeatureBins>* feature_bins = nullptr;
  const std::vector<double>* grad = nullptr;  // By training row.
  const std::vector<double>* hess = nullptr;
  std::vector<size_t> active;  // Feature indices this tree may split on.
  std::vector<size_t> offset;  // Slot offset per active feature.
  size_t total_slots = 0;

  const HistogramIndex::FeatureBins& bins(size_t f) const {
    return (*feature_bins)[f];
  }
};

// xgboost structure gain of a (GL, HL) / (GR, HR) partition relative to
// keeping the node whole, under L2 penalty lambda.
double SplitGain(double gl, double hl, double gr, double hr, double lambda,
                 double parent_term) {
  return 0.5 * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda)) -
         parent_term;
}

// Best split of active feature `a` from the node histogram. Missing rows
// are tried on both sides at every cut; ties keep the left direction.
SplitCand ScanFeature(const TreeContext& ctx, const NodeHist& hist, size_t a,
                      double node_g, double node_h, double node_cnt) {
  const GradientBoostedTreesParams& params = *ctx.params;
  const size_t f = ctx.active[a];
  const HistogramIndex::FeatureBins& bins = ctx.bins(f);
  SplitCand best;
  best.gain = params.gamma;  // Strict >: a split must beat gamma.
  if (bins.constant || bins.num_bins < 2) return best;

  const size_t base = ctx.offset[a];
  const size_t miss = base + bins.num_bins;
  const double gm = hist.G(miss), hm = hist.H(miss), cm = hist.Count(miss);
  const double parent_term =
      0.5 * node_g * node_g / (node_h + params.lambda);

  auto try_cut = [&](double cum_g, double cum_h, double cum_c,
                     auto&& record) {
    // dir 0: missing left; dir 1: missing right. When nothing is missing
    // both directions tie and the strict comparison keeps dir 0.
    for (int dir = 0; dir < 2; ++dir) {
      const double gl = cum_g + (dir == 0 ? gm : 0.0);
      const double hl = cum_h + (dir == 0 ? hm : 0.0);
      const double cl = cum_c + (dir == 0 ? cm : 0.0);
      const double gr = node_g - gl;
      const double hr = node_h - hl;
      const double cr = node_cnt - cl;
      if (cl < 1.0 || cr < 1.0) continue;
      if (hl < params.min_child_weight || hr < params.min_child_weight) {
        continue;
      }
      const double gain =
          SplitGain(gl, hl, gr, hr, params.lambda, parent_term);
      if (gain > best.gain) {
        best.valid = true;
        best.gain = gain;
        best.feature = f;
        best.missing_goes_left = dir == 0;
        best.left_count = cl;
        best.right_count = cr;
        record();
      }
    }
  };

  if (bins.is_numeric) {
    double cum_g = 0.0, cum_h = 0.0, cum_c = 0.0;
    for (size_t b = 0; b + 1 < bins.num_bins; ++b) {
      cum_g += hist.G(base + b);
      cum_h += hist.H(base + b);
      cum_c += hist.Count(base + b);
      if (hist.Count(base + b) <= 0.0) continue;  // Same partition as b-1.
      try_cut(cum_g, cum_h, cum_c, [&] {
        best.threshold = bins.upper[b];
        best.threshold_bin = b;
        best.left_categories.clear();
      });
    }
    return best;
  }

  // Categorical: order the node's present levels by gradient-to-hessian
  // ratio (the sign of the optimal leaf weight), then prefix-scan exactly
  // like the numeric bins. Level index breaks ties for determinism.
  std::vector<size_t> order;
  for (size_t level = 0; level < bins.num_bins; ++level) {
    if (hist.Count(base + level) > 0.0) order.push_back(level);
  }
  if (order.size() < 2) return best;
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    const double rx = hist.G(base + x) / (hist.H(base + x) + params.lambda);
    const double ry = hist.G(base + y) / (hist.H(base + y) + params.lambda);
    if (rx != ry) return rx < ry;
    return x < y;
  });
  double cum_g = 0.0, cum_h = 0.0, cum_c = 0.0;
  for (size_t j = 0; j + 1 < order.size(); ++j) {
    cum_g += hist.G(base + order[j]);
    cum_h += hist.H(base + order[j]);
    cum_c += hist.Count(base + order[j]);
    try_cut(cum_g, cum_h, cum_c, [&] {
      best.left_categories.assign(bins.num_bins, 0);
      for (size_t jj = 0; jj <= j; ++jj) {
        best.left_categories[order[jj]] = 1;
      }
    });
  }
  return best;
}

// Scans every active feature in order, keeping the first strictly best
// candidate. Serial on purpose: a scan is O(bins) whatever the node's row
// count, far less than the cost of an executor batch.
SplitCand FindBestSplit(const TreeContext& ctx, const NodeHist& hist,
                        double node_g, double node_h, double node_cnt) {
  SplitCand best;
  best.gain = ctx.params->gamma;
  for (size_t a = 0; a < ctx.active.size(); ++a) {
    SplitCand cand = ScanFeature(ctx, hist, a, node_g, node_h, node_cnt);
    if (cand.valid && cand.gain > best.gain) best = std::move(cand);
  }
  return best;
}

// ---------------------------------------------------------------------------
// Bin codes.
// ---------------------------------------------------------------------------

// Bins one page column of `count` rows into codes, exactly as
// HistogramIndex does over the full column: NaN / negative code ->
// kMissingBin, numeric values -> lower_bound over the cut values clamped
// into the last bin.
void BinPage(const HistogramIndex::FeatureBins& bins, const data::Column& col,
             size_t count, uint16_t* out) {
  if (bins.is_numeric) {
    const std::vector<double>& numeric = col.numeric_values();
    for (size_t r = 0; r < count; ++r) {
      const double v = numeric[r];
      if (std::isnan(v) || bins.upper.empty()) {
        out[r] = HistogramIndex::kMissingBin;
        continue;
      }
      const size_t bin = static_cast<size_t>(
          std::lower_bound(bins.upper.begin(), bins.upper.end(), v) -
          bins.upper.begin());
      out[r] = static_cast<uint16_t>(std::min(bin, bins.upper.size() - 1));
    }
    return;
  }
  const std::vector<int32_t>& src = col.codes();
  for (size_t r = 0; r < count; ++r) {
    out[r] = src[r] >= 0 ? static_cast<uint16_t>(src[r])
                         : HistogramIndex::kMissingBin;
  }
}

// One block of training rows' codes: page[f] points at the block's codes
// of feature f.
using CodePage = std::vector<const uint16_t*>;

}  // namespace

// Supplies bin codes, by training row, for every sweep of the tree
// engine. Fit hands it the full code matrix; FitPaged hands it a row
// source, which it reads and bins once when the matrix fits the cache
// budget and re-streams and re-bins on every Sweep() otherwise. Either
// way the callback sees the same rows in the same ascending order, so
// sweep results are identical; only the pass count differs.
class PagedCodes {
 public:
  // Pre-filled: codes[f][i] is feature f's code of training row i.
  explicit PagedCodes(std::vector<std::vector<uint16_t>> codes)
      : total_rows_(codes.front().size()),
        cached_(true),
        cache_(std::move(codes)) {}

  PagedCodes(data::RowSource& source, const std::vector<FeatureRef>& features,
             const std::vector<HistogramIndex::FeatureBins>& bins,
             size_t total_rows, size_t cache_budget_bytes)
      : source_(&source),
        features_(&features),
        bins_(&bins),
        total_rows_(total_rows) {
    const uint64_t need = static_cast<uint64_t>(features.size()) *
                          static_cast<uint64_t>(total_rows) * sizeof(uint16_t);
    cached_ = need <= cache_budget_bytes;
  }

  // Calls fn(first_row, row_count, codes) over consecutive blocks covering
  // rows [0, total_rows). Stops at fn's first error.
  Status Sweep(
      const std::function<Status(size_t, size_t, const CodePage&)>& fn) {
    if (cached_) {
      ROADMINE_RETURN_IF_ERROR(EnsureCache());
      CodePage ptrs(cache_.size());
      for (size_t f = 0; f < cache_.size(); ++f) ptrs[f] = cache_[f].data();
      return fn(0, total_rows_, ptrs);
    }
    std::vector<std::vector<uint16_t>> scratch(features_->size());
    CodePage ptrs(features_->size());
    return Stream([&](size_t base, const data::Dataset& chunk) {
      const size_t rows = chunk.num_rows();
      for (size_t f = 0; f < features_->size(); ++f) {
        scratch[f].resize(rows);
        BinPage((*bins_)[f], chunk.column((*features_)[f].column_index), rows,
                scratch[f].data());
        ptrs[f] = scratch[f].data();
      }
      return fn(base, rows, ptrs);
    });
  }

 private:
  Status EnsureCache() {
    if (!cache_.empty()) return Status::Ok();
    cache_.resize(features_->size());
    for (auto& codes : cache_) codes.resize(total_rows_);
    return Stream([&](size_t base, const data::Dataset& chunk) {
      for (size_t f = 0; f < features_->size(); ++f) {
        BinPage((*bins_)[f], chunk.column((*features_)[f].column_index),
                chunk.num_rows(), cache_[f].data() + base);
      }
      return Status::Ok();
    });
  }

  template <typename Fn>
  Status Stream(Fn&& fn) {
    ROADMINE_RETURN_IF_ERROR(source_->Reset());
    size_t base = 0;
    while (true) {
      auto chunk_result = source_->Next();
      if (!chunk_result.ok()) return chunk_result.status();
      const data::Dataset* chunk = *chunk_result;
      if (chunk == nullptr) break;
      ROADMINE_RETURN_IF_ERROR(fn(base, *chunk));
      base += chunk->num_rows();
    }
    if (base != total_rows_) {
      return util::DataLossError("row source changed size between passes");
    }
    return Status::Ok();
  }

  // Null when pre-filled.
  data::RowSource* source_ = nullptr;
  const std::vector<FeatureRef>* features_ = nullptr;
  const std::vector<HistogramIndex::FeatureBins>* bins_ = nullptr;
  size_t total_rows_;
  bool cached_ = false;
  std::vector<std::vector<uint16_t>> cache_;  // [feature][row], if cached.
};

namespace {

// assign value of a row that belongs to no live node.
constexpr uint32_t kRetired = std::numeric_limits<uint32_t>::max();

// Checks the fit's row count against the engine's 32-bit row ids.
Status CheckRowCount(size_t rows) {
  if (rows == 0) return InvalidArgumentError("cannot fit on 0 rows");
  if (rows >= kRetired) {
    return InvalidArgumentError("too many rows for one fit");
  }
  return Status::Ok();
}

Status CheckParams(const GradientBoostedTreesParams& params) {
  if (params.num_trees == 0) {
    return InvalidArgumentError("num_trees must be positive");
  }
  if (params.learning_rate <= 0.0) {
    return InvalidArgumentError("learning_rate must be positive");
  }
  if (params.max_bins < 2 || params.max_bins >= HistogramIndex::kMissingBin) {
    return InvalidArgumentError("max_bins must be in [2, 65534]");
  }
  return Status::Ok();
}

// One row of a histogram build: the row, and which of the histograms
// being built it adds to.
struct HistRow {
  uint32_t row;
  uint32_t hist;
};

// Adds `rows` (ascending, all inside the code block `page` that starts
// at row `base`) to their histograms, whose slot 0 is hists[k], one task
// per active feature. Every slot takes its rows in row order, within this
// block and across consecutive blocks, so the sums are the same at any
// thread count and page size.
Status AccumulateRows(const TreeContext& ctx, const HistRow* first,
                      const HistRow* last, size_t base, const CodePage& page,
                      const std::vector<double*>& hists) {
  exec::Executor* executor =
      static_cast<size_t>(last - first) >= kParallelMinRows
          ? ctx.params->executor
          : nullptr;
  return exec::ParallelFor(executor, ctx.active.size(), [&](size_t a) {
    const size_t f = ctx.active[a];
    const uint16_t* codes = page[f];
    const size_t missing = ctx.bins(f).num_bins;
    const size_t offset = ctx.offset[a];
    for (const HistRow* e = first; e != last; ++e) {
      const uint16_t code = codes[e->row - base];
      double* slot =
          hists[e->hist] +
          3 * (offset + (code == HistogramIndex::kMissingBin ? missing : code));
      slot[0] += (*ctx.grad)[e->row];
      slot[1] += (*ctx.hess)[e->row];
      slot[2] += 1.0;
    }
    return Status::Ok();
  });
}

}  // namespace

Status GradientBoostedTrees::Fit(const data::Dataset& dataset,
                                 const std::string& target_column,
                                 const std::vector<std::string>& feature_columns,
                                 const std::vector<size_t>& rows) {
  ROADMINE_TRACE_SPAN("ml.gbt.fit");
  obs::ScopedLatency fit_timer(
      obs::MetricsRegistry::Global().GetHistogram("ml.fit_ms"));
  ROADMINE_RETURN_IF_ERROR(CheckRowCount(rows.size()));
  ROADMINE_RETURN_IF_ERROR(CheckParams(params_));
  // Labels of the fit rows only, in training order.
  auto target = dataset.ColumnByName(target_column);
  if (!target.ok()) return target.status();
  const data::Column& col = **target;
  std::vector<int8_t> labels;
  labels.reserve(rows.size());
  for (size_t r : rows) {
    if (col.IsMissing(r)) {
      return InvalidArgumentError("missing target label at row " +
                                  std::to_string(r));
    }
    labels.push_back(col.type() == data::ColumnType::kNumeric
                         ? (col.NumericAt(r) != 0.0 ? 1 : 0)
                         : (col.CodeAt(r) != 0 ? 1 : 0));
  }
  auto features = ResolveFeatures(dataset, feature_columns, target_column);
  if (!features.ok()) return features.status();
  features_ = std::move(*features);

  // Bin on the pool, then gather the codes of `rows`, in order, and drop
  // the index: the engine needs only the cuts and the gathered matrix.
  std::vector<HistogramIndex::FeatureBins> bins(features_.size());
  std::vector<std::vector<uint16_t>> codes(features_.size());
  {
    auto index = HistogramIndex::Build(dataset, features_, rows,
                                       {.max_bins = params_.max_bins},
                                       params_.executor);
    if (!index.ok()) return index.status();
    exec::Executor* executor =
        rows.size() >= kParallelMinRows ? params_.executor : nullptr;
    ROADMINE_RETURN_IF_ERROR(
        exec::ParallelFor(executor, features_.size(), [&](size_t f) {
          const HistogramIndex::FeatureBins& src =
              index->ColumnBins(features_[f].column_index);
          bins[f] = {.is_numeric = src.is_numeric,
                     .constant = src.constant,
                     .upper = src.upper,
                     .lower = src.lower,
                     .num_bins = src.num_bins,
                     .codes = {}};
          codes[f].resize(rows.size());
          for (size_t i = 0; i < rows.size(); ++i) {
            codes[f][i] = src.codes[rows[i]];
          }
          return Status::Ok();
        }));
  }
  PagedCodes paged(std::move(codes));
  return GrowEnsemble(bins, paged, labels);
}

Status GradientBoostedTrees::FitPaged(
    data::RowSource& source, const std::string& target_column,
    const std::vector<std::string>& feature_columns,
    const PagedFitOptions& options) {
  ROADMINE_TRACE_SPAN("ml.gbt.fit_paged");
  obs::ScopedLatency fit_timer(
      obs::MetricsRegistry::Global().GetHistogram("ml.fit_ms"));
  ROADMINE_RETURN_IF_ERROR(CheckParams(params_));
  const data::TableSchema& schema = source.schema();
  auto features = ResolveFeaturesSchema(schema, feature_columns,
                                        target_column);
  if (!features.ok()) return features.status();
  auto target_index = schema.ColumnIndex(target_column);
  if (!target_index.ok()) return target_index.status();
  const bool numeric_target =
      schema.columns[*target_index].type == data::ColumnType::kNumeric;

  const size_t num_features = features->size();
  for (size_t f = 0; f < num_features; ++f) {
    const FeatureRef& ref = (*features)[f];
    if (ref.type != data::ColumnType::kCategorical) continue;
    const size_t k = schema.columns[ref.column_index].categories.size();
    if (k >= HistogramIndex::kMissingBin) {
      return InvalidArgumentError("column '" + ref.name + "' has " +
                                  std::to_string(k) +
                                  " levels, beyond the histogram code space");
    }
  }

  // --- Pass A: labels, numeric quantile sketches, categorical level
  // presence — one stream pass, all in row order. Serial on purpose: it
  // sets the paged path's memory peak, and sketch merges or page decodes
  // on worker threads leave allocator arenas holding more.
  // sketch_of[f]: feature f's sketch (numeric features only).
  std::vector<QuantileSketch> sketches;
  std::vector<size_t> sketch_of(num_features, 0);
  std::vector<std::vector<uint8_t>> seen_levels(num_features);
  for (size_t f = 0; f < num_features; ++f) {
    const FeatureRef& ref = (*features)[f];
    if (ref.type == data::ColumnType::kNumeric) {
      sketch_of[f] = sketches.size();
      sketches.emplace_back(0);
    } else {
      seen_levels[f].assign(schema.columns[ref.column_index].categories.size(),
                            0);
    }
  }
  std::vector<int8_t> labels;
  ROADMINE_RETURN_IF_ERROR(source.Reset());
  size_t scanned_rows = 0;
  while (true) {
    auto chunk_result = source.Next();
    if (!chunk_result.ok()) return chunk_result.status();
    const data::Dataset* chunk = *chunk_result;
    if (chunk == nullptr) break;
    const data::Column& target = chunk->column(*target_index);
    for (size_t r = 0; r < chunk->num_rows(); ++r) {
      if (target.IsMissing(r)) {
        return InvalidArgumentError("missing target label at row " +
                                    std::to_string(scanned_rows + r));
      }
      if (numeric_target) {
        labels.push_back(target.NumericAt(r) != 0.0 ? 1 : 0);
      } else {
        labels.push_back(target.CodeAt(r) != 0 ? 1 : 0);
      }
    }
    for (size_t f = 0; f < num_features; ++f) {
      const FeatureRef& ref = (*features)[f];
      const data::Column& col = chunk->column(ref.column_index);
      if (ref.type == data::ColumnType::kNumeric) {
        QuantileSketch& sketch = sketches[sketch_of[f]];
        for (const double v : col.numeric_values()) {
          if (!std::isnan(v)) sketch.Add(v);
        }
      } else {
        for (const int32_t code : col.codes()) {
          if (code >= 0) seen_levels[f][static_cast<size_t>(code)] = 1;
        }
      }
    }
    scanned_rows += chunk->num_rows();
  }
  const size_t total_rows = scanned_rows;
  ROADMINE_RETURN_IF_ERROR(CheckRowCount(total_rows));

  // Per-feature binning derived from the stream. In the sketch's exact
  // regime the cuts equal HistogramIndex::Build's over the same rows.
  std::vector<HistogramIndex::FeatureBins> bins(num_features);
  for (size_t f = 0; f < num_features; ++f) {
    const FeatureRef& ref = (*features)[f];
    HistogramIndex::FeatureBins& out = bins[f];
    if (ref.type == data::ColumnType::kNumeric) {
      out.is_numeric = true;
      out.upper = sketches[sketch_of[f]].Cuts(params_.max_bins);
      out.num_bins = out.upper.size();
      out.constant = out.upper.size() < 2;
    } else {
      out.is_numeric = false;
      out.num_bins = seen_levels[f].size();
      size_t present = 0;
      for (const uint8_t seen : seen_levels[f]) present += seen;
      out.constant = present < 2;
    }
  }
  sketches.clear();

  features_ = std::move(*features);
  PagedCodes codes(source, features_, bins, total_rows,
                   options.code_cache_bytes);
  ROADMINE_RETURN_IF_ERROR(GrowEnsemble(bins, codes, labels));
  obs::MetricsRegistry::Global().GetCounter("ml.gbt.paged_fits").Increment();
  return Status::Ok();
}

Status GradientBoostedTrees::GrowEnsemble(
    const std::vector<HistogramIndex::FeatureBins>& bins, PagedCodes& codes,
    const std::vector<int8_t>& labels) {
  const size_t total_rows = labels.size();
  const size_t num_features = features_.size();
  trees_.clear();

  double positives = 0.0;
  for (const int8_t label : labels) positives += label;
  const double prior =
      (positives + 1.0) / (static_cast<double>(total_rows) + 2.0);
  base_score_ = std::log(prior / (1.0 - prior));

  std::vector<double> margin(total_rows, 0.0);
  // g/h of each live row, computed once per tree from margin + label.
  std::vector<double> grad(total_rows, 0.0);
  std::vector<double> hess(total_rows, 0.0);

  TreeContext ctx;
  ctx.params = &params_;
  ctx.feature_bins = &bins;
  ctx.grad = &grad;
  ctx.hess = &hess;

  std::vector<size_t> all_features(num_features);
  for (size_t f = 0; f < num_features; ++f) all_features[f] = f;

  // Row-parallel passes: every row's output goes to its own slot, so any
  // chunking gives the same arrays. Ranges too small to pay for a batch
  // stay on the calling thread.
  exec::Executor* const executor = params_.executor;
  auto for_rows = [executor](size_t n, const exec::RangeTask& fn) {
    return exec::ParallelForRanges(n >= kParallelMinRows ? executor : nullptr,
                                   n, fn);
  };

  // assign[r]: the tree node currently owning row r (kRetired once the
  // row reaches a leaf or was not sampled this round).
  std::vector<uint32_t> assign(total_rows, kRetired);
  // Rows of the histograms being built, ascending.
  std::vector<HistRow> hist_rows;

  // Routes a row through the split of `cand` using its bin code: for
  // numeric cuts `code <= threshold_bin` iff `value <= upper[bin]`, so
  // code routing matches the raw-value routing of PredictProba.
  auto code_goes_left = [&](const SplitCand& cand, uint16_t code) {
    if (code == HistogramIndex::kMissingBin) return cand.missing_goes_left;
    if (bins[cand.feature].is_numeric) {
      return static_cast<size_t>(code) <= cand.threshold_bin;
    }
    return static_cast<size_t>(code) < cand.left_categories.size() &&
           cand.left_categories[code] != 0;
  };

  // Builds hists[k] from the hist_rows tagged k in one sweep: per page,
  // one task per active feature.
  auto build_hists = [&](const std::vector<NodeHist*>& hists) -> Status {
    std::vector<double*> slots(hists.size());
    for (size_t k = 0; k < hists.size(); ++k) {
      hists[k]->Allocate(ctx.total_slots);
      slots[k] = hists[k]->Slot(0);
    }
    return codes.Sweep(
        [&](size_t base, size_t rows, const CodePage& page) {
          const HistRow* begin = hist_rows.data();
          const HistRow* end = begin + hist_rows.size();
          const HistRow* first = std::partition_point(
              begin, end, [&](const HistRow& e) { return e.row < base; });
          const HistRow* last =
              std::partition_point(first, end, [&](const HistRow& e) {
                return e.row < base + rows;
              });
          return AccumulateRows(ctx, first, last, base, page, slots);
        });
  };

  for (size_t t = 0; t < params_.num_trees; ++t) {
    util::Rng row_rng(util::Rng::SplitSeed(params_.seed, 2 * t));
    util::Rng col_rng(util::Rng::SplitSeed(params_.seed, 2 * t + 1));

    const bool subsampling = params_.subsample < 1.0;
    if (subsampling) {
      size_t sample_count = 0;
      for (size_t r = 0; r < total_rows; ++r) {
        const bool drawn = row_rng.Bernoulli(params_.subsample);
        assign[r] = drawn ? 0 : kRetired;
        sample_count += drawn ? 1 : 0;
      }
      if (sample_count == 0) continue;  // Nothing drawn: no tree this round.
    }

    ctx.active = all_features;
    if (params_.colsample < 1.0) {
      const size_t keep = std::max<size_t>(
          1, static_cast<size_t>(std::llround(
                 params_.colsample * static_cast<double>(num_features))));
      col_rng.Shuffle(ctx.active);
      ctx.active.resize(std::min(keep, ctx.active.size()));
      std::sort(ctx.active.begin(), ctx.active.end());
    }
    ctx.offset.clear();
    ctx.total_slots = 0;
    for (size_t f : ctx.active) {
      ctx.offset.push_back(ctx.total_slots);
      ctx.total_slots +=
          (bins[f].num_bins + kLineSlots) / kLineSlots * kLineSlots;
    }

    std::vector<Node> tree;
    // Per-node numeric split bin (parallel to `tree`), for code routing
    // in the margin sweep; -1 on leaves and categorical splits.
    std::vector<int64_t> split_bin;
    auto add_node = [&](double g_sum, double h_sum) {
      Node node;
      node.leaf_value =
          params_.learning_rate * (-g_sum / (h_sum + params_.lambda));
      tree.push_back(std::move(node));
      split_bin.push_back(-1);
      return static_cast<int>(tree.size()) - 1;
    };

    // One live (pending) node of the level currently being grown.
    struct LiveNode {
      int node = 0;
      int depth = 0;
      double g = 0.0, h = 0.0;
      size_t cnt = 0;
      NodeHist hist;
    };

    ROADMINE_RETURN_IF_ERROR(for_rows(total_rows, [&](size_t begin,
                                                      size_t end) {
      for (size_t r = begin; r < end; ++r) {
        if (!subsampling) assign[r] = 0;
        if (assign[r] == kRetired) continue;
        const double p = Sigmoid(base_score_ + margin[r]);
        grad[r] = p - static_cast<double>(labels[r]);
        hess[r] = p * (1.0 - p);
      }
      return Status::Ok();
    }));

    // Root sums in row order; its histogram from every live row.
    LiveNode root;
    hist_rows.clear();
    for (size_t r = 0; r < total_rows; ++r) {
      if (assign[r] == kRetired) continue;
      root.g += grad[r];
      root.h += hess[r];
      ++root.cnt;
      hist_rows.push_back({static_cast<uint32_t>(r), 0});
    }
    root.node = add_node(root.g, root.h);
    ROADMINE_RETURN_IF_ERROR(build_hists({&root.hist}));

    std::vector<LiveNode> level;
    level.push_back(std::move(root));

    while (!level.empty()) {
      // Decide each level node in id order, so node ids number the tree
      // breadth-first. A split's children take places next_index and
      // next_index + 1 of the next level. The scan never yields an empty
      // side, so every split it finds is made.
      struct Decision {
        bool split = false;
        SplitCand cand;
        size_t next_index = 0;
        bool build_left = true;  // Build the smaller child's histogram.
      };
      std::vector<Decision> decisions(level.size());
      std::vector<int32_t> node_to_level(tree.size(), -1);
      size_t splits = 0;
      for (size_t i = 0; i < level.size(); ++i) {
        node_to_level[static_cast<size_t>(level[i].node)] =
            static_cast<int32_t>(i);
        LiveNode& live = level[i];
        if (live.depth >= params_.max_depth || live.cnt < 2) continue;
        SplitCand cand = FindBestSplit(ctx, live.hist, live.g, live.h,
                                       static_cast<double>(live.cnt));
        if (!cand.valid) continue;
        Decision& decision = decisions[i];
        decision.split = true;
        decision.next_index = 2 * splits++;
        decision.build_left = cand.left_count <= cand.right_count;
        decision.cand = std::move(cand);
      }
      if (splits == 0) break;

      // Route, row-parallel: each live row moves to its child's node id;
      // rows of nodes that stay leaves retire. Children are numbered in
      // level order after the existing nodes, so the child at place c of
      // the next level gets id first_child + c.
      const uint32_t first_child = static_cast<uint32_t>(tree.size());
      ROADMINE_RETURN_IF_ERROR(codes.Sweep(
          [&](size_t base, size_t rows, const CodePage& page) {
            return for_rows(rows, [&](size_t begin, size_t end) {
              for (size_t i = begin; i < end; ++i) {
                const size_t r = base + i;
                const uint32_t id = assign[r];
                uint32_t child = kRetired;
                if (id != kRetired) {
                  // Every live row belongs to a node of this level.
                  const Decision& decision =
                      decisions[static_cast<size_t>(node_to_level[id])];
                  if (decision.split) {
                    const SplitCand& cand = decision.cand;
                    child = first_child +
                            static_cast<uint32_t>(
                                decision.next_index +
                                (code_goes_left(cand, page[cand.feature][i])
                                     ? 0
                                     : 1));
                  }
                }
                assign[r] = child;
              }
              return Status::Ok();
            });
          }));

      // Children at the depth cap stay leaves: they need their G/H for
      // the leaf weights, but no histograms and no rows.
      const bool last_level = level.front().depth + 1 >= params_.max_depth;

      // Children's G/H in one serial pass in row order (the sums must add
      // in a fixed order to stay bit-identical), which also lists the rows
      // of the children whose histograms are built (hist_of, else
      // kRetired).
      std::vector<double> child_g(2 * splits, 0.0), child_h(2 * splits, 0.0);
      std::vector<uint32_t> hist_of(2 * splits, kRetired);
      for (const Decision& decision : decisions) {
        if (!decision.split || last_level) continue;
        hist_of[decision.next_index + (decision.build_left ? 0 : 1)] =
            static_cast<uint32_t>(decision.next_index / 2);
      }
      hist_rows.clear();
      for (size_t r = 0; r < total_rows; ++r) {
        if (assign[r] == kRetired) continue;
        const uint32_t child = assign[r] - first_child;
        child_g[child] += grad[r];
        child_h[child] += hess[r];
        if (hist_of[child] != kRetired) {
          hist_rows.push_back({static_cast<uint32_t>(r), hist_of[child]});
        }
      }

      // Create children in id order.
      std::vector<LiveNode> next(2 * splits);
      std::vector<NodeHist*> built(splits);
      for (size_t i = 0; i < level.size(); ++i) {
        Decision& decision = decisions[i];
        if (!decision.split) continue;
        const size_t l = decision.next_index;
        LiveNode& left = next[l];
        LiveNode& right = next[l + 1];
        left.node = add_node(child_g[l], child_h[l]);
        right.node = add_node(child_g[l + 1], child_h[l + 1]);
        left.depth = right.depth = level[i].depth + 1;
        left.g = child_g[l];
        left.h = child_h[l];
        left.cnt = static_cast<size_t>(decision.cand.left_count);
        right.g = child_g[l + 1];
        right.h = child_h[l + 1];
        right.cnt = static_cast<size_t>(decision.cand.right_count);
        built[l / 2] = &(decision.build_left ? left : right).hist;

        Node& parent = tree[static_cast<size_t>(level[i].node)];
        parent.feature = static_cast<int>(decision.cand.feature);
        parent.threshold = decision.cand.threshold;
        parent.left_categories = decision.cand.left_categories;
        parent.missing_goes_left = decision.cand.missing_goes_left;
        parent.left = left.node;
        parent.right = right.node;
        if (bins[decision.cand.feature].is_numeric) {
          split_bin[static_cast<size_t>(level[i].node)] =
              static_cast<int64_t>(decision.cand.threshold_bin);
        }
      }

      if (last_level) break;

      // The smaller children's histograms from their rows; the larger
      // ones by sibling subtraction.
      ROADMINE_RETURN_IF_ERROR(build_hists(built));
      for (size_t i = 0; i < level.size(); ++i) {
        const Decision& decision = decisions[i];
        if (!decision.split) continue;
        LiveNode& left = next[decision.next_index];
        LiveNode& right = next[decision.next_index + 1];
        if (decision.build_left) {
          right.hist.SubtractFrom(level[i].hist, left.hist);
        } else {
          left.hist.SubtractFrom(level[i].hist, right.hist);
        }
      }
      level = std::move(next);
    }

    // Margin sweep: every row (sampled or not) moves by its leaf weight,
    // routed by codes exactly as PredictProba routes its raw values.
    ROADMINE_RETURN_IF_ERROR(codes.Sweep(
        [&](size_t base, size_t rows, const CodePage& page) {
          return for_rows(rows, [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
              size_t id = 0;
              for (;;) {
                const Node& node = tree[id];
                if (node.feature < 0) {
                  margin[base + i] += node.leaf_value;
                  break;
                }
                const uint16_t code =
                    page[static_cast<size_t>(node.feature)][i];
                bool go_left;
                if (code == HistogramIndex::kMissingBin) {
                  go_left = node.missing_goes_left;
                } else if (bins[static_cast<size_t>(node.feature)]
                               .is_numeric) {
                  go_left = static_cast<int64_t>(code) <= split_bin[id];
                } else {
                  go_left = static_cast<size_t>(code) <
                                node.left_categories.size() &&
                            node.left_categories[code] != 0;
                }
                id = static_cast<size_t>(go_left ? node.left : node.right);
              }
            }
            return Status::Ok();
          });
        }));

    trees_.push_back(std::move(tree));
  }

  if (trees_.empty()) {
    return InvalidArgumentError(
        "no trees were built (every round's row sample was empty)");
  }
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter("ml.gbt.fits").Increment();
  metrics.GetGauge("ml.gbt.trees").Set(static_cast<double>(trees_.size()));
  metrics.GetGauge("ml.gbt.leaves").Set(static_cast<double>(total_leaves()));
  return Status::Ok();
}

double GradientBoostedTrees::TreeWeight(const std::vector<Node>& tree,
                                        const data::Dataset& dataset,
                                        size_t row) const {
  size_t id = 0;
  for (;;) {
    const Node& node = tree[id];
    if (node.feature < 0) return node.leaf_value;
    const FeatureRef& ref = features_[static_cast<size_t>(node.feature)];
    const data::Column& col = dataset.column(ref.column_index);
    bool go_left;
    if (col.IsMissing(row)) {
      go_left = node.missing_goes_left;
    } else if (ref.type == data::ColumnType::kNumeric) {
      go_left = col.NumericAt(row) <= node.threshold;
    } else {
      const auto code = static_cast<size_t>(col.CodeAt(row));
      go_left = code < node.left_categories.size() &&
                node.left_categories[code] != 0;
    }
    id = static_cast<size_t>(go_left ? node.left : node.right);
  }
}

double GradientBoostedTrees::PredictProba(const data::Dataset& dataset,
                                          size_t row) const {
  double margin = base_score_;
  for (const std::vector<Node>& tree : trees_) {
    margin += TreeWeight(tree, dataset, row);
  }
  return Sigmoid(margin);
}

Result<std::vector<double>> GradientBoostedTrees::PredictBatch(
    const data::Dataset& dataset, const std::vector<size_t>& rows) const {
  if (!fitted()) return util::FailedPreconditionError("model not fitted");
  for (const FeatureRef& ref : features_) {
    if (ref.column_index >= dataset.num_columns() ||
        dataset.column(ref.column_index).name() != ref.name ||
        dataset.column(ref.column_index).type() != ref.type) {
      return InvalidArgumentError(
          "dataset schema does not match the fitted schema at column '" +
          ref.name + "'");
    }
  }
  std::vector<double> out;
  out.reserve(rows.size());
  for (size_t r : rows) out.push_back(PredictProba(dataset, r));
  return out;
}

size_t GradientBoostedTrees::total_leaves() const {
  size_t leaves = 0;
  for (const std::vector<Node>& tree : trees_) {
    for (const Node& node : tree) {
      if (node.feature < 0) ++leaves;
    }
  }
  return leaves;
}

std::vector<GradientBoostedTrees::NodeView>
GradientBoostedTrees::ExportTreeNodes(size_t t) const {
  std::vector<NodeView> views;
  const std::vector<Node>& tree = trees_[t];
  views.reserve(tree.size());
  for (const Node& node : tree) {
    NodeView view;
    view.is_leaf = node.feature < 0;
    view.feature = node.feature < 0 ? 0 : static_cast<size_t>(node.feature);
    view.threshold = node.threshold;
    view.left_categories = node.left_categories;
    view.missing_goes_left = node.missing_goes_left;
    view.left = node.left;
    view.right = node.right;
    view.leaf_value = node.leaf_value;
    views.push_back(std::move(view));
  }
  return views;
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

namespace {
constexpr char kSerializationHeader[] = "roadmine-gbt v1";
}  // namespace

std::string GradientBoostedTrees::Serialize() const {
  std::string out = kSerializationHeader;
  out += "\nbase\t" + SerializeDouble(base_score_) + "\n";
  AppendFeatureSection(features_, &out);
  out += "trees " + std::to_string(trees_.size()) + "\n";
  for (const std::vector<Node>& tree : trees_) {
    out += "tree " + std::to_string(tree.size()) + "\n";
    for (const Node& node : tree) {
      out += "node\t";
      out += std::to_string(node.feature < 0 ? 1 : 0) + "\t";
      out += std::to_string(node.feature < 0 ? 0 : node.feature) + "\t";
      out += SerializeDouble(node.threshold) + "\t";
      out += std::to_string(node.missing_goes_left ? 1 : 0) + "\t";
      out += std::to_string(node.left) + "\t";
      out += std::to_string(node.right) + "\t";
      out += SerializeDouble(node.leaf_value) + "\t";
      if (node.left_categories.empty()) {
        out += "-";
      } else {
        for (uint8_t bit : node.left_categories) out += bit ? '1' : '0';
      }
      out += "\n";
    }
  }
  return out;
}

Result<GradientBoostedTrees> GradientBoostedTrees::Deserialize(
    const std::string& text, const data::Dataset& dataset) {
  LineCursor cursor(text);
  const std::string* header = cursor.Next();
  if (header == nullptr || *header != kSerializationHeader) {
    return InvalidArgumentError("bad serialization header");
  }
  GradientBoostedTrees model;

  const std::string* base_line = cursor.Next();
  if (base_line == nullptr) return InvalidArgumentError("missing base line");
  {
    const std::vector<std::string> parts = util::Split(*base_line, '\t');
    if (parts.size() != 2 || parts[0] != "base" ||
        !util::ParseDouble(parts[1], &model.base_score_)) {
      return InvalidArgumentError("bad base line: " + *base_line);
    }
  }

  auto features = ParseFeatureSection(cursor, dataset);
  if (!features.ok()) return features.status();
  model.features_ = std::move(*features);

  auto tree_count = ParseCountLine(cursor, "trees");
  if (!tree_count.ok()) return tree_count.status();
  if (*tree_count <= 0) return InvalidArgumentError("no trees");
  for (int64_t t = 0; t < *tree_count; ++t) {
    auto node_count = ParseCountLine(cursor, "tree");
    if (!node_count.ok()) return node_count.status();
    if (*node_count <= 0) return InvalidArgumentError("empty tree block");
    // No reserve: the count is untrusted text, so the tree grows only as
    // node lines are actually read.
    std::vector<Node> tree;
    for (int64_t i = 0; i < *node_count; ++i) {
      const std::string* line = cursor.Next();
      if (line == nullptr) return InvalidArgumentError("truncated tree");
      const std::vector<std::string> parts = util::Split(*line, '\t');
      if (parts.size() != 9 || parts[0] != "node") {
        return InvalidArgumentError("bad node line: " + *line);
      }
      Node node;
      int64_t value = 0;
      if (!util::ParseInt(parts[1], &value)) {
        return InvalidArgumentError("bad is_leaf");
      }
      const bool is_leaf = value != 0;
      if (!util::ParseInt(parts[2], &value) || value < 0) {
        return InvalidArgumentError("bad feature index");
      }
      node.feature = is_leaf ? -1 : static_cast<int>(value);
      if (!is_leaf &&
          static_cast<size_t>(value) >= model.features_.size()) {
        return InvalidArgumentError("feature index out of range");
      }
      if (!util::ParseDouble(parts[3], &node.threshold)) {
        return InvalidArgumentError("bad threshold");
      }
      if (!util::ParseInt(parts[4], &value)) {
        return InvalidArgumentError("bad missing direction");
      }
      node.missing_goes_left = value != 0;
      auto left = ParseChildIndex(parts[5], i, *node_count, is_leaf);
      if (!left.ok()) return left.status();
      node.left = *left;
      auto right = ParseChildIndex(parts[6], i, *node_count, is_leaf);
      if (!right.ok()) return right.status();
      node.right = *right;
      if (!util::ParseDouble(parts[7], &node.leaf_value)) {
        return InvalidArgumentError("bad leaf value");
      }
      if (parts[8] != "-") {
        node.left_categories.reserve(parts[8].size());
        for (char c : parts[8]) {
          if (c != '0' && c != '1') {
            return InvalidArgumentError("bad category mask");
          }
          node.left_categories.push_back(c == '1' ? 1 : 0);
        }
      }
      tree.push_back(std::move(node));
    }
    model.trees_.push_back(std::move(tree));
  }
  return model;
}

}  // namespace roadmine::ml
