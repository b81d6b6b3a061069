#include "ml/gradient_boosting.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>

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

// Engage the executor for histogram builds only at nodes at least this
// large (same rationale and value as the exact-greedy trees: the cutoff
// depends only on the node's row count, never the thread count, and each
// feature's slots sum in row order regardless).
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
  // Lets the paged fit route rows by code without touching raw values.
  size_t threshold_bin = 0;
  std::vector<uint8_t> left_categories;
  bool missing_goes_left = true;
  // Rows of the node on each side: sums of histogram counts, so exact.
  double left_count = 0.0, right_count = 0.0;
};

// Per-node gradient/hessian histogram over the active features: flat
// (g, h, count) arrays where active feature a owns slots
// [offset[a], offset[a] + num_bins], the last slot holding the missing
// rows. Subtractable: parent - smaller child = larger child, slot-wise.
struct NodeHist {
  std::vector<double> g, h, cnt;

  void Allocate(size_t slots) {
    g.assign(slots, 0.0);
    h.assign(slots, 0.0);
    cnt.assign(slots, 0.0);
  }
  void SubtractFrom(const NodeHist& parent, const NodeHist& sibling) {
    const size_t slots = parent.g.size();
    g.resize(slots);
    h.resize(slots);
    cnt.resize(slots);
    for (size_t s = 0; s < slots; ++s) {
      g[s] = parent.g[s] - sibling.g[s];
      h[s] = parent.h[s] - sibling.h[s];
      cnt[s] = parent.cnt[s] - sibling.cnt[s];
    }
  }
};

// Shared state for growing one boosted tree. The split scan sees only
// per-feature FeatureBins (not a HistogramIndex), so the in-RAM and
// paged fits share it: the former points into its HistogramIndex, the
// latter into bins it derived from the stream.
struct TreeContext {
  const std::vector<FeatureRef>* features = nullptr;
  const GradientBoostedTreesParams* params = nullptr;
  // Binning per feature index (parallel to *features).
  std::vector<const HistogramIndex::FeatureBins*> feature_bins;
  const std::vector<double>* grad = nullptr;  // By dataset row id.
  const std::vector<double>* hess = nullptr;
  std::vector<size_t> active;  // Feature indices this tree may split on.
  std::vector<size_t> offset;  // Slot offset per active feature.
  size_t total_slots = 0;
};

// Cache-line-aligned scratch for threaded histogram builds. Active
// feature a owns one block holding `hists` consecutive histograms of its
// slots, each a g, an h and a cnt run of width(a) doubles (its slot count
// rounded up to whole lines), so no two feature tasks ever write the
// same line: features with a handful of bins would otherwise false-share
// lines of the node arrays once per row. Allocate it on the thread that
// runs the batch; zero-filled.
class HistScratch {
 public:
  HistScratch(const TreeContext& ctx, size_t hists) {
    const size_t features = ctx.active.size();
    width_.resize(features);
    block_.resize(features);
    size_t doubles = 0;
    for (size_t a = 0; a < features; ++a) {
      const size_t slots = ctx.feature_bins[ctx.active[a]]->num_bins + 1;
      width_[a] = (slots + kLineDoubles - 1) / kLineDoubles * kLineDoubles;
      block_[a] = doubles;
      doubles += 3 * hists * width_[a];
    }
    storage_.assign(doubles + kLineDoubles - 1, 0.0);
    void* aligned = storage_.data();
    size_t space = storage_.size() * sizeof(double);
    std::align(kLineBytes, doubles * sizeof(double), aligned, space);
    first_ = static_cast<size_t>(static_cast<double*>(aligned) -
                                 storage_.data());
  }

  size_t width(size_t a) const { return width_[a]; }
  // Histogram k's g run for active feature a; its h and cnt runs follow
  // at width(a) and 2 * width(a).
  double* At(size_t a, size_t k) {
    return storage_.data() + first_ + block_[a] + 3 * k * width_[a];
  }

  // Copies histogram k into `out` (allocated), feature by feature.
  void CopyTo(const TreeContext& ctx, size_t k, NodeHist* out) {
    for (size_t a = 0; a < ctx.active.size(); ++a) {
      const double* g = At(a, k);
      const size_t slots = ctx.feature_bins[ctx.active[a]]->num_bins + 1;
      const size_t base = ctx.offset[a];
      std::copy_n(g, slots, out->g.begin() + base);
      std::copy_n(g + width_[a], slots, out->h.begin() + base);
      std::copy_n(g + 2 * width_[a], slots, out->cnt.begin() + base);
    }
  }

 private:
  std::vector<size_t> width_, block_;
  std::vector<double> storage_;
  size_t first_ = 0;  // Index of the first aligned double in storage_.
};

// Accumulates the histogram of `rows`. Each active feature sums its own
// slot range in row order, so an executor changes nothing but speed.
// Threaded, each feature task accumulates into its own HistScratch
// block, copied into `out` after the batch.
Status BuildHist(const TreeContext& ctx, const std::vector<size_t>& rows,
                 NodeHist* out) {
  out->Allocate(ctx.total_slots);
  // Feature a's rows into its slots 0..num_bins (the last one missing).
  auto accumulate = [&](size_t a, double* g, double* h, double* cnt) {
    const HistogramIndex::FeatureBins& bins = *ctx.feature_bins[ctx.active[a]];
    for (size_t r : rows) {
      const uint16_t code = bins.codes[r];
      const size_t slot =
          code == HistogramIndex::kMissingBin ? bins.num_bins : code;
      g[slot] += (*ctx.grad)[r];
      h[slot] += (*ctx.hess)[r];
      cnt[slot] += 1.0;
    }
  };
  exec::Executor* executor =
      rows.size() >= kParallelMinRows ? ctx.params->executor : nullptr;
  if (executor == nullptr) {
    for (size_t a = 0; a < ctx.active.size(); ++a) {
      const size_t base = ctx.offset[a];
      accumulate(a, out->g.data() + base, out->h.data() + base,
                 out->cnt.data() + base);
    }
    return Status::Ok();
  }

  HistScratch scratch(ctx, 1);
  ROADMINE_RETURN_IF_ERROR(exec::ParallelFor(
      executor, ctx.active.size(), [&](size_t a) -> Status {
        double* g = scratch.At(a, 0);
        accumulate(a, g, g + scratch.width(a), g + 2 * scratch.width(a));
        return Status::Ok();
      }));
  scratch.CopyTo(ctx, 0, out);
  return Status::Ok();
}

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
  const HistogramIndex::FeatureBins& bins = *ctx.feature_bins[f];
  SplitCand best;
  best.gain = params.gamma;  // Strict >: a split must beat gamma.
  if (bins.constant || bins.num_bins < 2) return best;

  const size_t base = ctx.offset[a];
  const size_t miss = base + bins.num_bins;
  const double gm = hist.g[miss], hm = hist.h[miss], cm = hist.cnt[miss];
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
      cum_g += hist.g[base + b];
      cum_h += hist.h[base + b];
      cum_c += hist.cnt[base + b];
      if (hist.cnt[base + b] <= 0.0) continue;  // Same partition as b-1.
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
    if (hist.cnt[base + level] > 0.0) order.push_back(level);
  }
  if (order.size() < 2) return best;
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    const double rx = hist.g[base + x] / (hist.h[base + x] + params.lambda);
    const double ry = hist.g[base + y] / (hist.h[base + y] + params.lambda);
    if (rx != ry) return rx < ry;
    return x < y;
  });
  double cum_g = 0.0, cum_h = 0.0, cum_c = 0.0;
  for (size_t j = 0; j + 1 < order.size(); ++j) {
    cum_g += hist.g[base + order[j]];
    cum_h += hist.h[base + order[j]];
    cum_c += hist.cnt[base + order[j]];
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
// Paged-fit machinery.
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

// Supplies bin codes for every training sweep. When the full code matrix
// fits the cache budget, the source is read and binned once; otherwise
// every Sweep() re-streams and re-bins it. Either way the callback sees
// the same rows in the same ascending order, so sweep results are
// identical — only the pass count differs.
class PagedCodes {
 public:
  using Page = std::vector<const uint16_t*>;

  PagedCodes(data::RowSource& source, const std::vector<FeatureRef>& features,
             const std::vector<HistogramIndex::FeatureBins>& bins,
             size_t total_rows, size_t cache_budget_bytes)
      : source_(source),
        features_(features),
        bins_(bins),
        total_rows_(total_rows) {
    const uint64_t need = static_cast<uint64_t>(features.size()) *
                          static_cast<uint64_t>(total_rows) * sizeof(uint16_t);
    cached_ = need <= cache_budget_bytes;
  }

  bool cached() const { return cached_; }

  // Calls fn(first_row, row_count, codes) over consecutive blocks covering
  // rows [0, total_rows); codes[f] holds row_count codes of feature f.
  // Stops at fn's first error.
  Status Sweep(const std::function<Status(size_t, size_t, const Page&)>& fn) {
    if (cached_) {
      ROADMINE_RETURN_IF_ERROR(EnsureCache());
      Page ptrs(features_.size());
      for (size_t f = 0; f < features_.size(); ++f) {
        ptrs[f] = cache_[f].data();
      }
      return fn(0, total_rows_, ptrs);
    }
    std::vector<std::vector<uint16_t>> scratch(features_.size());
    Page ptrs(features_.size());
    return Stream([&](size_t base, const data::Dataset& chunk) {
      const size_t rows = chunk.num_rows();
      for (size_t f = 0; f < features_.size(); ++f) {
        scratch[f].resize(rows);
        BinPage(bins_[f], chunk.column(features_[f].column_index), rows,
                scratch[f].data());
        ptrs[f] = scratch[f].data();
      }
      return fn(base, rows, ptrs);
    });
  }

 private:
  Status EnsureCache() {
    if (!cache_.empty()) return Status::Ok();
    cache_.resize(features_.size());
    for (auto& codes : cache_) codes.resize(total_rows_);
    return Stream([&](size_t base, const data::Dataset& chunk) {
      for (size_t f = 0; f < features_.size(); ++f) {
        BinPage(bins_[f], chunk.column(features_[f].column_index),
                chunk.num_rows(), cache_[f].data() + base);
      }
      return Status::Ok();
    });
  }

  template <typename Fn>
  Status Stream(Fn&& fn) {
    ROADMINE_RETURN_IF_ERROR(source_.Reset());
    size_t base = 0;
    while (true) {
      auto chunk_result = source_.Next();
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

  data::RowSource& source_;
  const std::vector<FeatureRef>& features_;
  const std::vector<HistogramIndex::FeatureBins>& bins_;
  size_t total_rows_;
  bool cached_ = false;
  std::vector<std::vector<uint16_t>> cache_;  // [feature][row], if cached.
};

// One row of a paged histogram build: the row, and which of the
// histograms being built it adds to.
struct HistRow {
  uint32_t row;
  uint32_t hist;
};

// Adds `rows` (ascending, all inside the code block `page` that starts
// at row `base`) to their histograms in `scratch`, one task per active
// feature. Every slot takes its rows in row order, within this block and
// across consecutive blocks, so the sums equal BuildHist's at any thread
// count and page size.
Status AccumulateRows(const TreeContext& ctx, const HistRow* first,
                      const HistRow* last, size_t base,
                      const PagedCodes::Page& page, HistScratch* scratch) {
  exec::Executor* executor =
      static_cast<size_t>(last - first) >= kParallelMinRows
          ? ctx.params->executor
          : nullptr;
  return exec::ParallelFor(executor, ctx.active.size(), [&](size_t a) {
    const size_t f = ctx.active[a];
    const uint16_t* codes = page[f];
    const size_t missing = ctx.feature_bins[f]->num_bins;
    const size_t width = scratch->width(a);
    for (const HistRow* e = first; e != last; ++e) {
      const uint16_t code = codes[e->row - base];
      const size_t slot = code == HistogramIndex::kMissingBin ? missing : code;
      double* g = scratch->At(a, e->hist);
      g[slot] += (*ctx.grad)[e->row];
      g[width + slot] += (*ctx.hess)[e->row];
      g[2 * width + slot] += 1.0;
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
  if (rows.empty()) return InvalidArgumentError("cannot fit on 0 rows");
  if (params_.num_trees == 0) {
    return InvalidArgumentError("num_trees must be positive");
  }
  if (params_.learning_rate <= 0.0) {
    return InvalidArgumentError("learning_rate must be positive");
  }
  auto labels = ExtractBinaryLabels(dataset, target_column);
  if (!labels.ok()) return labels.status();
  auto features = ResolveFeatures(dataset, feature_columns, target_column);
  if (!features.ok()) return features.status();
  features_ = std::move(*features);
  trees_.clear();

  const HistogramIndex* hist = params_.histogram_index;
  std::optional<HistogramIndex> local_hist;
  if (hist != nullptr) {
    if (hist->num_rows() != dataset.num_rows() || !hist->Covers(features_)) {
      return InvalidArgumentError(
          "histogram_index does not cover this dataset's feature columns");
    }
  } else {
    auto built = HistogramIndex::Build(dataset, features_, rows,
                                       {.max_bins = params_.max_bins},
                                       params_.executor);
    if (!built.ok()) return built.status();
    local_hist.emplace(std::move(*built));
    hist = &*local_hist;
  }

  // Log-odds prior with the same Laplace smoothing the tree leaves use.
  double positives = 0.0;
  for (size_t r : rows) positives += (*labels)[r];
  const double prior = (positives + 1.0) / (static_cast<double>(rows.size()) + 2.0);
  base_score_ = std::log(prior / (1.0 - prior));

  std::vector<double> margin(dataset.num_rows(), 0.0);
  std::vector<double> grad(dataset.num_rows(), 0.0);
  std::vector<double> hess(dataset.num_rows(), 0.0);

  TreeContext ctx;
  ctx.features = &features_;
  ctx.params = &params_;
  ctx.grad = &grad;
  ctx.hess = &hess;
  ctx.feature_bins.reserve(features_.size());
  for (const FeatureRef& ref : features_) {
    ctx.feature_bins.push_back(&hist->ColumnBins(ref.column_index));
  }

  const size_t num_features = features_.size();
  std::vector<size_t> all_features(num_features);
  for (size_t f = 0; f < num_features; ++f) all_features[f] = f;

  for (size_t t = 0; t < params_.num_trees; ++t) {
    // Row and column draws come from child streams keyed by the round, so
    // neither depends on scheduling or on the other's draw count.
    util::Rng row_rng(util::Rng::SplitSeed(params_.seed, 2 * t));
    util::Rng col_rng(util::Rng::SplitSeed(params_.seed, 2 * t + 1));

    std::vector<size_t> sampled;
    if (params_.subsample < 1.0) {
      sampled.reserve(rows.size());
      for (size_t r : rows) {
        if (row_rng.Bernoulli(params_.subsample)) sampled.push_back(r);
      }
      if (sampled.empty()) continue;  // Nothing drawn: no tree this round.
    } else {
      sampled = rows;
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
      ctx.total_slots += ctx.feature_bins[f]->num_bins + 1;
    }

    for (size_t r : sampled) {
      const double p = Sigmoid(base_score_ + margin[r]);
      grad[r] = p - static_cast<double>((*labels)[r]);
      hess[r] = p * (1.0 - p);
    }

    std::vector<Node> tree;
    struct Pending {
      int node;
      int depth;
      std::vector<size_t> rows;
      double g, h;
      NodeHist hist;
    };
    std::deque<Pending> queue;

    auto make_node = [&](const std::vector<size_t>& node_rows, double* out_g,
                         double* out_h) {
      double g_sum = 0.0, h_sum = 0.0;
      for (size_t r : node_rows) {
        g_sum += grad[r];
        h_sum += hess[r];
      }
      Node node;
      node.leaf_value =
          params_.learning_rate * (-g_sum / (h_sum + params_.lambda));
      tree.push_back(std::move(node));
      *out_g = g_sum;
      *out_h = h_sum;
      return static_cast<int>(tree.size()) - 1;
    };

    {
      Pending root;
      root.depth = 0;
      root.rows = std::move(sampled);
      root.node = make_node(root.rows, &root.g, &root.h);
      ROADMINE_RETURN_IF_ERROR(BuildHist(ctx, root.rows, &root.hist));
      queue.push_back(std::move(root));
    }

    while (!queue.empty()) {
      Pending pending = std::move(queue.front());
      queue.pop_front();
      if (pending.depth >= params_.max_depth || pending.rows.size() < 2) {
        continue;
      }
      SplitCand cand = FindBestSplit(ctx, pending.hist, pending.g, pending.h,
                                     static_cast<double>(pending.rows.size()));
      if (!cand.valid) continue;

      // Partition by raw value — identical to the bin comparison the scan
      // priced, because every numeric threshold is a bin upper bound.
      const FeatureRef& ref = features_[cand.feature];
      const data::Column& col = dataset.column(ref.column_index);
      auto go_left = [&](size_t r) {
        if (col.IsMissing(r)) return cand.missing_goes_left;
        if (ref.type == data::ColumnType::kNumeric) {
          return col.NumericAt(r) <= cand.threshold;
        }
        const auto code = static_cast<size_t>(col.CodeAt(r));
        return code < cand.left_categories.size() &&
               cand.left_categories[code] != 0;
      };
      std::vector<size_t> left_rows, right_rows;
      for (size_t r : pending.rows) {
        (go_left(r) ? left_rows : right_rows).push_back(r);
      }
      if (left_rows.empty() || right_rows.empty()) continue;  // Degenerate.

      Pending left, right;
      left.depth = right.depth = pending.depth + 1;
      left.rows = std::move(left_rows);
      right.rows = std::move(right_rows);
      left.node = make_node(left.rows, &left.g, &left.h);
      right.node = make_node(right.rows, &right.g, &right.h);

      // Sibling subtraction: only the smaller child re-scans its rows;
      // the larger one is parent minus sibling, slot for slot.
      if (left.rows.size() <= right.rows.size()) {
        ROADMINE_RETURN_IF_ERROR(BuildHist(ctx, left.rows, &left.hist));
        right.hist.SubtractFrom(pending.hist, left.hist);
      } else {
        ROADMINE_RETURN_IF_ERROR(BuildHist(ctx, right.rows, &right.hist));
        left.hist.SubtractFrom(pending.hist, right.hist);
      }

      Node& node = tree[static_cast<size_t>(pending.node)];
      node.feature = static_cast<int>(cand.feature);
      node.threshold = cand.threshold;
      node.left_categories = std::move(cand.left_categories);
      node.missing_goes_left = cand.missing_goes_left;
      node.left = left.node;
      node.right = right.node;

      queue.push_back(std::move(left));
      queue.push_back(std::move(right));
    }

    // Every fit row moves by its leaf weight, sampled or not.
    for (size_t r : rows) margin[r] += TreeWeight(tree, dataset, r);
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

Status GradientBoostedTrees::FitPaged(
    data::RowSource& source, const std::string& target_column,
    const std::vector<std::string>& feature_columns,
    const PagedFitOptions& options) {
  ROADMINE_TRACE_SPAN("ml.gbt.fit_paged");
  obs::ScopedLatency fit_timer(
      obs::MetricsRegistry::Global().GetHistogram("ml.fit_ms"));
  if (params_.num_trees == 0) {
    return InvalidArgumentError("num_trees must be positive");
  }
  if (params_.learning_rate <= 0.0) {
    return InvalidArgumentError("learning_rate must be positive");
  }
  if (params_.max_bins < 2 || params_.max_bins >= HistogramIndex::kMissingBin) {
    return InvalidArgumentError("max_bins must be in [2, 65534]");
  }
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
  if (total_rows == 0) return InvalidArgumentError("cannot fit on 0 rows");
  constexpr uint32_t kRetired = std::numeric_limits<uint32_t>::max();
  if (total_rows >= kRetired) {
    return InvalidArgumentError("too many rows for a paged fit");
  }

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
  trees_.clear();

  double positives = 0.0;
  for (const int8_t label : labels) positives += label;
  const double prior =
      (positives + 1.0) / (static_cast<double>(total_rows) + 2.0);
  base_score_ = std::log(prior / (1.0 - prior));

  std::vector<double> margin(total_rows, 0.0);
  // g/h of each live row, computed once per tree from margin + label:
  // the same expression, so the same doubles, as Fit's arrays.
  std::vector<double> grad(total_rows, 0.0);
  std::vector<double> hess(total_rows, 0.0);

  PagedCodes codes(source, features_, bins, total_rows,
                   options.code_cache_bytes);

  TreeContext ctx;
  ctx.features = &features_;
  ctx.params = &params_;
  ctx.grad = &grad;
  ctx.hess = &hess;
  ctx.feature_bins.reserve(num_features);
  for (size_t f = 0; f < num_features; ++f) {
    ctx.feature_bins.push_back(&bins[f]);
  }

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
  // route[r], while a level splits: the index in the next level of the
  // child row r goes to, or kRetired when its node stays a leaf.
  std::vector<uint32_t> route(total_rows, kRetired);
  // Rows of the histograms being built, ascending.
  std::vector<HistRow> hist_rows;

  // Routes a row through the split of `cand` using its bin code: for
  // numeric cuts `code <= threshold_bin` iff `value <= upper[bin]`, so
  // code routing matches the raw-value routing Fit applies.
  auto code_goes_left = [&](const SplitCand& cand, uint16_t code) {
    if (code == HistogramIndex::kMissingBin) return cand.missing_goes_left;
    if (bins[cand.feature].is_numeric) {
      return static_cast<size_t>(code) <= cand.threshold_bin;
    }
    return static_cast<size_t>(code) < cand.left_categories.size() &&
           cand.left_categories[code] != 0;
  };

  // Builds hists[k] from the hist_rows tagged k in one sweep: per page,
  // one task per active feature, each into its own scratch block.
  auto build_hists = [&](const std::vector<NodeHist*>& hists) -> Status {
    for (NodeHist* hist : hists) hist->Allocate(ctx.total_slots);
    HistScratch scratch(ctx, hists.size());
    ROADMINE_RETURN_IF_ERROR(codes.Sweep(
        [&](size_t base, size_t rows, const PagedCodes::Page& page) {
          const HistRow* begin = hist_rows.data();
          const HistRow* end = begin + hist_rows.size();
          const HistRow* first = std::partition_point(
              begin, end, [&](const HistRow& e) { return e.row < base; });
          const HistRow* last =
              std::partition_point(first, end, [&](const HistRow& e) {
                return e.row < base + rows;
              });
          return AccumulateRows(ctx, first, last, base, page, &scratch);
        }));
    for (size_t k = 0; k < hists.size(); ++k) {
      scratch.CopyTo(ctx, k, hists[k]);
    }
    return Status::Ok();
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
      ctx.total_slots += ctx.feature_bins[f]->num_bins + 1;
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

    // Root sums in row order, like Fit's make_node; its histogram from
    // every live row.
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
      // Decide each level node in id order — the same order Fit's FIFO
      // queue processes them, so child ids come out identical. A split's
      // children take places next_index and next_index + 1 of the next
      // level. The scan never yields an empty side, so unlike Fit no
      // split falls back to a leaf.
      struct Decision {
        bool split = false;
        SplitCand cand;
        size_t next_index = 0;
        bool build_left = true;  // The smaller child, as in Fit.
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

      // Route: each live row's child, row-parallel.
      ROADMINE_RETURN_IF_ERROR(codes.Sweep(
          [&](size_t base, size_t rows, const PagedCodes::Page& page) {
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
                    child = static_cast<uint32_t>(
                        decision.next_index +
                        (code_goes_left(cand, page[cand.feature][i]) ? 0 : 1));
                  }
                }
                route[r] = child;
              }
              return Status::Ok();
            });
          }));

      // Children's G/H in one serial pass in row order — bit for bit
      // Fit's make_node sums — which also lists the rows of the children
      // whose histograms are built (hist_of, else kRetired).
      std::vector<double> child_g(2 * splits, 0.0), child_h(2 * splits, 0.0);
      std::vector<uint32_t> hist_of(2 * splits, kRetired);
      for (const Decision& decision : decisions) {
        if (!decision.split) continue;
        hist_of[decision.next_index + (decision.build_left ? 0 : 1)] =
            static_cast<uint32_t>(decision.next_index / 2);
      }
      hist_rows.clear();
      for (size_t r = 0; r < total_rows; ++r) {
        const uint32_t child = route[r];
        if (child == kRetired) continue;
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

      // Rows move to their child's node id, row-parallel; rows of nodes
      // that stay leaves retire.
      ROADMINE_RETURN_IF_ERROR(
          for_rows(total_rows, [&](size_t begin, size_t end) {
            for (size_t r = begin; r < end; ++r) {
              const uint32_t child = route[r];
              assign[r] = child == kRetired
                              ? kRetired
                              : static_cast<uint32_t>(next[child].node);
            }
            return Status::Ok();
          }));

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
    // routed by codes — identical to Fit's raw-value TreeWeight walk.
    ROADMINE_RETURN_IF_ERROR(codes.Sweep(
        [&](size_t base, size_t rows, const PagedCodes::Page& page) {
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
  metrics.GetCounter("ml.gbt.paged_fits").Increment();
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
