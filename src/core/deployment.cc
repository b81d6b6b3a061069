#include "core/deployment.h"

#include <algorithm>
#include <numeric>
#include <queue>

#include "roadgen/dataset_builder.h"
#include "util/string_util.h"
#include "util/text_table.h"

namespace roadmine::core {

using util::InvalidArgumentError;
using util::Result;

namespace {

// Flags the treatable attribute deficits of one segment row.
std::vector<std::string> RecommendTreatments(const data::Dataset& ds,
                                             size_t row,
                                             const DeploymentConfig& config) {
  std::vector<std::string> treatments;
  auto numeric = [&](const char* name, double* out) {
    auto col = ds.ColumnByName(name);
    if (!col.ok() || (*col)->type() != data::ColumnType::kNumeric ||
        (*col)->IsMissing(row)) {
      return false;
    }
    *out = (*col)->NumericAt(row);
    return true;
  };
  double value = 0.0;
  if (numeric("f60", &value) && value < config.f60_floor) {
    treatments.push_back("reseal: skid resistance below floor");
  }
  if (numeric("texture_depth", &value) && value < config.texture_floor) {
    treatments.push_back("retexture: texture depth below floor");
  }
  if (numeric("seal_age", &value) && value > config.seal_age_ceiling) {
    treatments.push_back("reseal: surface beyond design life");
  }
  if (numeric("shoulder_width", &value) && value < config.shoulder_floor) {
    treatments.push_back("widen shoulder");
  }
  if (numeric("roughness_iri", &value) && value > config.roughness_ceiling) {
    treatments.push_back("rehabilitate: roughness above ceiling");
  }
  if (treatments.empty()) {
    treatments.push_back("investigate: no surface deficit flagged");
  }
  return treatments;
}

// One streaming survivor: the global row, its score or observed count,
// and (for the probability heap) the fully assembled program line — built
// while the row's page was resident, since the page is gone by the time
// the final ranking is known.
struct PagedEntry {
  uint64_t row = 0;
  double key = 0.0;  // Probability or observed count, per heap.
  RankedSegment ranked;
};

// Ranking order: higher key wins, ties go to the earlier row, so the
// ranking is a total order whatever the chunking. As a priority_queue
// comparator this parks the WORST survivor at top(), where eviction
// wants it.
struct PagedBeats {
  bool operator()(const PagedEntry& a, const PagedEntry& b) const {
    if (a.key != b.key) return a.key > b.key;
    return a.row < b.row;
  }
};

using PagedHeap =
    std::priority_queue<PagedEntry, std::vector<PagedEntry>, PagedBeats>;

// Bounded insert: enter iff the heap is short or the candidate beats the
// worst survivor.
void OfferEntry(PagedHeap* heap, size_t capacity, PagedEntry entry) {
  if (heap->size() < capacity) {
    heap->push(std::move(entry));
  } else if (capacity > 0 && PagedBeats()(entry, heap->top())) {
    heap->pop();
    heap->push(std::move(entry));
  }
}

}  // namespace

Result<WorksProgram> BuildWorksProgramPaged(data::RowSource& segments,
                                            const ml::Predictor& model,
                                            const DeploymentConfig& config) {
  const data::TableSchema& schema = segments.schema();
  auto id_idx = schema.ColumnIndex(roadgen::kSegmentIdColumn);
  if (!id_idx.ok()) return id_idx.status();
  auto count_idx = schema.ColumnIndex(roadgen::kSegmentCrashCountColumn);
  if (!count_idx.ok()) return count_idx.status();

  // The row count fixes the decile — and with it both heap bounds —
  // before any scoring. Trust the source's hint; spend a counting pass
  // when it has none.
  uint64_t total = 0;
  if (auto hint = segments.TotalRowsHint(); hint.has_value()) {
    total = *hint;
  } else {
    ROADMINE_RETURN_IF_ERROR(segments.Reset());
    for (;;) {
      auto page = segments.Next();
      if (!page.ok()) return page.status();
      if (*page == nullptr) break;
      total += (*page)->num_rows();
    }
  }
  if (total == 0) return InvalidArgumentError("no segments");

  const size_t decile = std::max<size_t>(1, static_cast<size_t>(total / 10));
  const size_t keep_prob =
      config.max_segments == 0
          ? static_cast<size_t>(total)
          : std::max(config.max_segments, decile);

  PagedHeap by_probability;
  PagedHeap by_count;
  std::vector<size_t> page_rows;
  uint64_t seen = 0;
  ROADMINE_RETURN_IF_ERROR(segments.Reset());
  for (;;) {
    auto page = segments.Next();
    if (!page.ok()) return page.status();
    if (*page == nullptr) break;
    const data::Dataset& ds = **page;
    const size_t n = ds.num_rows();
    page_rows.resize(n);
    std::iota(page_rows.begin(), page_rows.end(), size_t{0});
    auto probabilities = model.PredictBatch(ds, page_rows);
    if (!probabilities.ok()) return probabilities.status();
    const data::Column& ids = ds.column(*id_idx);
    const data::Column& counts = ds.column(*count_idx);
    for (size_t r = 0; r < n; ++r) {
      const uint64_t global_row = seen + r;
      const double count = counts.NumericAt(r);
      OfferEntry(&by_count, decile, PagedEntry{global_row, count, {}});
      PagedEntry candidate{global_row, (*probabilities)[r], {}};
      // Assemble the program line only if the row actually enters the
      // heap — treatments need the page, which won't outlive this loop.
      if (by_probability.size() < keep_prob ||
          PagedBeats()(candidate, by_probability.top())) {
        candidate.ranked.segment_id = static_cast<int64_t>(ids.NumericAt(r));
        candidate.ranked.crash_prone_probability = candidate.key;
        candidate.ranked.observed_crash_count = count;
        candidate.ranked.recommended_treatments =
            RecommendTreatments(ds, r, config);
        OfferEntry(&by_probability, keep_prob, std::move(candidate));
      }
    }
    seen += n;
  }
  if (seen != total) {
    return util::DataLossError("row source changed size between passes");
  }

  // Drain best-first. The probability heap holds the first keep_prob
  // rows by probability, the count heap the top decile by observed count.
  std::vector<PagedEntry> ranked(by_probability.size());
  for (size_t i = ranked.size(); i-- > 0;) {
    ranked[i] = by_probability.top();
    by_probability.pop();
  }
  std::vector<uint64_t> count_decile_rows;
  count_decile_rows.reserve(by_count.size());
  while (!by_count.empty()) {
    count_decile_rows.push_back(by_count.top().row);
    by_count.pop();
  }
  std::sort(count_decile_rows.begin(), count_decile_rows.end());

  WorksProgram program;
  size_t overlap = 0;
  for (size_t i = 0; i < decile && i < ranked.size(); ++i) {
    overlap += std::binary_search(count_decile_rows.begin(),
                                  count_decile_rows.end(), ranked[i].row)
                   ? 1
                   : 0;
  }
  program.top_decile_agreement =
      static_cast<double>(overlap) / static_cast<double>(decile);
  for (PagedEntry& entry : ranked) {
    if (entry.key < config.min_probability) break;
    if (config.max_segments != 0 &&
        program.segments.size() >= config.max_segments) {
      break;
    }
    program.segments.push_back(std::move(entry.ranked));
  }
  return program;
}

Result<WorksProgram> BuildWorksProgram(const data::Dataset& segments,
                                       const ml::Predictor& model,
                                       const DeploymentConfig& config) {
  data::DatasetSource source(segments);
  return BuildWorksProgramPaged(source, model, config);
}

std::string RenderWorksProgram(const WorksProgram& program, size_t max_rows) {
  util::TextTable table(
      {"rank", "segment", "P(crash-prone)", "4yr crashes", "treatments"});
  for (size_t i = 0; i < program.segments.size() && i < max_rows; ++i) {
    const RankedSegment& s = program.segments[i];
    table.AddRow({std::to_string(i + 1), std::to_string(s.segment_id),
                  util::FormatDouble(s.crash_prone_probability, 3),
                  util::FormatDouble(s.observed_crash_count, 0),
                  util::Join(s.recommended_treatments, "; ")});
  }
  table.AddFooter("listed segments: " +
                  std::to_string(program.segments.size()));
  table.AddFooter("top-decile agreement with observed counts: " +
                  util::FormatDouble(program.top_decile_agreement, 3));
  return table.Render();
}

}  // namespace roadmine::core
