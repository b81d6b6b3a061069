#include "decorators.h"

#include "obs/trace.h"

namespace roadbench {

using roadmine::data::Dataset;
using roadmine::util::Result;
using roadmine::util::Status;

Status TimedRowSource::Reset() { return inner_.Reset(); }

Result<const Dataset*> TimedRowSource::Next() {
  Result<const Dataset*> chunk = [&] {
    roadmine::obs::ScopedSpan span(span_name_);
    return inner_.Next();
  }();
  if (chunk.ok() && *chunk != nullptr) {
    rows_ += (*chunk)->num_rows();
    ++chunks_;
  }
  return chunk;
}

Result<std::vector<double>> TimedPredictor::PredictBatch(
    const Dataset& dataset, const std::vector<size_t>& rows) const {
  Result<std::vector<double>> scores = [&] {
    roadmine::obs::ScopedSpan span(span_name_);
    return inner_.PredictBatch(dataset, rows);
  }();
  if (scores.ok()) rows_ += rows.size();
  return scores;
}

}  // namespace roadbench
