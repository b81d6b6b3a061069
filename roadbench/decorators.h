// Bench-side decorators that time a layer where it runs inside another
// layer's call, through the layer's public interface:
//   * TimedRowSource wraps a data::RowSource and times Next();
//   * TimedPredictor wraps an ml::Predictor and times PredictBatch().
// Each call is a "bench.<layer>.<call>" span (recorded only while the
// trace collector is on), so the layer's self-time falls out of the
// traced run. Both also count the rows that pass through them, which is
// how the pipeline checks rows ingested == rows emitted == rows scored.
#ifndef ROADMINE_ROADBENCH_DECORATORS_H_
#define ROADMINE_ROADBENCH_DECORATORS_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "data/row_source.h"
#include "ml/predictor.h"

namespace roadbench {

class TimedRowSource : public roadmine::data::RowSource {
 public:
  // `inner` is not owned and must outlive this wrapper.
  TimedRowSource(roadmine::data::RowSource& inner, std::string span_name)
      : inner_(inner), span_name_(std::move(span_name)) {}

  const roadmine::data::TableSchema& schema() const override {
    return inner_.schema();
  }
  std::optional<uint64_t> TotalRowsHint() const override {
    return inner_.TotalRowsHint();
  }
  [[nodiscard]] roadmine::util::Status Reset() override;
  [[nodiscard]] roadmine::util::Result<const roadmine::data::Dataset*> Next()
      override;

  uint64_t rows() const { return rows_; }
  uint64_t chunks() const { return chunks_; }

 private:
  roadmine::data::RowSource& inner_;
  std::string span_name_;
  uint64_t rows_ = 0;    // Rows handed out, over every pass.
  uint64_t chunks_ = 0;  // Non-null chunks handed out.
};

class TimedPredictor : public roadmine::ml::Predictor {
 public:
  // `inner` is not owned and must outlive this wrapper.
  TimedPredictor(const roadmine::ml::Predictor& inner, std::string span_name)
      : inner_(inner), span_name_(std::move(span_name)) {}

  [[nodiscard]] roadmine::util::Result<std::vector<double>> PredictBatch(
      const roadmine::data::Dataset& dataset,
      const std::vector<size_t>& rows) const override;
  const char* name() const override { return inner_.name(); }

  uint64_t rows() const { return rows_.load(); }

 private:
  const roadmine::ml::Predictor& inner_;
  std::string span_name_;
  // PredictBatch is const and may run on several threads at once.
  mutable std::atomic<uint64_t> rows_{0};  // roadmine-lint: allow(determinism)
};

}  // namespace roadbench

#endif  // ROADMINE_ROADBENCH_DECORATORS_H_
