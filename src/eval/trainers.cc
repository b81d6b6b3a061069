#include "eval/trainers.h"

#include <memory>
#include <utility>

namespace roadmine::eval {

BinaryTrainer ClassifierTrainer(ml::ClassifierSpec spec, std::string target,
                                std::vector<std::string> features) {
  return [spec = std::move(spec), target = std::move(target),
          features = std::move(features)](
             const data::Dataset& dataset,
             const std::vector<size_t>& train_rows)
             -> util::Result<FoldScorer> {
    auto built = ml::MakeBinaryClassifier(spec);
    if (!built.ok()) return built.status();
    std::shared_ptr<ml::BinaryClassifier> model = std::move(*built);
    ROADMINE_RETURN_IF_ERROR(
        model->Fit(dataset, target, features, train_rows));
    return FoldScorer(
        RowScorer([model, &dataset](size_t row) {
          return model->PredictProba(dataset, row);
        }),
        BatchScorer([model, &dataset](const std::vector<size_t>& rows) {
          return model->PredictBatch(dataset, rows);
        }));
  };
}

}  // namespace roadmine::eval
