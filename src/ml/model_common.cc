#include <algorithm>

#include "ml/model.h"
#include "ml/training_source.h"

namespace mlcs::ml {

const char* ModelTypeToString(ModelType type) {
  switch (type) {
    case ModelType::kDecisionTree:
      return "decision_tree";
    case ModelType::kRandomForest:
      return "random_forest";
    case ModelType::kLogisticRegression:
      return "logistic_regression";
    case ModelType::kNaiveBayes:
      return "naive_bayes";
    case ModelType::kKnn:
      return "knn";
  }
  return "unknown";
}

Result<Labels> Model::PredictSource(const TrainingSource& x) const {
  // Models without a source walk predict from one dense copy.
  return Predict(x.ToMatrix());  // lint:allow(matrix-materialize)
}

namespace internal {

namespace {

Status CheckFeatureCount(size_t cols, size_t expected_features, bool fitted) {
  if (!fitted) {
    return Status::InvalidArgument("model is not fitted");
  }
  if (cols != expected_features) {
    return Status::InvalidArgument(
        "feature count " + std::to_string(cols) +
        " does not match fit-time count " +
        std::to_string(expected_features));
  }
  return Status::OK();
}

}  // namespace

std::vector<int32_t> DistinctClasses(const Labels& y) {
  std::vector<int32_t> classes(y);
  std::sort(classes.begin(), classes.end());
  classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
  return classes;
}

Result<size_t> ClassIndex(const std::vector<int32_t>& classes, int32_t cls) {
  auto it = std::lower_bound(classes.begin(), classes.end(), cls);
  if (it == classes.end() || *it != cls) {
    return Status::InvalidArgument("class " + std::to_string(cls) +
                                   " was not seen during fit");
  }
  return static_cast<size_t>(it - classes.begin());
}

Status CheckFitInputs(const Matrix& x, const Labels& y) {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("cannot fit on an empty matrix");
  }
  if (y.size() != x.rows()) {
    return Status::InvalidArgument(
        "label count " + std::to_string(y.size()) +
        " does not match row count " + std::to_string(x.rows()));
  }
  return Status::OK();
}

Status CheckFitInputs(const TrainingSource& x, const Labels& y) {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("cannot fit on an empty training source");
  }
  if (y.size() != x.rows()) {
    return Status::InvalidArgument(
        "label count " + std::to_string(y.size()) +
        " does not match row count " + std::to_string(x.rows()));
  }
  return Status::OK();
}

Status CheckPredictInputs(const Matrix& x, size_t expected_features,
                          bool fitted) {
  return CheckFeatureCount(x.cols(), expected_features, fitted);
}

Status CheckPredictInputs(const TrainingSource& x, size_t expected_features,
                          bool fitted) {
  return CheckFeatureCount(x.cols(), expected_features, fitted);
}

}  // namespace internal
}  // namespace mlcs::ml
