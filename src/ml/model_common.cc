#include <algorithm>

#include "ml/model.h"

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

Result<Labels> Model::Predict(const Matrix& x) const {
  MLCS_ASSIGN_OR_RETURN(std::vector<double> dist, PredictDistribution(x));
  return LabelsOf(dist);
}

Result<std::vector<double>> Model::PredictProba(const Matrix& x,
                                                int32_t cls) const {
  MLCS_ASSIGN_OR_RETURN(size_t cls_idx, internal::ClassIndex(classes(), cls));
  MLCS_ASSIGN_OR_RETURN(std::vector<double> dist, PredictDistribution(x));
  size_t num_classes = classes().size();
  std::vector<double> out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    out[r] = dist[r * num_classes + cls_idx];
  }
  return out;
}

Result<std::vector<double>> Model::PredictConfidence(const Matrix& x) const {
  MLCS_ASSIGN_OR_RETURN(std::vector<double> dist, PredictDistribution(x));
  return ConfidencesOf(dist);
}

Labels Model::LabelsOf(const std::vector<double>& distribution) const {
  const std::vector<int32_t>& cls = classes();
  Labels out(distribution.size() / cls.size());
  const double* row = distribution.data();
  for (size_t r = 0; r < out.size(); ++r, row += cls.size()) {
    size_t best = 0;
    for (size_t c = 1; c < cls.size(); ++c) {
      if (row[c] > row[best]) best = c;
    }
    out[r] = cls[best];
  }
  return out;
}

std::vector<double> Model::ConfidencesOf(
    const std::vector<double>& distribution) const {
  size_t num_classes = classes().size();
  std::vector<double> out(distribution.size() / num_classes);
  const double* row = distribution.data();
  for (size_t r = 0; r < out.size(); ++r, row += num_classes) {
    double best = 0;
    for (size_t c = 0; c < num_classes; ++c) best = std::max(best, row[c]);
    out[r] = best;
  }
  return out;
}

namespace internal {

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

Status CheckPredictInputs(const Matrix& x, size_t expected_features,
                          bool fitted) {
  if (!fitted) {
    return Status::InvalidArgument("model is not fitted");
  }
  if (x.cols() != expected_features) {
    return Status::InvalidArgument(
        "feature count " + std::to_string(x.cols()) +
        " does not match fit-time count " +
        std::to_string(expected_features));
  }
  return Status::OK();
}

}  // namespace internal
}  // namespace mlcs::ml
