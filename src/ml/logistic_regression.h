#ifndef MLCS_ML_LOGISTIC_REGRESSION_H_
#define MLCS_ML_LOGISTIC_REGRESSION_H_

#include <memory>
#include <vector>

#include "ml/model.h"

namespace mlcs::ml {

struct LogisticRegressionOptions {
  double learning_rate = 0.1;
  int epochs = 50;
  double l2 = 1e-4;
  uint64_t seed = 42;
};

/// Multiclass logistic regression (one-vs-rest) trained with mini-batch
/// gradient descent on standardized features. Part of the ensemble study
/// (paper §3.3): a second model family to store and compare in the catalog.
class LogisticRegression : public Model {
 public:
  explicit LogisticRegression(LogisticRegressionOptions options = {});

  ModelType type() const override { return ModelType::kLogisticRegression; }
  Status Fit(const Matrix& x, const Labels& y) override;
  /// Per-class sigmoid scores, normalized across classes per row.
  Result<std::vector<double>> PredictDistribution(
      const Matrix& x) const override;
  const std::vector<int32_t>& classes() const override { return classes_; }
  std::string ParamsString() const override;
  void Serialize(ByteWriter* writer) const override;

  static Result<std::unique_ptr<LogisticRegression>> DeserializeBody(
      ByteReader* reader);

 private:
  LogisticRegressionOptions options_;
  std::vector<int32_t> classes_;
  size_t num_features_ = 0;
  std::vector<double> mean_, std_;              // standardization
  std::vector<std::vector<double>> weights_;    // [class][feature]
  std::vector<double> bias_;                    // [class]
};

}  // namespace mlcs::ml

#endif  // MLCS_ML_LOGISTIC_REGRESSION_H_
