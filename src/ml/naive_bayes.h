#ifndef MLCS_ML_NAIVE_BAYES_H_
#define MLCS_ML_NAIVE_BAYES_H_

#include <memory>
#include <vector>

#include "ml/model.h"

namespace mlcs::ml {

struct NaiveBayesOptions {
  /// Variance floor added to every per-feature variance (sklearn's
  /// var_smoothing analogue, relative to the largest feature variance).
  double var_smoothing = 1e-9;
};

/// Gaussian naive Bayes — the third model family for the ensemble study.
/// Fast single-pass fit, closed-form probabilities.
class NaiveBayes : public Model {
 public:
  explicit NaiveBayes(NaiveBayesOptions options = {});

  ModelType type() const override { return ModelType::kNaiveBayes; }
  Status Fit(const Matrix& x, const Labels& y) override;
  /// Row-normalized posterior per class.
  Result<std::vector<double>> PredictDistribution(
      const Matrix& x) const override;
  const std::vector<int32_t>& classes() const override { return classes_; }
  std::string ParamsString() const override;
  void Serialize(ByteWriter* writer) const override;

  static Result<std::unique_ptr<NaiveBayes>> DeserializeBody(
      ByteReader* reader);

 private:
  NaiveBayesOptions options_;
  std::vector<int32_t> classes_;
  size_t num_features_ = 0;
  std::vector<double> log_prior_;              // [class]
  std::vector<std::vector<double>> mean_;      // [class][feature]
  std::vector<std::vector<double>> var_;       // [class][feature]
};

}  // namespace mlcs::ml

#endif  // MLCS_ML_NAIVE_BAYES_H_
