#ifndef MLCS_ML_KNN_H_
#define MLCS_ML_KNN_H_

#include <memory>
#include <vector>

#include "ml/model.h"

namespace mlcs::ml {

struct KnnOptions {
  size_t k = 5;
};

/// Brute-force k-nearest-neighbours classifier (L2 distance, standardized
/// features). Included as a non-parametric model family for the ensemble
/// study: its serialized form *is* the training data, which also makes it
/// the worst case for the model-BLOB storage path (abl-ser's large-model
/// end of the spectrum).
class Knn : public Model {
 public:
  explicit Knn(KnnOptions options = {});

  ModelType type() const override { return ModelType::kKnn; }
  Status Fit(const Matrix& x, const Labels& y) override;
  /// Share of each class among a row's k nearest training rows.
  Result<std::vector<double>> PredictDistribution(
      const Matrix& x) const override;
  const std::vector<int32_t>& classes() const override { return classes_; }
  std::string ParamsString() const override;
  void Serialize(ByteWriter* writer) const override;

  static Result<std::unique_ptr<Knn>> DeserializeBody(ByteReader* reader);

 private:
  KnnOptions options_;
  std::vector<int32_t> classes_;
  size_t num_features_ = 0;
  std::vector<double> mean_, std_;
  Matrix train_;        // standardized training data
  Labels train_labels_;
};

}  // namespace mlcs::ml

#endif  // MLCS_ML_KNN_H_
