#ifndef MLCS_ML_MODEL_H_
#define MLCS_ML_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/byte_buffer.h"
#include "common/result.h"
#include "ml/matrix.h"

namespace mlcs::ml {

/// Serialization tags; stable on disk — never reorder.
enum class ModelType : uint8_t {
  kDecisionTree = 1,
  kRandomForest = 2,
  kLogisticRegression = 3,
  kNaiveBayes = 4,
  kKnn = 5,
};

const char* ModelTypeToString(ModelType type);

/// Abstract classifier, the scikit-learn-estimator analogue. A model
/// implements two things: Fit (train on a feature matrix plus labels) and
/// PredictDistribution (one class distribution per row). Every other
/// prediction — labels, per-class probabilities and the per-row confidences
/// the "use the most confident model" ensemble keys on (paper §3.3) — is
/// derived from that distribution here, once for every model. All models
/// support binary serialization via pickle.h ("pickle.dumps/loads").
class Model {
 public:
  virtual ~Model() = default;

  virtual ModelType type() const = 0;

  /// Trains on x (n rows × d features) and labels y (length n). Labels may
  /// be arbitrary int32 values; models remap them internally and remember
  /// the class set.
  virtual Status Fit(const Matrix& x, const Labels& y) = 0;

  /// Class distribution per row, flattened [row × class] with classes in
  /// classes() order. Requires a fitted model and x with the fit-time
  /// feature count.
  virtual Result<std::vector<double>> PredictDistribution(
      const Matrix& x) const = 0;

  /// Sorted distinct labels seen at fit time (empty before fitting).
  virtual const std::vector<int32_t>& classes() const = 0;

  bool fitted() const { return !classes().empty(); }

  /// Human/SQL-queryable hyperparameter description, e.g.
  /// "n_estimators=16 max_depth=12". Stored in the model catalog.
  virtual std::string ParamsString() const = 0;

  /// Writes the body (excluding the type tag, which pickle.h adds).
  virtual void Serialize(ByteWriter* writer) const = 0;

  /// Predicted label per row: the most probable class, the lowest one on
  /// ties. Requires a fitted model.
  Result<Labels> Predict(const Matrix& x) const;

  /// P(class = `cls`) per row. `cls` must be one of classes().
  Result<std::vector<double>> PredictProba(const Matrix& x,
                                           int32_t cls) const;

  /// Confidence (probability of the *predicted* class) per row.
  Result<std::vector<double>> PredictConfidence(const Matrix& x) const;

  /// Predict's labels and PredictConfidence's confidences from a
  /// PredictDistribution result, for callers that need both.
  Labels LabelsOf(const std::vector<double>& distribution) const;
  std::vector<double> ConfidencesOf(
      const std::vector<double>& distribution) const;
};

using ModelPtr = std::shared_ptr<Model>;

namespace internal {

/// Sorted distinct values of y.
std::vector<int32_t> DistinctClasses(const Labels& y);

/// Index of `cls` in sorted `classes`, or error.
Result<size_t> ClassIndex(const std::vector<int32_t>& classes, int32_t cls);

/// Shared validation for Fit inputs.
Status CheckFitInputs(const Matrix& x, const Labels& y);
/// Shared validation for PredictDistribution inputs against the fitted
/// feature count.
Status CheckPredictInputs(const Matrix& x, size_t expected_features,
                          bool fitted);

}  // namespace internal
}  // namespace mlcs::ml

#endif  // MLCS_ML_MODEL_H_
