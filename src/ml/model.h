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

class TrainingSource;

/// Abstract classifier, the scikit-learn-estimator analogue: Fit on a
/// feature matrix plus labels, Predict labels, and report per-row
/// confidences for ensemble selection (paper §3.3). All models support
/// binary serialization via pickle.h ("pickle.dumps/loads").
class Model {
 public:
  virtual ~Model() = default;

  virtual ModelType type() const = 0;

  /// Trains on X (n×d) and labels y (length n). Labels may be arbitrary
  /// int32 values; models remap internally and remember the class set.
  virtual Status Fit(const Matrix& x, const Labels& y) = 0;

  /// Predicted label per row. Requires a fitted model.
  virtual Result<Labels> Predict(const Matrix& x) const = 0;

  /// Predict over a feature source (training_source.h), e.g. table columns
  /// read in place. The default copies the source into a Matrix; the tree
  /// models walk it directly. Same labels as Predict on that Matrix.
  virtual Result<Labels> PredictSource(const TrainingSource& x) const;

  /// P(class = `cls`) per row. `cls` must be one of classes().
  virtual Result<std::vector<double>> PredictProba(const Matrix& x,
                                                   int32_t cls) const = 0;

  /// Confidence (probability of the *predicted* class) per row — what the
  /// "use the most confident model" ensemble keys on.
  virtual Result<std::vector<double>> PredictConfidence(
      const Matrix& x) const = 0;

  /// Sorted distinct labels seen at fit time (empty before fitting).
  virtual const std::vector<int32_t>& classes() const = 0;

  bool fitted() const { return !classes().empty(); }

  /// Human/SQL-queryable hyperparameter description, e.g.
  /// "n_estimators=16 max_depth=12". Stored in the model catalog.
  virtual std::string ParamsString() const = 0;

  /// Writes the body (excluding the type tag, which pickle.h adds).
  virtual void Serialize(ByteWriter* writer) const = 0;
};

using ModelPtr = std::shared_ptr<Model>;

namespace internal {

/// Sorted distinct values of y.
std::vector<int32_t> DistinctClasses(const Labels& y);

/// Index of `cls` in sorted `classes`, or error.
Result<size_t> ClassIndex(const std::vector<int32_t>& classes, int32_t cls);

/// Shared validation for Fit inputs.
Status CheckFitInputs(const Matrix& x, const Labels& y);
/// Same checks against a TrainingSource (training_source.h).
Status CheckFitInputs(const TrainingSource& x, const Labels& y);
/// Shared validation for Predict inputs against the fitted feature count.
Status CheckPredictInputs(const Matrix& x, size_t expected_features,
                          bool fitted);
Status CheckPredictInputs(const TrainingSource& x, size_t expected_features,
                          bool fitted);

}  // namespace internal
}  // namespace mlcs::ml

#endif  // MLCS_ML_MODEL_H_
