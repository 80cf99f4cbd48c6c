#ifndef MLCS_ML_RANDOM_FOREST_H_
#define MLCS_ML_RANDOM_FOREST_H_

#include <memory>
#include <vector>

#include "ml/decision_tree.h"
#include "ml/model.h"

namespace mlcs::ml {

struct RandomForestOptions {
  /// Number of trees — the paper's `n_estimators` UDF parameter
  /// (Listing 1).
  int n_estimators = 16;
  int max_depth = 12;
  size_t min_samples_split = 2;
  size_t min_samples_leaf = 1;
  /// Features per split; 0 = floor(sqrt(d)), scikit-learn's default.
  size_t max_features = 0;
  bool bootstrap = true;
  /// Value codes per feature (DecisionTreeOptions::num_bins); the forest
  /// codes its training set once and every tree grows from those codes.
  int num_bins = 255;
  bool exact_splits = false;
  /// Fit trees (and code features) on the global thread pool.
  bool parallel_fit = true;
  uint64_t seed = 42;
};

/// Bagging random-forest classifier over CART trees — the reproduction of
/// the paper's sklearn RandomForestClassifier UDF workload.
class RandomForest : public Model {
 public:
  explicit RandomForest(RandomForestOptions options = {});

  ModelType type() const override { return ModelType::kRandomForest; }
  /// Codes the matrix once (TrainingCodes), then every tree
  /// bootstraps and grows from those codes.
  Status Fit(const Matrix& x, const Labels& y) override;
  /// The trees' leaf distributions averaged per row.
  Result<std::vector<double>> PredictDistribution(
      const Matrix& x) const override;
  const std::vector<int32_t>& classes() const override { return classes_; }
  std::string ParamsString() const override;
  void Serialize(ByteWriter* writer) const override;

  static Result<std::unique_ptr<RandomForest>> DeserializeBody(
      ByteReader* reader);

  size_t num_trees() const { return trees_.size(); }

  const RandomForestOptions& options() const { return options_; }

 private:
  RandomForestOptions options_;
  std::vector<int32_t> classes_;
  size_t num_features_ = 0;
  std::vector<std::unique_ptr<DecisionTree>> trees_;
};

}  // namespace mlcs::ml

#endif  // MLCS_ML_RANDOM_FOREST_H_
