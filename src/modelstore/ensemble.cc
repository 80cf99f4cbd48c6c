#include "modelstore/ensemble.h"

#include <map>

namespace mlcs::modelstore {

namespace {
Status CheckModels(const std::vector<ml::ModelPtr>& models) {
  if (models.empty()) {
    return Status::InvalidArgument("ensemble needs at least one model");
  }
  for (const auto& m : models) {
    if (m == nullptr || !m->fitted()) {
      return Status::InvalidArgument("ensemble contains an unfitted model");
    }
  }
  return Status::OK();
}

/// The highest-confidence model per row, from one distribution per model;
/// also keeps every model's labels when `labels` is set.
Result<std::vector<size_t>> Winners(const std::vector<ml::ModelPtr>& models,
                                    const ml::Matrix& x,
                                    std::vector<ml::Labels>* labels) {
  MLCS_RETURN_IF_ERROR(CheckModels(models));
  std::vector<std::vector<double>> confidences(models.size());
  if (labels != nullptr) labels->resize(models.size());
  for (size_t m = 0; m < models.size(); ++m) {
    MLCS_ASSIGN_OR_RETURN(std::vector<double> dist,
                          models[m]->PredictDistribution(x));
    confidences[m] = models[m]->ConfidencesOf(dist);
    if (labels != nullptr) (*labels)[m] = models[m]->LabelsOf(dist);
  }
  std::vector<size_t> winner(x.rows(), 0);
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t m = 1; m < models.size(); ++m) {
      if (confidences[m][r] > confidences[winner[r]][r]) winner[r] = m;
    }
  }
  return winner;
}

}  // namespace

Result<std::vector<size_t>> WinningModelPerRow(
    const std::vector<ml::ModelPtr>& models, const ml::Matrix& x) {
  return Winners(models, x, nullptr);
}

Result<ml::Labels> PredictHighestConfidence(
    const std::vector<ml::ModelPtr>& models, const ml::Matrix& x) {
  std::vector<ml::Labels> predictions;
  MLCS_ASSIGN_OR_RETURN(std::vector<size_t> winner,
                        Winners(models, x, &predictions));
  ml::Labels out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) out[r] = predictions[winner[r]][r];
  return out;
}

Result<ml::Labels> PredictMajorityVote(
    const std::vector<ml::ModelPtr>& models, const ml::Matrix& x) {
  MLCS_RETURN_IF_ERROR(CheckModels(models));
  std::vector<ml::Labels> predictions(models.size());
  for (size_t m = 0; m < models.size(); ++m) {
    MLCS_ASSIGN_OR_RETURN(predictions[m], models[m]->Predict(x));
  }
  ml::Labels out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    std::map<int32_t, int> votes;
    for (size_t m = 0; m < models.size(); ++m) {
      ++votes[predictions[m][r]];
    }
    // Highest count; ties go to the earliest model's prediction.
    int best_count = -1;
    int32_t best_label = predictions[0][r];
    for (size_t m = 0; m < models.size(); ++m) {
      int32_t label = predictions[m][r];
      if (votes[label] > best_count) {
        best_count = votes[label];
        best_label = label;
      }
    }
    out[r] = best_label;
  }
  return out;
}

}  // namespace mlcs::modelstore
