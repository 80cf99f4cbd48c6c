#include "ml/metrics.h"

namespace mlcs::ml {

namespace {
Status CheckSameLength(size_t a, size_t b) {
  if (a != b) {
    return Status::InvalidArgument("label vectors have different lengths: " +
                                   std::to_string(a) + " vs " +
                                   std::to_string(b));
  }
  if (a == 0) {
    return Status::InvalidArgument("label vectors are empty");
  }
  return Status::OK();
}
}  // namespace

Result<double> Accuracy(const Labels& y_true, const Labels& y_pred) {
  MLCS_RETURN_IF_ERROR(CheckSameLength(y_true.size(), y_pred.size()));
  size_t hits = 0;
  for (size_t i = 0; i < y_true.size(); ++i) {
    if (y_true[i] == y_pred[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(y_true.size());
}

}  // namespace mlcs::ml
