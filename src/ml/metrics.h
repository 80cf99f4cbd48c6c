#ifndef MLCS_ML_METRICS_H_
#define MLCS_ML_METRICS_H_

#include "common/result.h"
#include "ml/matrix.h"

namespace mlcs::ml {

/// Fraction of rows where prediction equals truth.
Result<double> Accuracy(const Labels& y_true, const Labels& y_pred);

}  // namespace mlcs::ml

#endif  // MLCS_ML_METRICS_H_
