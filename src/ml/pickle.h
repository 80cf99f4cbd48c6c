#ifndef MLCS_ML_PICKLE_H_
#define MLCS_ML_PICKLE_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "ml/model.h"

namespace mlcs::ml::pickle {

/// Serializes a fitted (or unfitted) model to bytes — the analogue of
/// Python's `pickle.dumps(clf)` in the paper's Listing 1. The result is
/// what gets stored in a BLOB column.
std::string Dumps(const Model& model);

/// Reconstructs a model from bytes — `pickle.loads(classifier)` in
/// Listing 2. Rejects unknown type tags, truncated payloads and trailing
/// bytes, so each model has exactly one BLOB.
Result<ModelPtr> Loads(const std::string& bytes);

}  // namespace mlcs::ml::pickle

#endif  // MLCS_ML_PICKLE_H_
