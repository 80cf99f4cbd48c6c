#ifndef MLCS_ML_SPLIT_H_
#define MLCS_ML_SPLIT_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/result.h"

namespace mlcs::ml {

struct TrainTestIndices {
  std::vector<uint32_t> train;
  std::vector<uint32_t> test;
};

/// Shuffled split of [0, n) into train/test by `test_fraction` (paper §4
/// "divide the data into a training set and a test set"). Deterministic
/// given the seed.
Result<TrainTestIndices> TrainTestSplit(size_t n, double test_fraction,
                                        uint64_t seed = 42);

/// K-fold partition: fold i is the test set of split i, the rest train.
/// All folds are disjoint and cover [0, n).
Result<std::vector<TrainTestIndices>> KFold(size_t n, size_t k,
                                            uint64_t seed = 42);

}  // namespace mlcs::ml

#endif  // MLCS_ML_SPLIT_H_
