#include "ml/split.h"

#include <numeric>

namespace mlcs::ml {

namespace {
std::vector<uint32_t> ShuffledIndices(size_t n, uint64_t seed) {
  std::vector<uint32_t> indices(n);
  std::iota(indices.begin(), indices.end(), 0);
  Rng rng(seed);
  for (size_t i = n; i > 1; --i) {
    size_t j = rng.NextBounded(i);
    std::swap(indices[i - 1], indices[j]);
  }
  return indices;
}
}  // namespace

Result<TrainTestIndices> TrainTestSplit(size_t n, double test_fraction,
                                        uint64_t seed) {
  if (n == 0) return Status::InvalidArgument("cannot split zero rows");
  if (test_fraction <= 0.0 || test_fraction >= 1.0) {
    return Status::InvalidArgument("test_fraction must be in (0, 1)");
  }
  std::vector<uint32_t> indices = ShuffledIndices(n, seed);
  size_t test_size = static_cast<size_t>(
      static_cast<double>(n) * test_fraction);
  test_size = std::min(std::max<size_t>(1, test_size), n - 1);
  TrainTestIndices out;
  out.test.assign(indices.begin(), indices.begin() + test_size);
  out.train.assign(indices.begin() + test_size, indices.end());
  return out;
}

Result<std::vector<TrainTestIndices>> KFold(size_t n, size_t k,
                                            uint64_t seed) {
  if (k < 2) return Status::InvalidArgument("k must be >= 2");
  if (n < k) return Status::InvalidArgument("fewer rows than folds");
  std::vector<uint32_t> indices = ShuffledIndices(n, seed);
  std::vector<TrainTestIndices> folds(k);
  size_t base = n / k, extra = n % k;
  size_t offset = 0;
  for (size_t f = 0; f < k; ++f) {
    size_t fold_size = base + (f < extra ? 1 : 0);
    folds[f].test.assign(indices.begin() + offset,
                         indices.begin() + offset + fold_size);
    folds[f].train.reserve(n - fold_size);
    folds[f].train.insert(folds[f].train.end(), indices.begin(),
                          indices.begin() + offset);
    folds[f].train.insert(folds[f].train.end(),
                          indices.begin() + offset + fold_size,
                          indices.end());
    offset += fold_size;
  }
  return folds;
}

}  // namespace mlcs::ml
