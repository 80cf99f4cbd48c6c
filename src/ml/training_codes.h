#ifndef MLCS_ML_TRAINING_CODES_H_
#define MLCS_ML_TRAINING_CODES_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "ml/matrix.h"

namespace mlcs::ml {

/// A training set coded once per fit and shared by every tree grown on it
/// (DESIGN.md §4). Each feature's values map to order-preserving uint16
/// codes: code 0 holds NaN, codes 1..K hold ascending value ranges. A
/// feature with at most `max_codes` distinct values gets one code per
/// value, so splits on it are exact; a feature with more is cut into at
/// most `max_codes` equal-frequency ranges. Each feature keeps one code
/// per row. Labels become class indices here too.
///
/// Coding depends only on the values (never on a row order, a bootstrap
/// sample or the thread count).
class TrainingCodes {
 public:
  /// Most value codes one feature can hold (uint16 codes, 0 is NaN).
  static constexpr size_t kMaxValueCodes = 65535;

  /// Codes every feature of `x` with at most `max_codes` value codes each
  /// (clamped to [1, kMaxValueCodes]) and every label of `y` as an index
  /// into `classes`, which must be sorted and hold every label.
  /// `parallel` codes large inputs' features on the global pool.
  static Result<TrainingCodes> Build(const Matrix& x, const Labels& y,
                                     std::vector<int32_t> classes,
                                     size_t max_codes, bool parallel);

  size_t rows() const { return labels_.size(); }
  size_t cols() const { return features_.size(); }
  const std::vector<int32_t>& classes() const { return classes_; }
  /// Class index of every row.
  const std::vector<uint32_t>& labels() const { return labels_; }

  /// Per-row codes of feature `f`.
  const std::vector<uint16_t>& codes(size_t f) const {
    return features_[f].codes;
  }
  /// Codes of feature `f`, the NaN code included.
  size_t num_codes(size_t f) const { return features_[f].lo.size(); }

  /// The value threshold of a split that sends codes <= `left` left and
  /// codes >= `right` right (left < right, no code between them present):
  /// the midpoint of the gap between the two codes' value ranges. Every
  /// training value of a left code compares <= the threshold and every
  /// value of a right code compares >, so predicting on a training row
  /// walks the path it was grown on.
  double Threshold(size_t f, uint16_t left, uint16_t right) const;

 private:
  struct Feature {
    std::vector<uint16_t> codes;
    /// Smallest and largest value of each code ([0], NaN, holds NaN).
    std::vector<double> lo;
    std::vector<double> hi;
  };

  std::vector<int32_t> classes_;
  std::vector<uint32_t> labels_;
  std::vector<Feature> features_;
};

}  // namespace mlcs::ml

#endif  // MLCS_ML_TRAINING_CODES_H_
