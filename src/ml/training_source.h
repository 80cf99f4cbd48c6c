#ifndef MLCS_ML_TRAINING_SOURCE_H_
#define MLCS_ML_TRAINING_SOURCE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "ml/matrix.h"

namespace mlcs::ml {

/// Read access to one feature of a TrainingSource: a per-row array of
/// doubles, or of int32 (an INTEGER table column read in place). `view[r]`
/// returns the exact double Matrix::FromColumns would hold at row r, so
/// every trainer reads the same operands whichever way the source was built.
class FeatureView {
 public:
  FeatureView() = default;

  double operator[](size_t r) const {
    return dense_ != nullptr ? dense_[r] : static_cast<double>(i32_[r]);
  }
  /// The int32 values of an INTEGER column read in place; null when the
  /// view reads doubles.
  const int32_t* i32() const { return i32_; }

 private:
  friend class TrainingSource;
  FeatureView(const double* dense, const int32_t* i32)
      : dense_(dense), i32_(i32) {}

  const double* dense_ = nullptr;
  const int32_t* i32_ = nullptr;
};

/// The dense feature input every model fits and predicts from (DESIGN.md
/// §14): n rows × d features, like a Matrix, but able to borrow table
/// columns without copying them. Build it by borrowing a Matrix
/// (FromMatrix — Model::Fit/Predict and the external channels' path) or
/// table columns (FromColumns — the in-database UDFs, which never build a
/// Matrix). Models read it through FeatureView (Model::FitSource,
/// Model::PredictDistribution).
class TrainingSource {
 public:
  TrainingSource() = default;
  TrainingSource(TrainingSource&&) = default;
  TrainingSource& operator=(TrainingSource&&) = default;
  TrainingSource(const TrainingSource&) = delete;
  TrainingSource& operator=(const TrainingSource&) = delete;

  /// Dense view over an existing matrix. Borrows the columns — `x` must
  /// outlive the source.
  static TrainingSource FromMatrix(const Matrix& x);
  /// Dense view over numeric table columns of equal length. A plain,
  /// null-free INTEGER or DOUBLE column is read in place (the source keeps
  /// a reference to it); any other numeric column is converted to doubles
  /// once (NULL → NaN), as Matrix::FromColumns would.
  static Result<TrainingSource> FromColumns(
      const std::vector<ColumnPtr>& columns);

  size_t rows() const { return rows_; }
  size_t cols() const { return features_.size(); }
  FeatureView view(size_t f) const;
  /// view(f) for every feature, in order.
  std::vector<FeatureView> views() const;

 private:
  struct Feature {
    const std::vector<double>* dense = nullptr;  // borrowed when set
    ColumnPtr column;  // borrowed plain INTEGER or DOUBLE column when set
    std::vector<double> owned;  // converted copy otherwise
  };

  size_t rows_ = 0;
  std::vector<Feature> features_;
};

}  // namespace mlcs::ml

#endif  // MLCS_ML_TRAINING_SOURCE_H_
