#ifndef MLCS_ML_MATRIX_H_
#define MLCS_ML_MATRIX_H_

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/column.h"

namespace mlcs::ml {

/// Class labels. Arbitrary int32 values; models remap them internally.
using Labels = std::vector<int32_t>;

/// Read access to one feature of a Matrix: a per-row array of doubles, or
/// of int32 (an INTEGER table column read in place). `view[r]` is the
/// double Matrix::At(r, f) returns, so every model reads the same operands
/// whichever way the matrix was built.
class FeatureView {
 public:
  FeatureView() = default;

  double operator[](size_t r) const {
    return f64_ != nullptr ? f64_[r] : static_cast<double>(i32_[r]);
  }
  /// The doubles the view reads; null when it reads int32.
  const double* f64() const { return f64_; }
  /// The int32 values of an INTEGER column read in place; null when the
  /// view reads doubles.
  const int32_t* i32() const { return i32_; }

 private:
  friend class Matrix;
  FeatureView(const double* f64, const int32_t* i32) : f64_(f64), i32_(i32) {}

  const double* f64_ = nullptr;
  const int32_t* i32_ = nullptr;
};

/// The dense feature input every model fits and predicts from (DESIGN.md
/// §14): n rows × d features, column-major like the column store. Each
/// feature is either a table column read in place (FromColumns, for a
/// plain null-free INTEGER or DOUBLE column; the matrix shares ownership
/// of it, so it stays readable after its table is gone) or owned doubles
/// (Matrix(rows, cols), CopyColumns, SelectRows). Only owned features are
/// writable. Models read features through FeatureView.
class Matrix {
 public:
  Matrix() = default;
  /// rows × cols owned zeros.
  Matrix(size_t rows, size_t cols)
      : rows_(rows),
        features_(cols, Feature{nullptr, std::vector<double>(rows, 0.0)}) {}

  /// Numeric columns of equal length. A plain, null-free INTEGER or
  /// DOUBLE column is read in place; any other numeric column is converted
  /// to owned doubles once (NULL → NaN).
  static Result<Matrix> FromColumns(const std::vector<ColumnPtr>& columns);
  /// Numeric columns of equal length, every one converted to owned doubles
  /// (NULL → NaN) — the dataframe's `df.values` copy.
  static Result<Matrix> CopyColumns(const std::vector<ColumnPtr>& columns);

  size_t rows() const { return rows_; }
  size_t cols() const { return features_.size(); }

  FeatureView view(size_t c) const {
    const Feature& f = features_[c];
    if (f.column == nullptr) return FeatureView(f.owned.data(), nullptr);
    if (f.column->type() == TypeId::kInt32) {
      return FeatureView(nullptr, f.column->i32_data().data());
    }
    return FeatureView(f.column->f64_data().data(), nullptr);
  }
  /// view(c) for every feature, in order.
  std::vector<FeatureView> views() const;

  double At(size_t r, size_t c) const { return view(c)[r]; }
  /// Writes one value of an owned feature.
  void Set(size_t r, size_t c, double v) { mutable_column(c)[r] = v; }
  /// The rows() doubles of owned feature `c`. Aborts on a feature read in
  /// place: those are read-only.
  double* mutable_column(size_t c) {
    if (features_[c].column != nullptr) std::abort();
    return features_[c].owned.data();
  }

  /// Row-gather into a new matrix of owned features.
  Matrix SelectRows(const std::vector<uint32_t>& indices) const;

 private:
  struct Feature {
    ColumnPtr column;  // plain INTEGER or DOUBLE column read in place if set
    std::vector<double> owned;  // the values otherwise
  };

  static Result<Matrix> Build(const std::vector<ColumnPtr>& columns,
                              bool in_place);

  size_t rows_ = 0;
  std::vector<Feature> features_;
};

}  // namespace mlcs::ml

#endif  // MLCS_ML_MATRIX_H_
