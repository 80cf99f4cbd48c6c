#include "ml/matrix.h"

namespace mlcs::ml {

Result<Matrix> Matrix::FromColumns(const std::vector<ColumnPtr>& columns) {
  return Build(columns, /*in_place=*/true);
}

Result<Matrix> Matrix::CopyColumns(const std::vector<ColumnPtr>& columns) {
  return Build(columns, /*in_place=*/false);
}

Result<Matrix> Matrix::Build(const std::vector<ColumnPtr>& columns,
                             bool in_place) {
  Matrix m;
  m.features_.reserve(columns.size());
  for (const ColumnPtr& col : columns) {
    if (col == nullptr) return Status::InvalidArgument("null column");
    if (m.features_.empty()) {
      m.rows_ = col->size();
    } else if (col->size() != m.rows_) {
      return Status::InvalidArgument(
          "column length " + std::to_string(col->size()) +
          " does not match matrix rows " + std::to_string(m.rows_));
    }
    Feature f;
    if (in_place && !col->has_nulls() &&
        (col->type() == TypeId::kInt32 || col->type() == TypeId::kDouble)) {
      f.column = col;
    } else {
      MLCS_ASSIGN_OR_RETURN(f.owned, col->ToDoubleVector());
    }
    m.features_.push_back(std::move(f));
  }
  return m;
}

std::vector<FeatureView> Matrix::views() const {
  std::vector<FeatureView> out;
  out.reserve(features_.size());
  for (size_t c = 0; c < features_.size(); ++c) out.push_back(view(c));
  return out;
}

Matrix Matrix::SelectRows(const std::vector<uint32_t>& indices) const {
  Matrix out(indices.size(), cols());
  for (size_t c = 0; c < cols(); ++c) {
    FeatureView src = view(c);
    double* dst = out.mutable_column(c);
    for (size_t i = 0; i < indices.size(); ++i) dst[i] = src[indices[i]];
  }
  return out;
}

}  // namespace mlcs::ml
