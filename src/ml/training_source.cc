#include "ml/training_source.h"

namespace mlcs::ml {

TrainingSource TrainingSource::FromMatrix(const Matrix& x) {
  TrainingSource source;
  source.rows_ = x.rows();
  source.features_.reserve(x.cols());
  for (size_t c = 0; c < x.cols(); ++c) {
    Feature f;
    f.dense = &x.column(c);
    source.features_.push_back(std::move(f));
  }
  return source;
}

Result<TrainingSource> TrainingSource::FromColumns(
    const std::vector<ColumnPtr>& columns) {
  TrainingSource source;
  source.features_.reserve(columns.size());
  for (const ColumnPtr& col : columns) {
    if (col == nullptr) return Status::InvalidArgument("null column");
    if (source.features_.empty()) {
      source.rows_ = col->size();
    } else if (col->size() != source.rows_) {
      return Status::InvalidArgument(
          "training source length " + std::to_string(col->size()) +
          " does not match row count " + std::to_string(source.rows_));
    }
    Feature f;
    bool in_place = !col->is_encoded() && !col->has_nulls() &&
                    (col->type() == TypeId::kInt32 ||
                     col->type() == TypeId::kDouble);
    if (in_place) {
      f.column = col;
    } else {
      MLCS_ASSIGN_OR_RETURN(f.owned, col->ToDoubleVector());
    }
    source.features_.push_back(std::move(f));
  }
  return source;
}

FeatureView TrainingSource::view(size_t f) const {
  const Feature& feature = features_[f];
  if (feature.column != nullptr) {
    if (feature.column->type() == TypeId::kInt32) {
      return FeatureView(nullptr, feature.column->i32_data().data());
    }
    return FeatureView(feature.column->f64_data().data(), nullptr);
  }
  const std::vector<double>& dense =
      feature.dense != nullptr ? *feature.dense : feature.owned;
  return FeatureView(dense.data(), nullptr);
}

std::vector<FeatureView> TrainingSource::views() const {
  std::vector<FeatureView> out;
  out.reserve(features_.size());
  for (size_t f = 0; f < features_.size(); ++f) out.push_back(view(f));
  return out;
}

}  // namespace mlcs::ml
