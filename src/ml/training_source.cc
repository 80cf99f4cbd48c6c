#include "ml/training_source.h"

#include "obs/metrics.h"

namespace mlcs::ml {

TrainingSource TrainingSource::FromMatrix(const Matrix& x) {
  TrainingSource source;
  source.rows_ = x.rows();
  source.rows_set_ = true;
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
    MLCS_RETURN_IF_ERROR(source.CheckRows(col->size()));
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

Status TrainingSource::CheckRows(size_t n) {
  if (!rows_set_) {
    rows_ = n;
    rows_set_ = true;
    return Status::OK();
  }
  if (n != rows_) {
    return Status::InvalidArgument(
        "training source length " + std::to_string(n) +
        " does not match row count " + std::to_string(rows_));
  }
  return Status::OK();
}

Status TrainingSource::AddDenseFeature(const std::vector<double>* column) {
  MLCS_RETURN_IF_ERROR(CheckRows(column->size()));
  Feature f;
  f.dense = column;
  features_.push_back(std::move(f));
  return Status::OK();
}

Status TrainingSource::AddOwnedDenseFeature(std::vector<double> column) {
  MLCS_RETURN_IF_ERROR(CheckRows(column.size()));
  Feature f;
  f.owned = std::move(column);
  features_.push_back(std::move(f));
  return Status::OK();
}

Status TrainingSource::SetKeys(std::vector<uint32_t> keys, size_t num_keys) {
  if (!keys_.empty()) {
    return Status::InvalidArgument("training source keys already set");
  }
  if (num_keys == 0) {
    return Status::InvalidArgument("training source needs at least one key");
  }
  MLCS_RETURN_IF_ERROR(CheckRows(keys.size()));
  for (uint32_t k : keys) {
    if (k >= num_keys) {
      return Status::InvalidArgument(
          "key code " + std::to_string(k) + " out of range [0, " +
          std::to_string(num_keys) + ")");
    }
  }
  keys_ = std::move(keys);
  num_keys_ = num_keys;
  return Status::OK();
}

Status TrainingSource::AddFactorizedFeature(std::vector<double> lut) {
  if (keys_.empty()) {
    return Status::InvalidArgument(
        "SetKeys must precede AddFactorizedFeature");
  }
  if (lut.size() != num_keys_) {
    return Status::InvalidArgument(
        "LUT size " + std::to_string(lut.size()) + " does not match key count " +
        std::to_string(num_keys_));
  }
  Feature f;
  f.lut = std::move(lut);
  f.is_factorized = true;
  features_.push_back(std::move(f));
  return Status::OK();
}

FeatureView TrainingSource::view(size_t f) const {
  const Feature& feature = features_[f];
  if (feature.is_factorized) {
    return FeatureView(nullptr, nullptr, feature.lut.data(), keys_.data(),
                       true);
  }
  if (feature.column != nullptr) {
    if (feature.column->type() == TypeId::kInt32) {
      return FeatureView(nullptr, feature.column->i32_data().data(), nullptr,
                         nullptr, false);
    }
    return FeatureView(feature.column->f64_data().data(), nullptr, nullptr,
                       nullptr, false);
  }
  const std::vector<double>& dense =
      feature.dense != nullptr ? *feature.dense : feature.owned;
  return FeatureView(dense.data(), nullptr, nullptr, nullptr, false);
}

std::vector<FeatureView> TrainingSource::views() const {
  std::vector<FeatureView> out;
  out.reserve(features_.size());
  for (size_t f = 0; f < features_.size(); ++f) out.push_back(view(f));
  return out;
}

Matrix TrainingSource::ToMatrix() const {
  Matrix m(rows_, features_.size());
  for (size_t f = 0; f < features_.size(); ++f) {
    FeatureView v = view(f);
    std::vector<double>& dst = m.column(f);
    for (size_t r = 0; r < rows_; ++r) dst[r] = v[r];
  }
  return m;
}

size_t TrainingSource::num_factorized() const {
  size_t count = 0;
  for (const Feature& f : features_) count += f.is_factorized ? 1 : 0;
  return count;
}

size_t TrainingSource::FactorizedBytes() const {
  size_t bytes = keys_.size() * sizeof(uint32_t);
  for (const Feature& f : features_) {
    if (f.column != nullptr && f.column->type() == TypeId::kInt32) {
      bytes += rows_ * sizeof(int32_t);
      continue;
    }
    bytes += (f.is_factorized ? num_keys_ : rows_) * sizeof(double);
  }
  return bytes;
}

void CountTrainingSourceFit(const TrainingSource& source) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("mlcs.factorized.fits")->Add(1);
  if (source.num_factorized() > 0) {
    registry.GetCounter("mlcs.factorized.factorized_fits")->Add(1);
  }
  registry.GetCounter("mlcs.factorized.source_bytes")
      ->Add(source.FactorizedBytes());
  registry.GetCounter("mlcs.factorized.materialized_bytes")
      ->Add(source.MaterializedBytes());
  registry.GetGauge("mlcs.factorized.peak_source_bytes")
      ->UpdateMax(static_cast<int64_t>(source.FactorizedBytes()));
}

}  // namespace mlcs::ml
