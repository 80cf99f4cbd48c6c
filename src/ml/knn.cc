#include "ml/knn.h"

#include <algorithm>
#include <cmath>

namespace mlcs::ml {

Knn::Knn(KnnOptions options) : options_(options) {}

Status Knn::Fit(const Matrix& x, const Labels& y) {
  MLCS_RETURN_IF_ERROR(internal::CheckFitInputs(x, y));
  if (options_.k == 0) return Status::InvalidArgument("k must be positive");
  classes_ = internal::DistinctClasses(y);
  num_features_ = x.cols();
  size_t n = x.rows(), d = x.cols();

  mean_.assign(d, 0.0);
  std_.assign(d, 1.0);
  for (size_t c = 0; c < d; ++c) {
    FeatureView col = x.view(c);
    double sum = 0;
    for (size_t r = 0; r < n; ++r) sum += std::isnan(col[r]) ? 0.0 : col[r];
    mean_[c] = sum / static_cast<double>(n);
    double var = 0;
    for (size_t r = 0; r < n; ++r) {
      double e = (std::isnan(col[r]) ? 0.0 : col[r]) - mean_[c];
      var += e * e;
    }
    var /= static_cast<double>(n);
    std_[c] = var > 1e-12 ? std::sqrt(var) : 1.0;
  }
  train_ = Matrix(n, d);
  for (size_t c = 0; c < d; ++c) {
    FeatureView src = x.view(c);
    double* dst = train_.mutable_column(c);
    for (size_t r = 0; r < n; ++r) {
      double v = std::isnan(src[r]) ? 0.0 : src[r];
      dst[r] = (v - mean_[c]) / std_[c];
    }
  }
  train_labels_ = y;
  return Status::OK();
}

Result<std::vector<double>> Knn::PredictDistribution(
    const Matrix& x) const {
  MLCS_RETURN_IF_ERROR(
      internal::CheckPredictInputs(x, num_features_, fitted()));
  size_t n = x.rows(), d = x.cols(), m = train_.rows();
  size_t k = std::min(options_.k, m);
  size_t num_classes = classes_.size();
  std::vector<double> votes(n * num_classes, 0.0);
  std::vector<FeatureView> features = x.views();
  std::vector<FeatureView> train = train_.views();
  std::vector<std::pair<double, size_t>> distances(m);
  std::vector<double> probe(d);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < d; ++c) {
      double v = features[c][r];
      probe[c] = ((std::isnan(v) ? 0.0 : v) - mean_[c]) / std_[c];
    }
    for (size_t t = 0; t < m; ++t) {
      double dist = 0;
      for (size_t c = 0; c < d; ++c) {
        double e = probe[c] - train[c][t];
        dist += e * e;
      }
      distances[t] = {dist, t};
    }
    std::partial_sort(distances.begin(), distances.begin() + k,
                      distances.end());
    double* row = &votes[r * num_classes];
    for (size_t i = 0; i < k; ++i) {
      size_t t = distances[i].second;
      auto idx = internal::ClassIndex(classes_, train_labels_[t]);
      row[idx.ValueOr(0)] += 1.0;
    }
    for (size_t c = 0; c < num_classes; ++c) {
      row[c] /= static_cast<double>(k);
    }
  }
  return votes;
}

std::string Knn::ParamsString() const {
  return "k=" + std::to_string(options_.k);
}

void Knn::Serialize(ByteWriter* writer) const {
  writer->WriteVarint(options_.k);
  writer->WriteVarint(classes_.size());
  for (int32_t c : classes_) writer->WriteI32(c);
  writer->WriteVarint(num_features_);
  for (double v : mean_) writer->WriteDouble(v);
  for (double v : std_) writer->WriteDouble(v);
  writer->WriteVarint(train_.rows());
  for (size_t c = 0; c < train_.cols(); ++c) {
    FeatureView col = train_.view(c);
    for (size_t r = 0; r < train_.rows(); ++r) writer->WriteDouble(col[r]);
  }
  for (int32_t label : train_labels_) writer->WriteI32(label);
}

Result<std::unique_ptr<Knn>> Knn::DeserializeBody(ByteReader* reader) {
  KnnOptions options;
  MLCS_ASSIGN_OR_RETURN(uint64_t k, reader->ReadVarint());
  options.k = k;
  auto model = std::make_unique<Knn>(options);
  MLCS_ASSIGN_OR_RETURN(uint64_t num_classes,
                        reader->ReadCount(sizeof(int32_t), "class"));
  model->classes_.resize(num_classes);
  for (auto& c : model->classes_) {
    MLCS_ASSIGN_OR_RETURN(c, reader->ReadI32());
  }
  // Per feature: mean and std; per training row: d values and a label.
  MLCS_ASSIGN_OR_RETURN(uint64_t d, reader->ReadCount(16, "feature"));
  model->num_features_ = d;
  model->mean_.resize(d);
  model->std_.resize(d);
  for (auto& v : model->mean_) {
    MLCS_ASSIGN_OR_RETURN(v, reader->ReadDouble());
  }
  for (auto& v : model->std_) {
    MLCS_ASSIGN_OR_RETURN(v, reader->ReadDouble());
  }
  MLCS_ASSIGN_OR_RETURN(uint64_t rows,
                        reader->ReadCount(8 * d + 4, "training row"));
  model->train_ = Matrix(rows, d);
  for (size_t c = 0; c < d; ++c) {
    double* col = model->train_.mutable_column(c);
    for (size_t r = 0; r < rows; ++r) {
      MLCS_ASSIGN_OR_RETURN(col[r], reader->ReadDouble());
    }
  }
  model->train_labels_.resize(rows);
  for (auto& label : model->train_labels_) {
    MLCS_ASSIGN_OR_RETURN(label, reader->ReadI32());
  }
  return model;
}

}  // namespace mlcs::ml
