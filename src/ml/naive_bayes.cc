#include "ml/naive_bayes.h"

#include <cmath>

namespace mlcs::ml {

NaiveBayes::NaiveBayes(NaiveBayesOptions options) : options_(options) {}

Status NaiveBayes::Fit(const Matrix& x, const Labels& y) {
  MLCS_RETURN_IF_ERROR(internal::CheckFitInputs(x, y));
  classes_ = internal::DistinctClasses(y);
  num_features_ = x.cols();
  size_t n = x.rows(), d = x.cols(), k = classes_.size();

  std::vector<double> counts(k, 0.0);
  mean_.assign(k, std::vector<double>(d, 0.0));
  var_.assign(k, std::vector<double>(d, 0.0));
  std::vector<size_t> cls_of_row(n);
  for (size_t r = 0; r < n; ++r) {
    MLCS_ASSIGN_OR_RETURN(size_t c, internal::ClassIndex(classes_, y[r]));
    cls_of_row[r] = c;
    counts[c] += 1.0;
  }
  for (size_t f = 0; f < d; ++f) {
    FeatureView col = x.view(f);
    for (size_t r = 0; r < n; ++r) {
      double v = std::isnan(col[r]) ? 0.0 : col[r];
      mean_[cls_of_row[r]][f] += v;
    }
  }
  for (size_t c = 0; c < k; ++c) {
    for (size_t f = 0; f < d; ++f) mean_[c][f] /= counts[c];
  }
  double max_var = 0;
  for (size_t f = 0; f < d; ++f) {
    FeatureView col = x.view(f);
    for (size_t r = 0; r < n; ++r) {
      double v = std::isnan(col[r]) ? 0.0 : col[r];
      double e = v - mean_[cls_of_row[r]][f];
      var_[cls_of_row[r]][f] += e * e;
    }
  }
  for (size_t c = 0; c < k; ++c) {
    for (size_t f = 0; f < d; ++f) {
      var_[c][f] /= counts[c];
      max_var = std::max(max_var, var_[c][f]);
    }
  }
  double eps = options_.var_smoothing * std::max(max_var, 1.0);
  for (auto& per_class : var_) {
    for (auto& v : per_class) v += eps;
  }
  log_prior_.resize(k);
  for (size_t c = 0; c < k; ++c) {
    log_prior_[c] = std::log(counts[c] / static_cast<double>(n));
  }
  return Status::OK();
}

Result<std::vector<double>> NaiveBayes::PredictDistribution(
    const Matrix& x) const {
  MLCS_RETURN_IF_ERROR(
      internal::CheckPredictInputs(x, num_features_, fitted()));
  size_t n = x.rows(), d = x.cols(), k = classes_.size();
  std::vector<double> log_post(n * k, 0.0);
  constexpr double kLog2Pi = 1.8378770664093453;
  for (size_t c = 0; c < k; ++c) {
    double base = log_prior_[c];
    for (size_t r = 0; r < n; ++r) log_post[r * k + c] = base;
    for (size_t f = 0; f < d; ++f) {
      FeatureView col = x.view(f);
      double m = mean_[c][f];
      double v = var_[c][f];
      double inv2v = 0.5 / v;
      double log_norm = -0.5 * (kLog2Pi + std::log(v));
      for (size_t r = 0; r < n; ++r) {
        double value = std::isnan(col[r]) ? 0.0 : col[r];
        double e = value - m;
        log_post[r * k + c] += log_norm - e * e * inv2v;
      }
    }
  }
  // Softmax per row (log-sum-exp stabilized).
  for (double* row = log_post.data(); row != log_post.data() + n * k;
       row += k) {
    double mx = row[0];
    for (size_t c = 0; c < k; ++c) mx = std::max(mx, row[c]);
    double sum = 0;
    for (size_t c = 0; c < k; ++c) {
      row[c] = std::exp(row[c] - mx);
      sum += row[c];
    }
    for (size_t c = 0; c < k; ++c) row[c] /= sum;
  }
  return log_post;
}

std::string NaiveBayes::ParamsString() const {
  return "var_smoothing=" + std::to_string(options_.var_smoothing);
}

void NaiveBayes::Serialize(ByteWriter* writer) const {
  writer->WriteDouble(options_.var_smoothing);
  writer->WriteVarint(classes_.size());
  for (int32_t c : classes_) writer->WriteI32(c);
  writer->WriteVarint(num_features_);
  for (double v : log_prior_) writer->WriteDouble(v);
  for (const auto& per_class : mean_) {
    for (double v : per_class) writer->WriteDouble(v);
  }
  for (const auto& per_class : var_) {
    for (double v : per_class) writer->WriteDouble(v);
  }
}

Result<std::unique_ptr<NaiveBayes>> NaiveBayes::DeserializeBody(
    ByteReader* reader) {
  NaiveBayesOptions options;
  MLCS_ASSIGN_OR_RETURN(options.var_smoothing, reader->ReadDouble());
  auto model = std::make_unique<NaiveBayes>(options);
  // Per class: its label and log prior; per feature: k means, k variances.
  MLCS_ASSIGN_OR_RETURN(uint64_t k, reader->ReadCount(4 + 8, "class"));
  model->classes_.resize(k);
  for (auto& c : model->classes_) {
    MLCS_ASSIGN_OR_RETURN(c, reader->ReadI32());
  }
  MLCS_ASSIGN_OR_RETURN(uint64_t d, reader->ReadCount(16 * k, "feature"));
  model->num_features_ = d;
  model->log_prior_.resize(k);
  for (auto& v : model->log_prior_) {
    MLCS_ASSIGN_OR_RETURN(v, reader->ReadDouble());
  }
  model->mean_.assign(k, std::vector<double>(d));
  for (auto& per_class : model->mean_) {
    for (auto& v : per_class) {
      MLCS_ASSIGN_OR_RETURN(v, reader->ReadDouble());
    }
  }
  model->var_.assign(k, std::vector<double>(d));
  for (auto& per_class : model->var_) {
    for (auto& v : per_class) {
      MLCS_ASSIGN_OR_RETURN(v, reader->ReadDouble());
    }
  }
  return model;
}

}  // namespace mlcs::ml
