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
    const auto& col = x.column(f);
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
    const auto& col = x.column(f);
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

Result<std::vector<std::vector<double>>> NaiveBayes::Posteriors(
    const Matrix& x) const {
  MLCS_RETURN_IF_ERROR(
      internal::CheckPredictInputs(x, num_features_, fitted()));
  size_t n = x.rows(), d = x.cols(), k = classes_.size();
  std::vector<std::vector<double>> log_post(n,
                                            std::vector<double>(k, 0.0));
  constexpr double kLog2Pi = 1.8378770664093453;
  for (size_t c = 0; c < k; ++c) {
    double base = log_prior_[c];
    for (size_t r = 0; r < n; ++r) log_post[r][c] = base;
    for (size_t f = 0; f < d; ++f) {
      const auto& col = x.column(f);
      double m = mean_[c][f];
      double v = var_[c][f];
      double inv2v = 0.5 / v;
      double log_norm = -0.5 * (kLog2Pi + std::log(v));
      for (size_t r = 0; r < n; ++r) {
        double value = std::isnan(col[r]) ? 0.0 : col[r];
        double e = value - m;
        log_post[r][c] += log_norm - e * e * inv2v;
      }
    }
  }
  // Softmax per row (log-sum-exp stabilized).
  for (auto& row : log_post) {
    double mx = row[0];
    for (double v : row) mx = std::max(mx, v);
    double sum = 0;
    for (double& v : row) {
      v = std::exp(v - mx);
      sum += v;
    }
    for (double& v : row) v /= sum;
  }
  return log_post;
}

Result<Labels> NaiveBayes::Predict(const Matrix& x) const {
  MLCS_ASSIGN_OR_RETURN(auto post, Posteriors(x));
  Labels out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    size_t best = 0;
    for (size_t c = 1; c < classes_.size(); ++c) {
      if (post[r][c] > post[r][best]) best = c;
    }
    out[r] = classes_[best];
  }
  return out;
}

Result<std::vector<double>> NaiveBayes::PredictProba(const Matrix& x,
                                                     int32_t cls) const {
  MLCS_ASSIGN_OR_RETURN(size_t idx, internal::ClassIndex(classes_, cls));
  MLCS_ASSIGN_OR_RETURN(auto post, Posteriors(x));
  std::vector<double> out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) out[r] = post[r][idx];
  return out;
}

Result<std::vector<double>> NaiveBayes::PredictConfidence(
    const Matrix& x) const {
  MLCS_ASSIGN_OR_RETURN(auto post, Posteriors(x));
  std::vector<double> out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    double best = 0;
    for (double v : post[r]) best = std::max(best, v);
    out[r] = best;
  }
  return out;
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
