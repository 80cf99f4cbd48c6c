#include "ml/logistic_regression.h"

#include <cmath>

#include "common/random.h"

namespace mlcs::ml {

namespace {
double Sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }
}  // namespace

LogisticRegression::LogisticRegression(LogisticRegressionOptions options)
    : options_(options) {}

Status LogisticRegression::Fit(const Matrix& x, const Labels& y) {
  MLCS_RETURN_IF_ERROR(internal::CheckFitInputs(x, y));
  classes_ = internal::DistinctClasses(y);
  num_features_ = x.cols();
  size_t n = x.rows(), d = x.cols(), k = classes_.size();

  // Standardize (constant features get std 1 so they contribute nothing).
  // Per-row accumulation in row order through the views, so the
  // statistics do not depend on how the matrix was built.
  mean_.assign(d, 0.0);
  std_.assign(d, 1.0);
  // Standardized copy, NaN read as 0.
  std::vector<std::vector<double>> xs(d, std::vector<double>(n));
  for (size_t c = 0; c < d; ++c) {
    FeatureView col = x.view(c);
    double sum = 0;
    for (size_t r = 0; r < n; ++r) {
      double v = col[r];
      sum += std::isnan(v) ? 0.0 : v;
    }
    mean_[c] = sum / static_cast<double>(n);
    double var = 0;
    for (size_t r = 0; r < n; ++r) {
      double e = (std::isnan(col[r]) ? 0.0 : col[r]) - mean_[c];
      var += e * e;
    }
    var /= static_cast<double>(n);
    std_[c] = var > 1e-12 ? std::sqrt(var) : 1.0;
    std::vector<double>& dst = xs[c];
    for (size_t r = 0; r < n; ++r) {
      double v = std::isnan(col[r]) ? 0.0 : col[r];
      dst[r] = (v - mean_[c]) / std_[c];
    }
  }

  weights_.assign(k, std::vector<double>(d, 0.0));
  bias_.assign(k, 0.0);
  Rng rng(options_.seed);

  // One-vs-rest full-batch gradient descent per class.
  for (size_t cls = 0; cls < k; ++cls) {
    auto& w = weights_[cls];
    double& b = bias_[cls];
    std::vector<double> target(n);
    for (size_t r = 0; r < n; ++r) {
      target[r] = y[r] == classes_[cls] ? 1.0 : 0.0;
    }
    std::vector<double> margin(n), grad_w(d);
    for (int epoch = 0; epoch < options_.epochs; ++epoch) {
      // margin = Xw + b, column-major accumulation.
      std::fill(margin.begin(), margin.end(), b);
      for (size_t c = 0; c < d; ++c) {
        const std::vector<double>& col = xs[c];
        double wc = w[c];
        if (wc == 0.0) continue;
        for (size_t r = 0; r < n; ++r) margin[r] += wc * col[r];
      }
      // residual = sigmoid(margin) - target
      for (size_t r = 0; r < n; ++r) margin[r] = Sigmoid(margin[r]) - target[r];
      double inv_n = 1.0 / static_cast<double>(n);
      double grad_b = 0;
      for (size_t r = 0; r < n; ++r) grad_b += margin[r];
      grad_b *= inv_n;
      for (size_t c = 0; c < d; ++c) {
        const std::vector<double>& col = xs[c];
        double g = 0;
        for (size_t r = 0; r < n; ++r) g += margin[r] * col[r];
        grad_w[c] = g * inv_n + options_.l2 * w[c];
      }
      for (size_t c = 0; c < d; ++c) w[c] -= options_.learning_rate * grad_w[c];
      b -= options_.learning_rate * grad_b;
    }
  }
  return Status::OK();
}

Result<std::vector<double>> LogisticRegression::PredictDistribution(
    const Matrix& x) const {
  MLCS_RETURN_IF_ERROR(
      internal::CheckPredictInputs(x, num_features_, fitted()));
  size_t n = x.rows(), d = x.cols(), k = classes_.size();
  std::vector<double> scores(n * k, 0.0);
  std::vector<double> margin(n);
  for (size_t cls = 0; cls < k; ++cls) {
    std::fill(margin.begin(), margin.end(), bias_[cls]);
    for (size_t c = 0; c < d; ++c) {
      FeatureView col = x.view(c);
      double wc = weights_[cls][c];
      if (wc == 0.0) continue;
      double inv_std = 1.0 / std_[c];
      for (size_t r = 0; r < n; ++r) {
        double v = std::isnan(col[r]) ? 0.0 : col[r];
        margin[r] += wc * (v - mean_[c]) * inv_std;
      }
    }
    for (size_t r = 0; r < n; ++r) scores[r * k + cls] = Sigmoid(margin[r]);
  }
  // Normalize across classes so rows form a distribution.
  for (double* row = scores.data(); row != scores.data() + n * k; row += k) {
    double sum = 0;
    for (size_t c = 0; c < k; ++c) sum += row[c];
    if (sum > 0) {
      for (size_t c = 0; c < k; ++c) row[c] /= sum;
    } else {
      for (size_t c = 0; c < k; ++c) row[c] = 1.0 / static_cast<double>(k);
    }
  }
  return scores;
}

std::string LogisticRegression::ParamsString() const {
  return "learning_rate=" + std::to_string(options_.learning_rate) +
         " epochs=" + std::to_string(options_.epochs) +
         " l2=" + std::to_string(options_.l2);
}

void LogisticRegression::Serialize(ByteWriter* writer) const {
  writer->WriteDouble(options_.learning_rate);
  writer->WriteI32(options_.epochs);
  writer->WriteDouble(options_.l2);
  writer->WriteU64(options_.seed);
  writer->WriteVarint(classes_.size());
  for (int32_t c : classes_) writer->WriteI32(c);
  writer->WriteVarint(num_features_);
  for (double v : mean_) writer->WriteDouble(v);
  for (double v : std_) writer->WriteDouble(v);
  for (const auto& w : weights_) {
    for (double v : w) writer->WriteDouble(v);
  }
  for (double v : bias_) writer->WriteDouble(v);
}

Result<std::unique_ptr<LogisticRegression>>
LogisticRegression::DeserializeBody(ByteReader* reader) {
  LogisticRegressionOptions options;
  MLCS_ASSIGN_OR_RETURN(options.learning_rate, reader->ReadDouble());
  MLCS_ASSIGN_OR_RETURN(options.epochs, reader->ReadI32());
  MLCS_ASSIGN_OR_RETURN(options.l2, reader->ReadDouble());
  MLCS_ASSIGN_OR_RETURN(options.seed, reader->ReadU64());
  auto model = std::make_unique<LogisticRegression>(options);
  // Per class: its label and bias; per feature: mean, std and k weights.
  MLCS_ASSIGN_OR_RETURN(uint64_t k, reader->ReadCount(4 + 8, "class"));
  model->classes_.resize(k);
  for (auto& c : model->classes_) {
    MLCS_ASSIGN_OR_RETURN(c, reader->ReadI32());
  }
  MLCS_ASSIGN_OR_RETURN(uint64_t d, reader->ReadCount(16 + 8 * k, "feature"));
  model->num_features_ = d;
  model->mean_.resize(d);
  model->std_.resize(d);
  for (auto& v : model->mean_) {
    MLCS_ASSIGN_OR_RETURN(v, reader->ReadDouble());
  }
  for (auto& v : model->std_) {
    MLCS_ASSIGN_OR_RETURN(v, reader->ReadDouble());
  }
  model->weights_.assign(k, std::vector<double>(d));
  for (auto& w : model->weights_) {
    for (auto& v : w) {
      MLCS_ASSIGN_OR_RETURN(v, reader->ReadDouble());
    }
  }
  model->bias_.resize(k);
  for (auto& v : model->bias_) {
    MLCS_ASSIGN_OR_RETURN(v, reader->ReadDouble());
  }
  return model;
}

}  // namespace mlcs::ml
