#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace mlcs::ml {

namespace {

/// Gini impurity of a class-count histogram with `total` samples.
double Gini(const std::vector<double>& counts, double total) {
  if (total <= 0) return 0;
  double sum_sq = 0;
  for (double c : counts) sum_sq += c * c;
  return 1.0 - sum_sq / (total * total);
}

}  // namespace

DecisionTree::DecisionTree(DecisionTreeOptions options)
    : options_(options) {}

Status DecisionTree::Fit(const Matrix& x, const Labels& y) {
  MLCS_RETURN_IF_ERROR(internal::CheckFitInputs(x, y));
  return FitSource(TrainingSource::FromMatrix(x), y);
}

Status DecisionTree::FitOnRows(const Matrix& x, const Labels& y,
                               const std::vector<uint32_t>& rows,
                               const std::vector<int32_t>& class_set) {
  return FitSourceOnRows(TrainingSource::FromMatrix(x), y, rows, class_set);
}

Status DecisionTree::FitSource(const TrainingSource& x, const Labels& y) {
  MLCS_RETURN_IF_ERROR(internal::CheckFitInputs(x, y));
  std::vector<uint32_t> rows(x.rows());
  std::iota(rows.begin(), rows.end(), 0);
  MLCS_RETURN_IF_ERROR(
      FitSourceOnRows(x, y, rows, internal::DistinctClasses(y)));
  CountTrainingSourceFit(x);
  return Status::OK();
}

Status DecisionTree::FitSourceOnRows(const TrainingSource& x, const Labels& y,
                                     const std::vector<uint32_t>& rows,
                                     const std::vector<int32_t>& class_set) {
  if (rows.empty()) {
    return Status::InvalidArgument("cannot fit a tree on zero rows");
  }
  if (class_set.empty()) {
    return Status::InvalidArgument("empty class set");
  }
  classes_ = class_set;
  num_features_ = x.cols();
  nodes_.clear();
  feature_importances_.assign(num_features_, 0.0);
  std::vector<uint32_t> work(rows);
  Rng rng(options_.seed);
  BuildNode(x, y, work, /*depth=*/0, rng);
  double total = 0;
  for (double v : feature_importances_) total += v;
  if (total > 0) {
    for (double& v : feature_importances_) v /= total;
  }
  return Status::OK();
}

uint32_t DecisionTree::MakeLeaf(const Labels& y,
                                const std::vector<uint32_t>& rows) {
  Node node;
  node.probs.assign(classes_.size(), 0.0f);
  for (uint32_t r : rows) {
    auto idx = internal::ClassIndex(classes_, y[r]);
    if (idx.ok()) node.probs[idx.ValueOrDie()] += 1.0f;
  }
  float total = 0;
  for (float p : node.probs) total += p;
  if (total > 0) {
    for (float& p : node.probs) p /= total;
  }
  nodes_.push_back(std::move(node));
  return static_cast<uint32_t>(nodes_.size() - 1);
}

uint32_t DecisionTree::BuildNode(const TrainingSource& x, const Labels& y,
                                 std::vector<uint32_t>& rows, int depth,
                                 Rng& rng) {
  // Stopping conditions → leaf.
  bool pure = true;
  for (size_t i = 1; i < rows.size(); ++i) {
    if (y[rows[i]] != y[rows[0]]) {
      pure = false;
      break;
    }
  }
  if (pure || depth >= options_.max_depth ||
      rows.size() < options_.min_samples_split) {
    return MakeLeaf(y, rows);
  }

  // Candidate features (random subset for forests).
  std::vector<size_t> features(num_features_);
  std::iota(features.begin(), features.end(), 0);
  size_t k = options_.max_features == 0
                 ? num_features_
                 : std::min(options_.max_features, num_features_);
  if (k < num_features_) {
    // Partial Fisher-Yates: the first k entries become the sample.
    for (size_t i = 0; i < k; ++i) {
      size_t j = i + rng.NextBounded(num_features_ - i);
      std::swap(features[i], features[j]);
    }
    features.resize(k);
  }

  SplitResult best = FindBestSplit(x, y, rows, features);
  if (!best.found) return MakeLeaf(y, rows);

  // Partition rows (NaN → left).
  std::vector<uint32_t> left_rows, right_rows;
  FeatureView col = x.view(best.feature);
  for (uint32_t r : rows) {
    double v = col[r];
    if (std::isnan(v) || v <= best.threshold) {
      left_rows.push_back(r);
    } else {
      right_rows.push_back(r);
    }
  }
  if (left_rows.size() < options_.min_samples_leaf ||
      right_rows.size() < options_.min_samples_leaf) {
    return MakeLeaf(y, rows);
  }
  feature_importances_[best.feature] +=
      best.impurity_decrease * static_cast<double>(rows.size());
  rows.clear();
  rows.shrink_to_fit();  // free before recursing

  Node node;
  node.feature = static_cast<int32_t>(best.feature);
  node.threshold = best.threshold;
  nodes_.push_back(node);
  uint32_t self = static_cast<uint32_t>(nodes_.size() - 1);
  uint32_t left = BuildNode(x, y, left_rows, depth + 1, rng);
  uint32_t right = BuildNode(x, y, right_rows, depth + 1, rng);
  nodes_[self].left = left;
  nodes_[self].right = right;
  return self;
}

DecisionTree::SplitResult DecisionTree::FindBestSplit(
    const TrainingSource& x, const Labels& y,
    const std::vector<uint32_t>& rows,
    const std::vector<size_t>& features) const {
  SplitResult best;
  // One group-by below the join per node: the per-key class counts feed
  // every factorized candidate's splitter, so d dimension features cost
  // one O(rows) counting pass plus d × O(keys) statistic scans instead of
  // d × O(rows) value scans.
  std::vector<int64_t> key_counts;
  bool any_factorized = false;
  for (size_t f : features) any_factorized |= x.factorized(f);
  if (any_factorized) {
    const uint32_t* keys = x.keys();
    size_t num_classes = classes_.size();
    key_counts.assign(x.num_keys() * num_classes, 0);
    for (uint32_t r : rows) {
      size_t cls = internal::ClassIndex(classes_, y[r]).ValueOr(0);
      key_counts[keys[r] * num_classes + cls] += 1;
    }
  }
  for (size_t f : features) {
    SplitResult cand;
    if (x.factorized(f)) {
      cand = options_.exact_splits
                 ? BestSplitExactAgg(x.lut(f), key_counts, f)
                 : BestSplitHistogramAgg(x.lut(f), key_counts, f);
    } else {
      FeatureView col = x.view(f);
      cand = options_.exact_splits ? BestSplitExact(col, y, rows, f)
                                   : BestSplitHistogram(col, y, rows, f);
    }
    if (cand.found &&
        (!best.found || cand.impurity_decrease > best.impurity_decrease)) {
      best = cand;
    }
  }
  return best;
}

DecisionTree::SplitResult DecisionTree::ScanHistogram(
    const std::vector<double>& counts, size_t bins, double lo, double hi,
    size_t feature) const {
  SplitResult out;
  size_t num_classes = classes_.size();
  // Scan split boundaries between bins with prefix sums.
  std::vector<double> left_counts(num_classes, 0.0);
  std::vector<double> total_counts(num_classes, 0.0);
  double total = 0;
  for (size_t b = 0; b < bins; ++b) {
    for (size_t c = 0; c < num_classes; ++c) {
      total_counts[c] += counts[b * num_classes + c];
    }
  }
  for (double c : total_counts) total += c;
  double parent_impurity = Gini(total_counts, total);

  double left_total = 0;
  for (size_t b = 0; b + 1 < bins; ++b) {
    for (size_t c = 0; c < num_classes; ++c) {
      left_counts[c] += counts[b * num_classes + c];
      left_total += counts[b * num_classes + c];
    }
    if (left_total == 0 || left_total == total) continue;
    std::vector<double> right_counts(num_classes);
    for (size_t c = 0; c < num_classes; ++c) {
      right_counts[c] = total_counts[c] - left_counts[c];
    }
    double right_total = total - left_total;
    double weighted = (left_total / total) * Gini(left_counts, left_total) +
                      (right_total / total) * Gini(right_counts, right_total);
    double decrease = parent_impurity - weighted;
    if (decrease > 1e-12 && (!out.found || decrease > out.impurity_decrease)) {
      out.found = true;
      out.feature = feature;
      out.threshold = lo + (static_cast<double>(b + 1) / bins) * (hi - lo);
      out.impurity_decrease = decrease;
    }
  }
  return out;
}

DecisionTree::SplitResult DecisionTree::BestSplitHistogram(
    const FeatureView& col, const Labels& y,
    const std::vector<uint32_t>& rows, size_t feature) const {
  SplitResult out;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (uint32_t r : rows) {
    double v = col[r];
    if (std::isnan(v)) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (!(hi > lo)) return out;  // constant (or all-NaN) feature

  size_t bins = static_cast<size_t>(options_.num_bins);
  size_t num_classes = classes_.size();
  // counts[bin * num_classes + class]
  std::vector<double> counts(bins * num_classes, 0.0);
  double scale = static_cast<double>(bins) / (hi - lo);
  for (uint32_t r : rows) {
    double v = col[r];
    size_t bin;
    if (std::isnan(v)) {
      bin = 0;  // NaN routes left, i.e. lowest bin
    } else {
      bin = std::min(bins - 1, static_cast<size_t>((v - lo) * scale));
    }
    size_t cls = static_cast<size_t>(
        internal::ClassIndex(classes_, y[r]).ValueOr(0));
    counts[bin * num_classes + cls] += 1.0;
  }
  return ScanHistogram(counts, bins, lo, hi, feature);
}

DecisionTree::SplitResult DecisionTree::BestSplitHistogramAgg(
    const std::vector<double>& lut, const std::vector<int64_t>& key_counts,
    size_t feature) const {
  SplitResult out;
  size_t num_classes = classes_.size();
  size_t num_keys = lut.size();
  // Per-key totals: keys absent from this node contribute nothing (they
  // would not appear in a per-row scan either).
  std::vector<int64_t> key_totals(num_keys, 0);
  for (size_t k = 0; k < num_keys; ++k) {
    for (size_t c = 0; c < num_classes; ++c) {
      key_totals[k] += key_counts[k * num_classes + c];
    }
  }
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (size_t k = 0; k < num_keys; ++k) {
    double v = lut[k];
    if (key_totals[k] == 0 || std::isnan(v)) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (!(hi > lo)) return out;

  size_t bins = static_cast<size_t>(options_.num_bins);
  std::vector<double> counts(bins * num_classes, 0.0);
  double scale = static_cast<double>(bins) / (hi - lo);
  for (size_t k = 0; k < num_keys; ++k) {
    if (key_totals[k] == 0) continue;
    double v = lut[k];
    size_t bin;
    if (std::isnan(v)) {
      bin = 0;
    } else {
      bin = std::min(bins - 1, static_cast<size_t>((v - lo) * scale));
    }
    // Integer-valued doubles: adding the key's count at once lands on the
    // same histogram the per-row loop builds by repeated += 1.0.
    for (size_t c = 0; c < num_classes; ++c) {
      counts[bin * num_classes + c] +=
          static_cast<double>(key_counts[k * num_classes + c]);
    }
  }
  return ScanHistogram(counts, bins, lo, hi, feature);
}

DecisionTree::SplitResult DecisionTree::BestSplitExactAgg(
    const std::vector<double>& lut, const std::vector<int64_t>& key_counts,
    size_t feature) const {
  SplitResult out;
  size_t num_classes = classes_.size();
  size_t num_keys = lut.size();
  // Present keys sorted by LUT value, NaN first — the key-level image of
  // the per-row sort; equal values merge into one group below, exactly
  // the spans the row scan never splits.
  std::vector<uint32_t> order;
  for (size_t k = 0; k < num_keys; ++k) {
    int64_t present = 0;
    for (size_t c = 0; c < num_classes; ++c) {
      present += key_counts[k * num_classes + c];
    }
    if (present > 0) order.push_back(static_cast<uint32_t>(k));
  }
  if (order.empty()) return out;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    double va = lut[a], vb = lut[b];
    bool na = std::isnan(va), nb = std::isnan(vb);
    if (na != nb) return na;
    return va < vb;
  });

  std::vector<double> values;           // one entry per distinct-value group
  std::vector<double> counts;           // [group * num_classes + class]
  std::vector<double> group_totals;
  for (uint32_t k : order) {
    double v = lut[k];
    bool merge = !values.empty() &&
                 ((std::isnan(v) && std::isnan(values.back())) ||
                  v == values.back());
    if (!merge) {
      values.push_back(v);
      counts.resize(values.size() * num_classes, 0.0);
      group_totals.push_back(0.0);
    }
    size_t g = values.size() - 1;
    for (size_t c = 0; c < num_classes; ++c) {
      double n = static_cast<double>(key_counts[k * num_classes + c]);
      counts[g * num_classes + c] += n;
      group_totals[g] += n;
    }
  }

  std::vector<double> total_counts(num_classes, 0.0);
  double total = 0;
  for (size_t g = 0; g < values.size(); ++g) {
    for (size_t c = 0; c < num_classes; ++c) {
      total_counts[c] += counts[g * num_classes + c];
    }
    total += group_totals[g];
  }
  double parent_impurity = Gini(total_counts, total);

  std::vector<double> left_counts(num_classes, 0.0);
  double left_total = 0;
  for (size_t g = 0; g + 1 < values.size(); ++g) {
    for (size_t c = 0; c < num_classes; ++c) {
      left_counts[c] += counts[g * num_classes + c];
    }
    left_total += group_totals[g];
    double v = values[g];
    double next = values[g + 1];
    double right_total = total - left_total;
    std::vector<double> right_counts(num_classes);
    for (size_t c = 0; c < num_classes; ++c) {
      right_counts[c] = total_counts[c] - left_counts[c];
    }
    double weighted = (left_total / total) * Gini(left_counts, left_total) +
                      (right_total / total) * Gini(right_counts, right_total);
    double decrease = parent_impurity - weighted;
    if (decrease > 1e-12 && (!out.found || decrease > out.impurity_decrease)) {
      out.found = true;
      out.feature = feature;
      out.threshold = std::isnan(v) ? next - 1.0 : (v + next) / 2.0;
      out.impurity_decrease = decrease;
    }
  }
  return out;
}

DecisionTree::SplitResult DecisionTree::BestSplitExact(
    const FeatureView& col, const Labels& y,
    const std::vector<uint32_t>& rows, size_t feature) const {
  SplitResult out;
  // Sort rows by feature value; NaN first (they route left).
  std::vector<uint32_t> sorted(rows);
  std::sort(sorted.begin(), sorted.end(), [&](uint32_t a, uint32_t b) {
    double va = col[a], vb = col[b];
    bool na = std::isnan(va), nb = std::isnan(vb);
    if (na != nb) return na;
    return va < vb;
  });

  size_t num_classes = classes_.size();
  std::vector<double> total_counts(num_classes, 0.0);
  for (uint32_t r : sorted) {
    total_counts[internal::ClassIndex(classes_, y[r]).ValueOr(0)] += 1.0;
  }
  double total = static_cast<double>(sorted.size());
  double parent_impurity = Gini(total_counts, total);

  std::vector<double> left_counts(num_classes, 0.0);
  for (size_t i = 0; i + 1 < sorted.size(); ++i) {
    left_counts[internal::ClassIndex(classes_, y[sorted[i]]).ValueOr(0)] +=
        1.0;
    double v = col[sorted[i]];
    double next = col[sorted[i + 1]];
    // A valid boundary needs distinct adjacent values (NaNs sit at the
    // front and never end a boundary themselves).
    if (std::isnan(next) || v == next ||
        (std::isnan(v) && i + 1 < sorted.size() && std::isnan(next))) {
      continue;
    }
    double left_total = static_cast<double>(i + 1);
    double right_total = total - left_total;
    std::vector<double> right_counts(num_classes);
    for (size_t c = 0; c < num_classes; ++c) {
      right_counts[c] = total_counts[c] - left_counts[c];
    }
    double weighted = (left_total / total) * Gini(left_counts, left_total) +
                      (right_total / total) * Gini(right_counts, right_total);
    double decrease = parent_impurity - weighted;
    if (decrease > 1e-12 && (!out.found || decrease > out.impurity_decrease)) {
      out.found = true;
      out.feature = feature;
      out.threshold = std::isnan(v) ? next - 1.0 : (v + next) / 2.0;
      out.impurity_decrease = decrease;
    }
  }
  return out;
}

size_t DecisionTree::WalkToLeaf(const Matrix& x, size_t row) const {
  size_t node = 0;
  while (nodes_[node].feature >= 0) {
    double v = x.At(row, static_cast<size_t>(nodes_[node].feature));
    node = (std::isnan(v) || v <= nodes_[node].threshold)
               ? nodes_[node].left
               : nodes_[node].right;
  }
  return node;
}

Result<Labels> DecisionTree::Predict(const Matrix& x) const {
  MLCS_RETURN_IF_ERROR(
      internal::CheckPredictInputs(x, num_features_, fitted()));
  Labels out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    const auto& probs = nodes_[WalkToLeaf(x, r)].probs;
    size_t best = 0;
    for (size_t c = 1; c < probs.size(); ++c) {
      if (probs[c] > probs[best]) best = c;
    }
    out[r] = classes_[best];
  }
  return out;
}

Result<std::vector<std::vector<double>>> DecisionTree::PredictDistribution(
    const Matrix& x) const {
  MLCS_RETURN_IF_ERROR(
      internal::CheckPredictInputs(x, num_features_, fitted()));
  std::vector<std::vector<double>> out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    const auto& probs = nodes_[WalkToLeaf(x, r)].probs;
    out[r].assign(probs.begin(), probs.end());
  }
  return out;
}

Result<std::vector<double>> DecisionTree::PredictProba(const Matrix& x,
                                                       int32_t cls) const {
  MLCS_RETURN_IF_ERROR(
      internal::CheckPredictInputs(x, num_features_, fitted()));
  MLCS_ASSIGN_OR_RETURN(size_t cls_idx, internal::ClassIndex(classes_, cls));
  std::vector<double> out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    out[r] = nodes_[WalkToLeaf(x, r)].probs[cls_idx];
  }
  return out;
}

Result<std::vector<double>> DecisionTree::PredictConfidence(
    const Matrix& x) const {
  MLCS_RETURN_IF_ERROR(
      internal::CheckPredictInputs(x, num_features_, fitted()));
  std::vector<double> out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    const auto& probs = nodes_[WalkToLeaf(x, r)].probs;
    float best = 0;
    for (float p : probs) best = std::max(best, p);
    out[r] = best;
  }
  return out;
}

std::string DecisionTree::ParamsString() const {
  return "max_depth=" + std::to_string(options_.max_depth) +
         " min_samples_split=" + std::to_string(options_.min_samples_split) +
         " max_features=" + std::to_string(options_.max_features) +
         " splitter=" + (options_.exact_splits ? "exact" : "histogram");
}

void DecisionTree::Serialize(ByteWriter* writer) const {
  writer->WriteI32(options_.max_depth);
  writer->WriteVarint(options_.min_samples_split);
  writer->WriteVarint(options_.min_samples_leaf);
  writer->WriteVarint(options_.max_features);
  writer->WriteI32(options_.num_bins);
  writer->WriteBool(options_.exact_splits);
  writer->WriteU64(options_.seed);
  writer->WriteVarint(classes_.size());
  for (int32_t c : classes_) writer->WriteI32(c);
  writer->WriteVarint(num_features_);
  writer->WriteVarint(feature_importances_.size());
  for (double v : feature_importances_) writer->WriteDouble(v);
  writer->WriteVarint(nodes_.size());
  for (const auto& node : nodes_) {
    writer->WriteI32(node.feature);
    writer->WriteDouble(node.threshold);
    writer->WriteU32(node.left);
    writer->WriteU32(node.right);
    writer->WriteVarint(node.probs.size());
    for (float p : node.probs) writer->WriteDouble(p);
  }
}

Result<std::unique_ptr<DecisionTree>> DecisionTree::DeserializeBody(
    ByteReader* reader) {
  DecisionTreeOptions options;
  MLCS_ASSIGN_OR_RETURN(options.max_depth, reader->ReadI32());
  MLCS_ASSIGN_OR_RETURN(uint64_t mss, reader->ReadVarint());
  options.min_samples_split = mss;
  MLCS_ASSIGN_OR_RETURN(uint64_t msl, reader->ReadVarint());
  options.min_samples_leaf = msl;
  MLCS_ASSIGN_OR_RETURN(uint64_t mf, reader->ReadVarint());
  options.max_features = mf;
  MLCS_ASSIGN_OR_RETURN(options.num_bins, reader->ReadI32());
  MLCS_ASSIGN_OR_RETURN(options.exact_splits, reader->ReadBool());
  MLCS_ASSIGN_OR_RETURN(options.seed, reader->ReadU64());
  auto tree = std::make_unique<DecisionTree>(options);
  // Model BLOBs live in ordinary UPDATE-able tables, so every count and
  // index is checked before it sizes an allocation or steers a tree walk.
  // `min_bytes` is the smallest encoding of one counted element.
  auto check_count = [reader](uint64_t count, size_t min_bytes,
                              const char* what) -> Status {
    if (count > reader->remaining() / min_bytes) {
      return Status::ParseError(std::string("corrupt tree: ") + what +
                                " count exceeds the payload");
    }
    return Status::OK();
  };
  MLCS_ASSIGN_OR_RETURN(uint64_t num_classes, reader->ReadVarint());
  MLCS_RETURN_IF_ERROR(check_count(num_classes, sizeof(int32_t), "class"));
  tree->classes_.resize(num_classes);
  for (auto& c : tree->classes_) {
    MLCS_ASSIGN_OR_RETURN(c, reader->ReadI32());
  }
  MLCS_ASSIGN_OR_RETURN(uint64_t nf, reader->ReadVarint());
  tree->num_features_ = nf;
  MLCS_ASSIGN_OR_RETURN(uint64_t num_importances, reader->ReadVarint());
  MLCS_RETURN_IF_ERROR(
      check_count(num_importances, sizeof(double), "importance"));
  tree->feature_importances_.resize(num_importances);
  for (auto& v : tree->feature_importances_) {
    MLCS_ASSIGN_OR_RETURN(v, reader->ReadDouble());
  }
  MLCS_ASSIGN_OR_RETURN(uint64_t num_nodes, reader->ReadVarint());
  if (num_nodes == 0) return Status::ParseError("corrupt tree: no nodes");
  // feature + threshold + left + right + a one-byte probs count.
  constexpr size_t kMinNodeBytes = 4 + 8 + 4 + 4 + 1;
  MLCS_RETURN_IF_ERROR(check_count(num_nodes, kMinNodeBytes, "node"));
  tree->nodes_.resize(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    Node& node = tree->nodes_[i];
    MLCS_ASSIGN_OR_RETURN(node.feature, reader->ReadI32());
    MLCS_ASSIGN_OR_RETURN(node.threshold, reader->ReadDouble());
    MLCS_ASSIGN_OR_RETURN(node.left, reader->ReadU32());
    MLCS_ASSIGN_OR_RETURN(node.right, reader->ReadU32());
    MLCS_ASSIGN_OR_RETURN(uint64_t np, reader->ReadVarint());
    MLCS_RETURN_IF_ERROR(check_count(np, sizeof(double), "probability"));
    node.probs.resize(np);
    for (auto& p : node.probs) {
      MLCS_ASSIGN_OR_RETURN(double d, reader->ReadDouble());
      p = static_cast<float>(d);
    }
    if (node.feature < 0) {
      // Leaf: PredictProba indexes probs by class position.
      if (node.probs.size() != tree->classes_.size()) {
        return Status::ParseError(
            "corrupt tree: leaf distribution does not match the classes");
      }
      continue;
    }
    if (static_cast<uint64_t>(node.feature) >= nf) {
      return Status::ParseError("corrupt tree: split feature out of range");
    }
    // Fit appends children after their parent, so parent < child holds in
    // every valid tree — and rules out cycles in WalkToLeaf.
    if (node.left <= i || node.right <= i || node.left >= num_nodes ||
        node.right >= num_nodes) {
      return Status::ParseError("corrupt tree: child index out of range");
    }
  }
  return tree;
}

}  // namespace mlcs::ml
