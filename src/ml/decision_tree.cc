#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/parallel_for.h"
#include "common/random.h"

namespace mlcs::ml {

namespace {

/// Gini impurity of a class-count histogram with `total` samples.
double Gini(const std::vector<double>& counts, double total) {
  if (total <= 0) return 0;
  double sum_sq = 0;
  for (double c : counts) sum_sq += c * c;
  return 1.0 - sum_sq / (total * total);
}

/// Below this many count increments (node rows × candidate features) a
/// node's split search stays on the thread growing the tree.
constexpr size_t kParallelSplitWork = size_t{1} << 16;

/// Smallest serialized node: feature + threshold + left + right + a
/// one-byte probs count.
constexpr size_t kMinNodeBytes = 4 + 8 + 4 + 4 + 1;

/// A candidate's [code × class] table is zeroed and scanned whole; past
/// this many table entries per node row, sorting the node's codes is
/// cheaper.
constexpr size_t kSortFactor = 16;

}  // namespace

size_t DecisionTreeOptions::max_codes() const {
  return exact_splits ? TrainingCodes::kMaxValueCodes
                      : static_cast<size_t>(std::max(num_bins, 1));
}

struct DecisionTree::Grower {
  const TrainingCodes& codes;
  bool parallel;
  Rng rng;
  /// Scratch the serial split search reuses from node to node.
  CodeCounts counts;
  /// The node's class indices in row order, shared by every candidate.
  std::vector<uint32_t> node_labels;
};

DecisionTree::DecisionTree(DecisionTreeOptions options)
    : options_(options) {}

Status DecisionTree::FitSource(const TrainingSource& x, const Labels& y) {
  MLCS_RETURN_IF_ERROR(internal::CheckFitInputs(x, y));
  MLCS_ASSIGN_OR_RETURN(
      TrainingCodes codes,
      TrainingCodes::Build(x, y, internal::DistinctClasses(y),
                           options_.max_codes(), /*parallel=*/true));
  std::vector<uint32_t> rows(x.rows());
  std::iota(rows.begin(), rows.end(), 0);
  return FitCoded(codes, std::move(rows), /*parallel=*/true);
}

Status DecisionTree::FitCoded(const TrainingCodes& codes,
                              std::vector<uint32_t> rows, bool parallel) {
  if (rows.empty()) {
    return Status::InvalidArgument("cannot fit a tree on zero rows");
  }
  if (codes.classes().empty()) {
    return Status::InvalidArgument("empty class set");
  }
  classes_ = codes.classes();
  num_features_ = codes.cols();
  nodes_.clear();
  feature_importances_.assign(num_features_, 0.0);
  // Counts ignore row order; ascending rows turn every code and label read
  // into a forward scan.
  std::sort(rows.begin(), rows.end());
  Grower grower{codes, parallel, Rng(options_.seed), {}, {}};
  BuildNode(grower, rows, /*depth=*/0);
  double total = 0;
  for (double v : feature_importances_) total += v;
  if (total > 0) {
    for (double& v : feature_importances_) v /= total;
  }
  return Status::OK();
}

uint32_t DecisionTree::MakeLeaf(const std::vector<uint32_t>& class_counts) {
  Node node;
  node.probs.assign(class_counts.begin(), class_counts.end());
  float total = 0;
  for (float p : node.probs) total += p;
  if (total > 0) {
    for (float& p : node.probs) p /= total;
  }
  nodes_.push_back(std::move(node));
  return static_cast<uint32_t>(nodes_.size() - 1);
}

uint32_t DecisionTree::BuildNode(Grower& g, std::vector<uint32_t>& rows,
                                 int depth) {
  const std::vector<uint32_t>& labels = g.codes.labels();
  std::vector<uint32_t> class_counts(classes_.size(), 0);
  for (uint32_t r : rows) ++class_counts[labels[r]];
  // Stopping conditions → leaf.
  bool pure = *std::max_element(class_counts.begin(), class_counts.end()) ==
              rows.size();
  if (pure || depth >= options_.max_depth ||
      rows.size() < options_.min_samples_split) {
    return MakeLeaf(class_counts);
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
      size_t j = i + g.rng.NextBounded(num_features_ - i);
      std::swap(features[i], features[j]);
    }
    features.resize(k);
  }

  SplitResult best = FindBestSplit(g, rows, class_counts, features);
  if (!best.found) return MakeLeaf(class_counts);

  // Partition rows by the codes the split was counted on (NaN, code 0,
  // goes left); stable, so both children stay ascending.
  std::vector<uint32_t> left_rows, right_rows;
  const std::vector<uint16_t>& codes = g.codes.codes(best.feature);
  for (uint32_t r : rows) {
    (codes[r] <= best.left_code ? left_rows : right_rows).push_back(r);
  }
  if (left_rows.size() < options_.min_samples_leaf ||
      right_rows.size() < options_.min_samples_leaf) {
    return MakeLeaf(class_counts);
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
  uint32_t left = BuildNode(g, left_rows, depth + 1);
  uint32_t right = BuildNode(g, right_rows, depth + 1);
  nodes_[self].left = left;
  nodes_[self].right = right;
  return self;
}

DecisionTree::SplitResult DecisionTree::FindBestSplit(
    Grower& g, const std::vector<uint32_t>& rows,
    const std::vector<uint32_t>& class_counts,
    const std::vector<size_t>& features) const {
  const TrainingCodes& codes = g.codes;
  const std::vector<uint32_t>& labels = codes.labels();
  size_t num_classes = classes_.size();
  g.node_labels.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) g.node_labels[i] = labels[rows[i]];

  // [code × class] counts of one candidate, then its best boundary.
  auto split_on = [&](size_t f, CodeCounts& counts) {
    const std::vector<uint16_t>& fc = codes.codes(f);
    size_t num_codes = codes.num_codes(f);
    counts.present.clear();
    if (num_codes * num_classes > kSortFactor * rows.size()) {
      // Far more codes than rows (exact splits on a small node): sort the
      // node's (code, class) pairs instead of zeroing a sparse table.
      counts.pairs.resize(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) {
        counts.pairs[i] = uint64_t{fc[rows[i]]} << 32 | g.node_labels[i];
      }
      std::sort(counts.pairs.begin(), counts.pairs.end());
      counts.table.clear();
      for (uint64_t p : counts.pairs) {
        auto code = static_cast<uint16_t>(p >> 32);
        if (counts.present.empty() || counts.present.back() != code) {
          counts.present.push_back(code);
          counts.table.resize(counts.table.size() + num_classes, 0);
        }
        ++counts.table[counts.table.size() - num_classes + (p & 0xFFFFFFFF)];
      }
      return ScanCodes(codes, f, counts, class_counts);
    }
    counts.table.assign(num_codes * num_classes, 0);
    for (size_t i = 0; i < rows.size(); ++i) {
      ++counts.table[fc[rows[i]] * num_classes + g.node_labels[i]];
    }
    return ScanCodes(codes, f, counts, class_counts);
  };
  std::vector<SplitResult> candidates(features.size());
  if (g.parallel && rows.size() * features.size() >= kParallelSplitWork) {
    // Each candidate is a pure function of the node, so the tree is the
    // same at any thread count.
    Status st = ParallelItems(MorselPolicy{}, features.size(), [&](size_t i) {
      CodeCounts counts;
      candidates[i] = split_on(features[i], counts);
      return Status::OK();
    });
    (void)st;  // the items never fail
  } else {
    for (size_t i = 0; i < features.size(); ++i) {
      candidates[i] = split_on(features[i], g.counts);
    }
  }
  SplitResult best;
  for (const SplitResult& cand : candidates) {
    if (cand.found &&
        (!best.found || cand.impurity_decrease > best.impurity_decrease)) {
      best = cand;
    }
  }
  return best;
}

DecisionTree::SplitResult DecisionTree::ScanCodes(
    const TrainingCodes& codes, size_t feature, const CodeCounts& counts,
    const std::vector<uint32_t>& class_counts) const {
  SplitResult out;
  size_t num_classes = classes_.size();
  std::vector<double> total_counts(class_counts.begin(), class_counts.end());
  double total = 0;
  for (double c : total_counts) total += c;
  double parent_impurity = Gini(total_counts, total);

  // Every boundary between two adjacent present codes is a candidate;
  // empty codes are skipped, so each side always holds rows.
  std::vector<double> left_counts(num_classes, 0.0);
  std::vector<double> right_counts(num_classes);
  double left_total = 0;
  size_t num_codes = codes.num_codes(feature);
  size_t num_groups = counts.table.size() / num_classes;
  size_t prev = num_codes;  // no present code yet
  size_t right_code = 0;
  for (size_t i = 0; i < num_groups; ++i) {
    size_t code = counts.present.empty() ? i : counts.present[i];
    const uint32_t* code_counts = &counts.table[i * num_classes];
    uint64_t present = 0;
    for (size_t c = 0; c < num_classes; ++c) present += code_counts[c];
    if (present == 0) continue;
    if (prev != num_codes) {
      double right_total = total - left_total;
      for (size_t c = 0; c < num_classes; ++c) {
        right_counts[c] = total_counts[c] - left_counts[c];
      }
      double weighted =
          (left_total / total) * Gini(left_counts, left_total) +
          (right_total / total) * Gini(right_counts, right_total);
      double decrease = parent_impurity - weighted;
      if (decrease > 1e-12 &&
          (!out.found || decrease > out.impurity_decrease)) {
        out.found = true;
        out.feature = feature;
        out.left_code = static_cast<uint16_t>(prev);
        out.impurity_decrease = decrease;
        right_code = code;
      }
    }
    for (size_t c = 0; c < num_classes; ++c) left_counts[c] += code_counts[c];
    left_total += static_cast<double>(present);
    prev = code;
  }
  if (out.found) {
    out.threshold = codes.Threshold(feature, out.left_code,
                                    static_cast<uint16_t>(right_code));
  }
  return out;
}

size_t DecisionTree::WalkToLeaf(const FeatureView* features,
                                size_t row) const {
  size_t node = 0;
  while (nodes_[node].feature >= 0) {
    double v = features[nodes_[node].feature][row];
    node = (std::isnan(v) || v <= nodes_[node].threshold)
               ? nodes_[node].left
               : nodes_[node].right;
  }
  return node;
}

void DecisionTree::AddDistribution(const FeatureView* features, size_t begin,
                                   size_t end, double* out) const {
  size_t num_classes = classes_.size();
  for (size_t r = begin; r < end; ++r, out += num_classes) {
    const auto& probs = nodes_[WalkToLeaf(features, r)].probs;
    for (size_t c = 0; c < num_classes; ++c) out[c] += probs[c];
  }
}

Result<std::vector<double>> DecisionTree::PredictDistribution(
    const TrainingSource& x) const {
  MLCS_RETURN_IF_ERROR(
      internal::CheckPredictInputs(x, num_features_, fitted()));
  std::vector<FeatureView> features = x.views();
  std::vector<double> out(x.rows() * classes_.size(), 0.0);
  AddDistribution(features.data(), 0, x.rows(), out.data());
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
  MLCS_ASSIGN_OR_RETURN(uint64_t num_classes,
                        reader->ReadCount(sizeof(int32_t), "tree class"));
  tree->classes_.resize(num_classes);
  for (auto& c : tree->classes_) {
    MLCS_ASSIGN_OR_RETURN(c, reader->ReadI32());
  }
  MLCS_ASSIGN_OR_RETURN(uint64_t nf, reader->ReadVarint());
  tree->num_features_ = nf;
  MLCS_ASSIGN_OR_RETURN(uint64_t num_importances,
                        reader->ReadCount(sizeof(double), "tree importance"));
  tree->feature_importances_.resize(num_importances);
  for (auto& v : tree->feature_importances_) {
    MLCS_ASSIGN_OR_RETURN(v, reader->ReadDouble());
  }
  MLCS_ASSIGN_OR_RETURN(uint64_t num_nodes,
                        reader->ReadCount(kMinNodeBytes, "tree node"));
  if (num_nodes == 0) return Status::ParseError("corrupt tree: no nodes");
  tree->nodes_.resize(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    Node& node = tree->nodes_[i];
    MLCS_ASSIGN_OR_RETURN(node.feature, reader->ReadI32());
    MLCS_ASSIGN_OR_RETURN(node.threshold, reader->ReadDouble());
    MLCS_ASSIGN_OR_RETURN(node.left, reader->ReadU32());
    MLCS_ASSIGN_OR_RETURN(node.right, reader->ReadU32());
    MLCS_ASSIGN_OR_RETURN(
        uint64_t np, reader->ReadCount(sizeof(double), "leaf probability"));
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
