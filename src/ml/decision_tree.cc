#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

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

/// How many node rows ahead the counting pass prefetches a row's codes.
constexpr size_t kPrefetchRows = 16;

/// Counts per cache line. Each candidate's table is followed by a line of
/// padding, so tables that different pool tasks count never share a line.
constexpr size_t kLineCounts = 64 / sizeof(uint32_t);

}  // namespace

size_t DecisionTreeOptions::max_codes() const {
  return exact_splits ? TrainingCodes::kMaxValueCodes
                      : static_cast<size_t>(std::max(num_bins, 1));
}

struct DecisionTree::Candidate {
  size_t feature = 0;
  /// Far more codes than node rows (exact splits on a small node): its
  /// (code, class) pairs are sorted instead of zeroing a sparse table.
  bool sparse = false;
  /// Start of its [code × class] table in Grower::table.
  size_t offset = 0;
  /// Rows of num_classes counts in its table: one per code, or, when
  /// sparse, one per present code.
  size_t groups = 0;
  /// Sparse only: start of its pairs in Grower::pairs and of its present
  /// codes in Grower::present, one per node row.
  size_t sparse_at = 0;
  SplitResult best;
  /// Left class counts at `best`'s boundary.
  std::vector<uint32_t> best_left;
};

struct DecisionTree::SearchScratch {
  /// The dense candidates' codes and tables, and the sparse candidates'
  /// codes and pairs.
  std::vector<const uint16_t*> dense_codes;
  std::vector<uint32_t*> dense_tables;
  std::vector<const uint16_t*> sparse_codes;
  std::vector<std::pair<uint64_t, uint32_t>*> sparse_pairs;
  /// ScanCodes' class counts: the node's, and either side of a boundary.
  std::vector<double> parent;
  std::vector<double> left;
  std::vector<double> right;
};

struct DecisionTree::Grower {
  Grower(const TrainingCodes& codes, bool parallel, uint64_t seed,
         std::vector<uint32_t> sample_rows,
         std::vector<uint32_t> sample_weights,
         std::vector<uint32_t> sample_classes)
      : codes(codes),
        parallel(parallel),
        rng(seed),
        rows(std::move(sample_rows)),
        weights(std::move(sample_weights)),
        classes(std::move(sample_classes)),
        spill_rows(rows.size()),
        spill_weights(rows.size()),
        spill_classes(rows.size()) {}

  const TrainingCodes& codes;
  bool parallel;
  Rng rng;
  /// The sample, grown in place: a node owns a [begin, end) range of
  /// rows (ascending) with their weights and class indices, and its split
  /// partitions that range stably into the children's two ranges.
  std::vector<uint32_t> rows;
  std::vector<uint32_t> weights;
  std::vector<uint32_t> classes;
  /// Where a partition parks the right child's rows meanwhile.
  std::vector<uint32_t> spill_rows;
  std::vector<uint32_t> spill_weights;
  std::vector<uint32_t> spill_classes;
  /// The candidate features of the node being split.
  std::vector<size_t> features;
  /// One per feature, in the same order.
  std::vector<Candidate> candidates;
  /// Every candidate's class counts, tables back to back, reused from
  /// node to node.
  std::vector<uint32_t> table;
  /// Sparse candidates' (code << 32 | class, row weight) pairs and their
  /// present codes.
  std::vector<std::pair<uint64_t, uint32_t>> pairs;
  std::vector<uint16_t> present;
  /// One per task of the split search.
  std::vector<SearchScratch> scratch;
  /// Left class counts of the last FindBestSplit's winner.
  std::vector<uint32_t> best_left;
};

DecisionTree::DecisionTree(DecisionTreeOptions options)
    : options_(options) {}

Status DecisionTree::Fit(const Matrix& x, const Labels& y) {
  MLCS_RETURN_IF_ERROR(internal::CheckFitInputs(x, y));
  MLCS_ASSIGN_OR_RETURN(
      TrainingCodes codes,
      TrainingCodes::Build(x, y, internal::DistinctClasses(y),
                           options_.max_codes(), /*parallel=*/true));
  std::vector<uint32_t> rows(x.rows());
  std::iota(rows.begin(), rows.end(), 0);
  return FitCoded(codes, std::move(rows), std::vector<uint32_t>(x.rows(), 1),
                  /*parallel=*/true);
}

Status DecisionTree::FitCoded(const TrainingCodes& codes,
                              std::vector<uint32_t> rows,
                              std::vector<uint32_t> weights, bool parallel) {
  if (rows.empty()) {
    return Status::InvalidArgument("cannot fit a tree on zero rows");
  }
  if (rows.size() != weights.size()) {
    return Status::InvalidArgument(
        std::to_string(rows.size()) + " rows but " +
        std::to_string(weights.size()) + " row weights");
  }
  if (codes.classes().empty()) {
    return Status::InvalidArgument("empty class set");
  }
  // Class counts are uint32 sums of weights, so the sample's total must
  // fit one.
  uint64_t total_weight = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] >= codes.rows()) {
      return Status::InvalidArgument("row id " + std::to_string(rows[i]) +
                                     " is out of range");
    }
    if (i > 0 && rows[i] <= rows[i - 1]) {
      return Status::InvalidArgument("rows must be strictly ascending");
    }
    if (weights[i] == 0) {
      return Status::InvalidArgument("row weights must be positive");
    }
    total_weight += weights[i];
  }
  if (total_weight > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("row weights sum past 2^32 - 1");
  }
  classes_ = codes.classes();
  num_features_ = codes.cols();
  nodes_.clear();
  probs_.clear();
  feature_importances_.assign(num_features_, 0.0);
  const std::vector<uint32_t>& labels = codes.labels();
  std::vector<uint32_t> row_classes(rows.size());
  std::vector<uint32_t> class_counts(classes_.size(), 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    row_classes[i] = labels[rows[i]];
    class_counts[row_classes[i]] += weights[i];
  }
  size_t n = rows.size();
  Grower grower(codes, parallel, options_.seed, std::move(rows),
                std::move(weights), std::move(row_classes));
  BuildNode(grower, 0, n, std::move(class_counts), /*depth=*/0);
  depth_ = ComputeDepth();
  double total = 0;
  for (double v : feature_importances_) total += v;
  if (total > 0) {
    for (double& v : feature_importances_) v /= total;
  }
  return Status::OK();
}

uint32_t DecisionTree::MakeLeaf(const std::vector<uint32_t>& class_counts) {
  auto self = static_cast<uint32_t>(nodes_.size());
  Node node;
  node.children[0] = node.children[1] = self;
  nodes_.push_back(node);
  size_t first = probs_.size();
  probs_.insert(probs_.end(), class_counts.begin(), class_counts.end());
  float total = 0;
  for (size_t i = first; i < probs_.size(); ++i) total += probs_[i];
  if (total > 0) {
    for (size_t i = first; i < probs_.size(); ++i) probs_[i] /= total;
  }
  return self;
}

uint32_t DecisionTree::BuildNode(Grower& g, size_t begin, size_t end,
                                 std::vector<uint32_t> class_counts,
                                 int depth) {
  // Weighted totals: a row drawn w times counts w times everywhere.
  uint64_t total = std::accumulate(class_counts.begin(), class_counts.end(),
                                   uint64_t{0});
  // Stopping conditions → leaf.
  bool pure =
      *std::max_element(class_counts.begin(), class_counts.end()) == total;
  if (pure || depth >= options_.max_depth ||
      total < options_.min_samples_split) {
    return MakeLeaf(class_counts);
  }

  // Candidate features (random subset for forests).
  g.features.resize(num_features_);
  std::iota(g.features.begin(), g.features.end(), 0);
  size_t k = options_.max_features == 0
                 ? num_features_
                 : std::min(options_.max_features, num_features_);
  if (k < num_features_) {
    // Partial Fisher-Yates: the first k entries become the sample.
    for (size_t i = 0; i < k; ++i) {
      size_t j = i + g.rng.NextBounded(num_features_ - i);
      std::swap(g.features[i], g.features[j]);
    }
    g.features.resize(k);
  }

  SplitResult best = FindBestSplit(g, begin, end, class_counts);
  if (!best.found) return MakeLeaf(class_counts);

  // The children's class counts come from the winning split's table:
  // left of its boundary, and the rest.
  std::vector<uint32_t> left_counts = g.best_left;
  std::vector<uint32_t> right_counts(class_counts.size());
  uint64_t left_total = 0;
  for (size_t c = 0; c < class_counts.size(); ++c) {
    right_counts[c] = class_counts[c] - left_counts[c];
    left_total += left_counts[c];
  }
  if (left_total < options_.min_samples_leaf ||
      total - left_total < options_.min_samples_leaf) {
    return MakeLeaf(class_counts);
  }
  feature_importances_[best.feature] +=
      best.impurity_decrease * static_cast<double>(total);

  // Partition the range by the codes the split was counted on (NaN, code
  // 0, goes left). Stable: left rows compact forward, right rows wait in
  // the spill buffer and follow them, so both children stay ascending.
  const std::vector<uint16_t>& codes = g.codes.codes(best.feature);
  size_t mid = begin;
  size_t spilled = 0;
  for (size_t i = begin; i < end; ++i) {
    uint32_t r = g.rows[i];
    uint32_t w = g.weights[i];
    uint32_t c = g.classes[i];
    if (codes[r] <= best.left_code) {
      g.rows[mid] = r;
      g.weights[mid] = w;
      g.classes[mid] = c;
      ++mid;
    } else {
      g.spill_rows[spilled] = r;
      g.spill_weights[spilled] = w;
      g.spill_classes[spilled] = c;
      ++spilled;
    }
  }
  std::copy_n(g.spill_rows.begin(), spilled, g.rows.begin() + mid);
  std::copy_n(g.spill_weights.begin(), spilled, g.weights.begin() + mid);
  std::copy_n(g.spill_classes.begin(), spilled, g.classes.begin() + mid);

  Node node;
  node.feature = static_cast<int32_t>(best.feature);
  node.threshold = best.threshold;
  nodes_.push_back(node);
  probs_.resize(probs_.size() + classes_.size(), 0.0f);
  auto self = static_cast<uint32_t>(nodes_.size() - 1);
  uint32_t left = BuildNode(g, begin, mid, std::move(left_counts), depth + 1);
  uint32_t right = BuildNode(g, mid, end, std::move(right_counts), depth + 1);
  nodes_[self].children[0] = left;
  nodes_[self].children[1] = right;
  return self;
}

DecisionTree::SplitResult DecisionTree::FindBestSplit(
    Grower& g, size_t begin, size_t end,
    const std::vector<uint32_t>& class_counts) const {
  const TrainingCodes& codes = g.codes;
  size_t num_classes = classes_.size();
  size_t n = end - begin;
  size_t k = g.features.size();

  // Lay every candidate's table out in one buffer: a dense one holds all
  // its codes, a sparse one at most one group per node row, each a line
  // apart from the next.
  g.candidates.resize(k);
  size_t table_size = 0;
  size_t num_pairs = 0;
  for (size_t j = 0; j < k; ++j) {
    Candidate& cand = g.candidates[j];
    cand.feature = g.features[j];
    size_t num_codes = codes.num_codes(cand.feature);
    cand.sparse = num_codes * num_classes > kSortFactor * n;
    cand.offset = table_size;
    cand.groups = cand.sparse ? n : num_codes;
    cand.sparse_at = num_pairs;
    table_size += cand.groups * num_classes + kLineCounts;
    if (cand.sparse) num_pairs += n;
  }
  g.table.assign(table_size, 0);
  g.pairs.resize(num_pairs);
  g.present.resize(num_pairs);

  // Each task counts and scans a contiguous slice of the candidates. A
  // candidate's result is a pure function of the node, so the tree is
  // the same for any slicing.
  MorselPolicy pool;
  size_t slices = 1;
  if (g.parallel && n * k >= kParallelSplitWork) {
    slices = std::min(k, pool.threads());
  }
  if (g.scratch.size() < slices) g.scratch.resize(slices);
  auto search = [&](size_t s) {
    size_t first = s * k / slices;
    size_t last = (s + 1) * k / slices;
    SearchScratch& scratch = g.scratch[s];
    CountCandidates(g, begin, end, first, last, scratch);
    for (size_t j = first; j < last; ++j) {
      Candidate& cand = g.candidates[j];
      cand.best = ScanCodes(
          codes, cand.feature, g.table.data() + cand.offset, cand.groups,
          cand.sparse ? g.present.data() + cand.sparse_at : nullptr,
          class_counts, scratch, cand.best_left);
    }
    return Status::OK();
  };
  if (slices == 1) {
    (void)search(0);
  } else {
    Status st = ParallelItems(pool, slices, search);
    (void)st;  // the items never fail
  }

  SplitResult best;
  for (Candidate& cand : g.candidates) {
    if (cand.best.found &&
        (!best.found ||
         cand.best.impurity_decrease > best.impurity_decrease)) {
      best = cand.best;
      g.best_left.swap(cand.best_left);
    }
  }
  return best;
}

void DecisionTree::CountCandidates(Grower& g, size_t begin, size_t end,
                                   size_t first, size_t last,
                                   SearchScratch& scratch) const {
  size_t num_classes = classes_.size();
  size_t n = end - begin;
  const uint32_t* rows = g.rows.data() + begin;
  const uint32_t* weights = g.weights.data() + begin;
  const uint32_t* classes = g.classes.data() + begin;
  scratch.dense_codes.clear();
  scratch.dense_tables.clear();
  scratch.sparse_codes.clear();
  scratch.sparse_pairs.clear();
  for (size_t j = first; j < last; ++j) {
    const Candidate& cand = g.candidates[j];
    const uint16_t* fc = g.codes.codes(cand.feature).data();
    if (cand.sparse) {
      scratch.sparse_codes.push_back(fc);
      scratch.sparse_pairs.push_back(g.pairs.data() + cand.sparse_at);
    } else {
      scratch.dense_codes.push_back(fc);
      scratch.dense_tables.push_back(g.table.data() + cand.offset);
    }
  }
  size_t num_dense = scratch.dense_codes.size();
  size_t num_sparse = scratch.sparse_codes.size();
  const uint16_t* const* dense_codes = scratch.dense_codes.data();
  uint32_t* const* dense_tables = scratch.dense_tables.data();
  const uint16_t* const* sparse_codes = scratch.sparse_codes.data();
  std::pair<uint64_t, uint32_t>* const* sparse_pairs =
      scratch.sparse_pairs.data();
  for (size_t i = 0; i < n; ++i) {
    // Deeper nodes hold scattered rows: start the gathers of a row a few
    // iterations ahead.
    if (i + kPrefetchRows < n) {
      uint32_t ahead = rows[i + kPrefetchRows];
      for (size_t j = 0; j < num_dense; ++j) {
        __builtin_prefetch(dense_codes[j] + ahead);
      }
    }
    uint32_t r = rows[i];
    uint32_t w = weights[i];
    uint32_t c = classes[i];
    for (size_t j = 0; j < num_dense; ++j) {
      dense_tables[j][dense_codes[j][r] * num_classes + c] += w;
    }
    for (size_t j = 0; j < num_sparse; ++j) {
      sparse_pairs[j][i] = {uint64_t{sparse_codes[j][r]} << 32 | c, w};
    }
  }
  // A sparse candidate's table gets one group per present code, in code
  // order.
  for (size_t j = first; j < last; ++j) {
    Candidate& cand = g.candidates[j];
    if (!cand.sparse) continue;
    std::pair<uint64_t, uint32_t>* pairs = g.pairs.data() + cand.sparse_at;
    std::sort(pairs, pairs + n);
    uint16_t* present = g.present.data() + cand.sparse_at;
    uint32_t* table = g.table.data() + cand.offset;
    size_t groups = 0;
    for (size_t i = 0; i < n; ++i) {
      auto code = static_cast<uint16_t>(pairs[i].first >> 32);
      if (groups == 0 || present[groups - 1] != code) {
        present[groups++] = code;
      }
      table[(groups - 1) * num_classes + (pairs[i].first & 0xFFFFFFFF)] +=
          pairs[i].second;
    }
    cand.groups = groups;
  }
}

DecisionTree::SplitResult DecisionTree::ScanCodes(
    const TrainingCodes& codes, size_t feature, const uint32_t* table,
    size_t num_groups, const uint16_t* present,
    const std::vector<uint32_t>& class_counts, SearchScratch& scratch,
    std::vector<uint32_t>& best_left) const {
  SplitResult out;
  size_t num_classes = classes_.size();
  std::vector<double>& parent = scratch.parent;
  std::vector<double>& left = scratch.left;
  std::vector<double>& right = scratch.right;
  parent.assign(class_counts.begin(), class_counts.end());
  double total = 0;
  for (double c : parent) total += c;
  double parent_impurity = Gini(parent, total);

  // Every boundary between two adjacent present codes is a candidate;
  // empty codes are skipped, so each side always holds rows.
  left.assign(num_classes, 0.0);
  right.resize(num_classes);
  double left_total = 0;
  size_t num_codes = codes.num_codes(feature);
  size_t prev = num_codes;  // no present code yet
  size_t right_code = 0;
  for (size_t i = 0; i < num_groups; ++i) {
    size_t code = present == nullptr ? i : present[i];
    const uint32_t* code_counts = table + i * num_classes;
    uint64_t present_weight = 0;
    for (size_t c = 0; c < num_classes; ++c) present_weight += code_counts[c];
    if (present_weight == 0) continue;
    if (prev != num_codes) {
      double right_total = total - left_total;
      for (size_t c = 0; c < num_classes; ++c) right[c] = parent[c] - left[c];
      double weighted = (left_total / total) * Gini(left, left_total) +
                        (right_total / total) * Gini(right, right_total);
      double decrease = parent_impurity - weighted;
      if (decrease > 1e-12 &&
          (!out.found || decrease > out.impurity_decrease)) {
        out.found = true;
        out.feature = feature;
        out.left_code = static_cast<uint16_t>(prev);
        out.impurity_decrease = decrease;
        right_code = code;
        best_left.resize(num_classes);
        for (size_t c = 0; c < num_classes; ++c) {
          best_left[c] = static_cast<uint32_t>(left[c]);
        }
      }
    }
    for (size_t c = 0; c < num_classes; ++c) left[c] += code_counts[c];
    left_total += static_cast<double>(present_weight);
    prev = code;
  }
  if (out.found) {
    out.threshold = codes.Threshold(feature, out.left_code,
                                    static_cast<uint16_t>(right_code));
  }
  return out;
}

int DecisionTree::ComputeDepth() const {
  std::vector<int> depth(nodes_.size(), 0);
  int deepest = 0;
  for (size_t k = 0; k < nodes_.size(); ++k) {
    if (IsLeaf(k)) {
      deepest = std::max(deepest, depth[k]);
      continue;
    }
    for (uint32_t child : nodes_[k].children) {
      depth[child] = std::max(depth[child], depth[k] + 1);
    }
  }
  return deepest;
}

void DecisionTree::AddDistribution(const FeatureView* features, size_t begin,
                                   size_t end, double* out) const {
  size_t num_classes = classes_.size();
  const Node* nodes = nodes_.data();
  uint32_t at[kWalkRows] = {};
  for (size_t first = begin; first < end; first += kWalkRows) {
    size_t n = std::min(kWalkRows, end - first);
    // Every row takes exactly depth_ steps, so the loops carry no
    // data-dependent branch: a row whose leaf is shallower than the tree
    // loops on it. !(v > t) sends NaN left, as fitting did.
    std::fill_n(at, n, 0);
    for (int level = 0; level < depth_; ++level) {
      for (size_t i = 0; i < n; ++i) {
        const Node& node = nodes[at[i]];
        at[i] = node.children[features[node.feature][first + i] >
                              node.threshold];
      }
    }
    for (size_t i = 0; i < n; ++i, out += num_classes) {
      const float* probs = probs_.data() + at[i] * num_classes;
      for (size_t c = 0; c < num_classes; ++c) out[c] += probs[c];
    }
  }
}

Result<std::vector<double>> DecisionTree::PredictDistribution(
    const Matrix& x) const {
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
  size_t num_classes = classes_.size();
  for (size_t k = 0; k < nodes_.size(); ++k) {
    if (IsLeaf(k)) {
      // A leaf is stored as feature -1, threshold 0, children 0.
      writer->WriteI32(-1);
      writer->WriteDouble(0);
      writer->WriteU32(0);
      writer->WriteU32(0);
      writer->WriteVarint(num_classes);
      for (size_t c = 0; c < num_classes; ++c) {
        writer->WriteDouble(probs_[k * num_classes + c]);
      }
      continue;
    }
    const Node& node = nodes_[k];
    writer->WriteI32(node.feature);
    writer->WriteDouble(node.threshold);
    writer->WriteU32(node.children[0]);
    writer->WriteU32(node.children[1]);
    writer->WriteVarint(0);
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
  // probs_ holds num_classes floats per node. Every leaf stores as many
  // doubles, and a tree has more leaves than splits, so a valid tree's
  // bytes hold at least 4 per node and class.
  if (num_classes > 0 && num_nodes > reader->remaining() / 4 / num_classes) {
    return Status::ParseError(
        "corrupt tree: node count exceeds the leaf distributions' bytes");
  }
  tree->nodes_.resize(num_nodes);
  tree->probs_.assign(num_nodes * num_classes, 0.0f);
  std::vector<uint8_t> parents(num_nodes, 0);
  for (size_t i = 0; i < num_nodes; ++i) {
    Node& node = tree->nodes_[i];
    MLCS_ASSIGN_OR_RETURN(int32_t feature, reader->ReadI32());
    MLCS_ASSIGN_OR_RETURN(node.threshold, reader->ReadDouble());
    MLCS_ASSIGN_OR_RETURN(node.children[0], reader->ReadU32());
    MLCS_ASSIGN_OR_RETURN(node.children[1], reader->ReadU32());
    MLCS_ASSIGN_OR_RETURN(
        uint64_t np, reader->ReadCount(sizeof(double), "leaf probability"));
    if (feature < 0) {
      // Leaf: PredictProba indexes its distribution by class position.
      if (np != num_classes) {
        return Status::ParseError(
            "corrupt tree: leaf distribution does not match the classes");
      }
      for (uint64_t c = 0; c < num_classes; ++c) {
        MLCS_ASSIGN_OR_RETURN(double p, reader->ReadDouble());
        tree->probs_[i * num_classes + c] = static_cast<float>(p);
      }
      node = Node{};
      node.children[0] = node.children[1] = static_cast<uint32_t>(i);
      continue;
    }
    if (np != 0) {
      return Status::ParseError("corrupt tree: split carries a distribution");
    }
    if (static_cast<uint64_t>(feature) >= nf) {
      return Status::ParseError("corrupt tree: split feature out of range");
    }
    // The walk's !(v > t) matches fitting's NaN-or-<= rule only for a
    // number; fitting never makes a NaN threshold.
    if (std::isnan(node.threshold)) {
      return Status::ParseError("corrupt tree: split threshold is NaN");
    }
    node.feature = feature;
    // Fit appends children after their parent, so parent < child holds in
    // every valid tree and rules out cycles; one parent per node rules out
    // shared subtrees, so the tree is a tree.
    for (uint32_t child : node.children) {
      if (child <= i || child >= num_nodes) {
        return Status::ParseError("corrupt tree: child index out of range");
      }
      if (parents[child]++ != 0) {
        return Status::ParseError("corrupt tree: node has two parents");
      }
    }
  }
  // The walk takes depth_ steps per row; fitting stops at max_depth.
  tree->depth_ = tree->ComputeDepth();
  if (tree->depth_ > std::max(options.max_depth, 0)) {
    return Status::ParseError("corrupt tree: deeper than its max_depth");
  }
  return tree;
}

}  // namespace mlcs::ml
