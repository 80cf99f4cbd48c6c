#ifndef MLCS_ML_DECISION_TREE_H_
#define MLCS_ML_DECISION_TREE_H_

#include <memory>
#include <vector>

#include "ml/model.h"
#include "ml/training_codes.h"

namespace mlcs::ml {

struct DecisionTreeOptions {
  int max_depth = 16;
  size_t min_samples_split = 2;
  size_t min_samples_leaf = 1;
  /// Features considered per split; 0 = all (plain CART). Random forests
  /// set this to ~sqrt(d).
  size_t max_features = 0;
  /// Value codes per feature (TrainingCodes): a feature with at most this
  /// many distinct values splits exactly, one with more is cut into this
  /// many equal-frequency ranges once per fit. `exact_splits` lifts the
  /// bound to TrainingCodes::kMaxValueCodes, so every distinct value up
  /// to that count is a candidate boundary (CART's exact splitter).
  int num_bins = 255;
  bool exact_splits = false;
  uint64_t seed = 42;

  /// Value codes per feature the fit's coding pass may use.
  size_t max_codes() const;
};

/// CART decision-tree classifier (gini impurity). NaN feature values are
/// routed to the left child at both fit and predict time.
class DecisionTree : public Model {
 public:
  explicit DecisionTree(DecisionTreeOptions options = {});

  ModelType type() const override { return ModelType::kDecisionTree; }
  /// Codes the matrix once (TrainingCodes, DESIGN.md §14) and
  /// grows the tree from per-code class counts.
  Status Fit(const Matrix& x, const Labels& y) override;
  /// Each row's leaf distribution (AddDistribution).
  Result<std::vector<double>> PredictDistribution(
      const Matrix& x) const override;
  const std::vector<int32_t>& classes() const override { return classes_; }
  std::string ParamsString() const override;
  void Serialize(ByteWriter* writer) const override;

  /// Grows the tree on `rows` of an already-coded training set, each row
  /// counted `weights[i]` times (a bootstrap sample as per-row draw
  /// counts), adopting its class set — how a random forest codes once and
  /// grows every tree from the same codes. `rows` must be strictly
  /// ascending row ids of `codes`, every weight positive and their sum
  /// at most 2^32 - 1 (class counts are uint32). Each row's class index
  /// travels with its id and weight as nodes partition the sample, and a
  /// node counts all its candidate features in one pass over its rows.
  /// `parallel` splits a large node's candidates into contiguous slices
  /// on the global pool, each counted by the same pass over the rows; the
  /// tree does not depend on it.
  Status FitCoded(const TrainingCodes& codes, std::vector<uint32_t> rows,
                  std::vector<uint32_t> weights, bool parallel);

  /// Adds the leaf class distribution (class-index space) of rows
  /// [begin, end) into `out`, num_classes doubles per row; the forest sums
  /// these across trees. `features` holds num_features views
  /// (Matrix::views). Rows walk the tree in groups of kWalkRows,
  /// level by level, each taking exactly the tree's depth in steps
  /// (DESIGN.md §4).
  void AddDistribution(const FeatureView* features, size_t begin, size_t end,
                       double* out) const;

  size_t num_features() const { return num_features_; }

  size_t num_nodes() const { return nodes_.size(); }

  /// Per-feature importance: total gini impurity decrease weighted by node
  /// size, normalized to sum to 1 (sklearn's feature_importances_).
  /// Empty before fitting; all-zero when the tree is a single leaf.
  const std::vector<double>& feature_importances() const {
    return feature_importances_;
  }

  static Result<std::unique_ptr<DecisionTree>> DeserializeBody(
      ByteReader* reader);

  const DecisionTreeOptions& options() const { return options_; }

 private:
  /// Rows one level-synchronous walk carries down a tree together.
  static constexpr size_t kWalkRows = 32;

  /// A split sends a row to children[v > threshold]: NaN and v <= threshold
  /// go left. A leaf's children are itself and its feature is 0, so a walk
  /// that reaches it stays there; its class distribution is the node's
  /// row of probs_.
  struct Node {
    int32_t feature = 0;
    double threshold = 0;
    uint32_t children[2] = {0, 0};
  };

  struct SplitResult {
    bool found = false;
    size_t feature = 0;
    /// Codes <= left_code go left.
    uint16_t left_code = 0;
    double threshold = 0;
    double impurity_decrease = 0;
  };
  /// Per-fit state BuildNode threads through the recursion.
  struct Grower;
  /// One candidate feature of the node being split: where its class
  /// counts sit in the grower's shared table, and its best boundary.
  struct Candidate;
  /// Scratch one task of a split search reuses from node to node.
  struct SearchScratch;

  /// Grows the node over rows [begin, end) of the grower's row buffer,
  /// whose class counts (row weights summed per class) are
  /// `class_counts`.
  uint32_t BuildNode(Grower& g, size_t begin, size_t end,
                     std::vector<uint32_t> class_counts, int depth);
  /// Best split of rows [begin, end) over g.features; the winner's left
  /// class counts land in g.best_left.
  SplitResult FindBestSplit(Grower& g, size_t begin, size_t end,
                            const std::vector<uint32_t>& class_counts) const;
  /// Counts candidates [first, last) of the node over rows [begin, end)
  /// in one pass: each row's id, weight and class are read once, then
  /// each candidate's code of the row is gathered into its table.
  void CountCandidates(Grower& g, size_t begin, size_t end, size_t first,
                       size_t last, SearchScratch& scratch) const;
  /// Best boundary between the present codes of one feature's class
  /// counts: `num_groups` rows of num_classes counts in `table`, one per
  /// code, or, when `present` is non-null, one per listed code
  /// (ascending). The winner's left class counts land in `best_left`.
  SplitResult ScanCodes(const TrainingCodes& codes, size_t feature,
                        const uint32_t* table, size_t num_groups,
                        const uint16_t* present,
                        const std::vector<uint32_t>& class_counts,
                        SearchScratch& scratch,
                        std::vector<uint32_t>& best_left) const;
  uint32_t MakeLeaf(const std::vector<uint32_t>& class_counts);
  bool IsLeaf(size_t node) const { return nodes_[node].children[0] == node; }
  /// The longest root-to-leaf path, a max over every parent; children
  /// follow their parents in nodes_.
  int ComputeDepth() const;

  DecisionTreeOptions options_;
  std::vector<int32_t> classes_;
  size_t num_features_ = 0;
  std::vector<Node> nodes_;
  /// num_classes floats per node, in node order: a leaf's class
  /// distribution, zeros for a split.
  std::vector<float> probs_;
  /// The longest root-to-leaf path (0 for a single leaf). Set once by
  /// FitCoded or DeserializeBody, so threads sharing a model read it
  /// without synchronization.
  int depth_ = 0;
  std::vector<double> feature_importances_;
};

}  // namespace mlcs::ml

#endif  // MLCS_ML_DECISION_TREE_H_
