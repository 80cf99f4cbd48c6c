#include "ml/decision_tree.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "common/byte_buffer.h"
#include "common/random.h"
#include "ml/metrics.h"
#include "ml/training_codes.h"
#include "storage/column.h"

namespace mlcs::ml {
namespace {

/// Two well-separated gaussian blobs in 2-D: class 0 near (0,0),
/// class 1 near (5,5).
void MakeBlobs(size_t n, Matrix* x, Labels* y, uint64_t seed = 1) {
  Rng rng(seed);
  *x = Matrix(n, 2);
  y->resize(n);
  for (size_t i = 0; i < n; ++i) {
    int32_t cls = static_cast<int32_t>(rng.NextBounded(2));
    double cx = cls == 0 ? 0.0 : 5.0;
    x->Set(i, 0, cx + rng.NextGaussian());
    x->Set(i, 1, cx + rng.NextGaussian());
    (*y)[i] = cls;
  }
}

TEST(DecisionTreeTest, LearnsSeparableBlobs) {
  Matrix x;
  Labels y;
  MakeBlobs(500, &x, &y);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(x, y).ok());
  Labels pred = tree.Predict(x).ValueOrDie();
  double acc = Accuracy(y, pred).ValueOrDie();
  EXPECT_GT(acc, 0.95);
}

TEST(DecisionTreeTest, ExactSplitterPerfectOnAxisAlignedData) {
  // y = x0 > 2, exactly learnable with one split.
  Matrix x(100, 1);
  Labels y(100);
  for (size_t i = 0; i < 100; ++i) {
    x.Set(i, 0, static_cast<double>(i));
    y[i] = i > 50 ? 1 : 0;
  }
  DecisionTreeOptions opt;
  opt.exact_splits = true;
  DecisionTree tree(opt);
  ASSERT_TRUE(tree.Fit(x, y).ok());
  Labels pred = tree.Predict(x).ValueOrDie();
  EXPECT_DOUBLE_EQ(Accuracy(y, pred).ValueOrDie(), 1.0);
}

TEST(DecisionTreeTest, RespectsMaxDepth) {
  Matrix x;
  Labels y;
  MakeBlobs(300, &x, &y);
  DecisionTreeOptions opt;
  opt.max_depth = 1;
  DecisionTree stump(opt);
  ASSERT_TRUE(stump.Fit(x, y).ok());
  EXPECT_LE(stump.num_nodes(), 3u);  // root + two leaves
}

TEST(DecisionTreeTest, PureInputIsSingleLeaf) {
  Matrix x(10, 1);
  Labels y(10, 7);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(x, y).ok());
  EXPECT_EQ(tree.num_nodes(), 1u);
  Labels pred = tree.Predict(x).ValueOrDie();
  for (int32_t p : pred) EXPECT_EQ(p, 7);
}

TEST(DecisionTreeTest, ArbitraryLabelValues) {
  Matrix x;
  Labels y;
  MakeBlobs(200, &x, &y);
  for (auto& v : y) v = v == 0 ? -100 : 42;  // remapped labels
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(x, y).ok());
  EXPECT_EQ(tree.classes(), (std::vector<int32_t>{-100, 42}));
  Labels pred = tree.Predict(x).ValueOrDie();
  EXPECT_GT(Accuracy(y, pred).ValueOrDie(), 0.95);
}

TEST(DecisionTreeTest, ProbaAndConfidenceConsistent) {
  Matrix x;
  Labels y;
  MakeBlobs(300, &x, &y);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(x, y).ok());
  auto p0 = tree.PredictProba(x, 0).ValueOrDie();
  auto p1 = tree.PredictProba(x, 1).ValueOrDie();
  auto conf = tree.PredictConfidence(x).ValueOrDie();
  for (size_t i = 0; i < x.rows(); ++i) {
    EXPECT_NEAR(p0[i] + p1[i], 1.0, 1e-6);
    EXPECT_NEAR(conf[i], std::max(p0[i], p1[i]), 1e-6);
    EXPECT_GE(conf[i], 0.5 - 1e-9);
  }
  EXPECT_FALSE(tree.PredictProba(x, 99).ok());  // unseen class
}

TEST(DecisionTreeTest, InputValidation) {
  DecisionTree tree;
  Matrix empty;
  Labels none;
  EXPECT_FALSE(tree.Fit(empty, none).ok());
  Matrix x(3, 1);
  Labels y = {0, 1};
  EXPECT_FALSE(tree.Fit(x, y).ok());  // length mismatch
  // Predict before fit.
  EXPECT_FALSE(tree.Predict(x).ok());
  // Feature-count mismatch after fit.
  Labels y3 = {0, 1, 0};
  Matrix x1(3, 1);
  x1.Set(0, 0, 1);
  x1.Set(1, 0, 2);
  x1.Set(2, 0, 3);
  ASSERT_TRUE(tree.Fit(x1, y3).ok());
  Matrix x2(3, 2);
  EXPECT_FALSE(tree.Predict(x2).ok());
}

/// Five coded rows of one feature, two classes.
TrainingCodes FiveCodedRows() {
  Matrix x(5, 1);
  for (size_t r = 0; r < 5; ++r) x.Set(r, 0, static_cast<double>(r));
  auto codes =
      TrainingCodes::Build(x, {0, 1, 0, 1, 1}, {0, 1}, 255, false);
  EXPECT_TRUE(codes.ok());
  return std::move(codes).ValueOrDie();
}

TEST(DecisionTreeTest, FitCodedAcceptsAscendingWeightedRows) {
  TrainingCodes codes = FiveCodedRows();
  DecisionTree tree;
  EXPECT_TRUE(tree.FitCoded(codes, {0, 2, 4}, {3, 1, 2}, false).ok());
  EXPECT_GT(tree.num_nodes(), 1u);
}

TEST(DecisionTreeTest, FitCodedRejectsWeightCountMismatch) {
  TrainingCodes codes = FiveCodedRows();
  DecisionTree tree;
  EXPECT_EQ(tree.FitCoded(codes, {0, 1, 2}, {1, 1}, false).code(),
            StatusCode::kInvalidArgument);
}

TEST(DecisionTreeTest, FitCodedRejectsRowsNotStrictlyAscending) {
  TrainingCodes codes = FiveCodedRows();
  DecisionTree tree;
  EXPECT_EQ(tree.FitCoded(codes, {0, 2, 1}, {1, 1, 1}, false).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(tree.FitCoded(codes, {0, 2, 2}, {1, 1, 1}, false).code(),
            StatusCode::kInvalidArgument);
}

TEST(DecisionTreeTest, FitCodedRejectsRowOutOfRange) {
  TrainingCodes codes = FiveCodedRows();
  DecisionTree tree;
  EXPECT_EQ(tree.FitCoded(codes, {0, 5}, {1, 1}, false).code(),
            StatusCode::kInvalidArgument);
}

TEST(DecisionTreeTest, FitCodedRejectsZeroWeight) {
  TrainingCodes codes = FiveCodedRows();
  DecisionTree tree;
  EXPECT_EQ(tree.FitCoded(codes, {0, 1, 3}, {1, 0, 1}, false).code(),
            StatusCode::kInvalidArgument);
}

TEST(DecisionTreeTest, FitCodedRejectsWeightsPastUint32) {
  // Class counts are uint32 sums of weights.
  TrainingCodes codes = FiveCodedRows();
  DecisionTree tree;
  EXPECT_EQ(tree.FitCoded(codes, {0, 1}, {UINT32_MAX, 1}, false).code(),
            StatusCode::kInvalidArgument);
}

/// Large nodes' split search runs on the pool, a contiguous slice of the
/// candidates per task; it must grow the tree the serial search grows.
/// Feature 0 has a distinct value per row, so with exact splits its
/// table turns sparse below 20 000 rows while the other features' stay
/// dense: nodes large enough for the pool count both forms together.
TEST(DecisionTreeTest, PooledSplitSearchMatchesSerial) {
  constexpr size_t kRows = 40000;
  constexpr size_t kCols = 8;
  constexpr int32_t kClasses = 8;
  Rng rng(11);
  Matrix x(kRows, kCols);
  Labels y(kRows);
  for (size_t r = 0; r < kRows; ++r) {
    double v0 = rng.NextDouble() * 1000.0;
    x.Set(r, 0, v0);
    double sum = v0 / 250.0;
    for (size_t c = 1; c < kCols; ++c) {
      auto v = static_cast<double>(rng.NextBounded(4 + 3 * c));
      x.Set(r, c, v);
      if (c < 3) sum += v / static_cast<double>(2 + c);
    }
    y[r] = static_cast<int32_t>(sum + rng.NextBounded(2)) % kClasses;
  }
  DecisionTreeOptions opt;
  opt.exact_splits = true;
  opt.max_depth = 8;
  std::vector<int32_t> classes(kClasses);
  std::iota(classes.begin(), classes.end(), 0);
  auto codes =
      TrainingCodes::Build(x, y, classes, opt.max_codes(), false);
  ASSERT_TRUE(codes.ok());
  ASSERT_GT(codes.ValueOrDie().num_codes(0), 255u);
  std::vector<uint32_t> rows(kRows);
  std::iota(rows.begin(), rows.end(), 0);
  std::vector<uint32_t> weights(kRows);
  for (size_t r = 0; r < kRows; ++r) weights[r] = 1 + r % 3;

  std::string bytes[2];
  for (bool parallel : {false, true}) {
    DecisionTree tree(opt);
    ASSERT_TRUE(
        tree.FitCoded(codes.ValueOrDie(), rows, weights, parallel).ok());
    EXPECT_GT(tree.num_nodes(), 100u);
    ByteWriter w;
    tree.Serialize(&w);
    bytes[parallel] = w.TakeString();
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(DecisionTreeTest, NaNRowsRouteLeftWithoutCrashing) {
  Matrix x(6, 1);
  Labels y = {0, 0, 0, 1, 1, 1};
  x.Set(0, 0, 1.0);
  x.Set(1, 0, 2.0);
  x.Set(2, 0, std::nan(""));
  x.Set(3, 0, 10.0);
  x.Set(4, 0, 11.0);
  x.Set(5, 0, 12.0);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(x, y).ok());
  auto pred = tree.Predict(x).ValueOrDie();
  EXPECT_EQ(pred.size(), 6u);
}

TEST(DecisionTreeTest, SerializationRoundTripPreservesPredictions) {
  Matrix x;
  Labels y;
  MakeBlobs(400, &x, &y, 9);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(x, y).ok());
  ByteWriter w;
  tree.Serialize(&w);
  ByteReader r(w.data());
  auto back = DecisionTree::DeserializeBody(&r).ValueOrDie();
  EXPECT_EQ(tree.Predict(x).ValueOrDie(), back->Predict(x).ValueOrDie());
  EXPECT_EQ(back->num_nodes(), tree.num_nodes());
}

/// One node as DecisionTree::Serialize writes it.
struct RefNode {
  int32_t feature = -1;  // -1: leaf
  double threshold = 0;
  uint32_t left = 0;
  uint32_t right = 0;
  std::vector<double> probs;
};

/// A tree's nodes read back from its serialized bytes, independent of the
/// in-memory layout the walk uses.
std::vector<RefNode> SerializedNodes(const DecisionTree& tree) {
  ByteWriter w;
  tree.Serialize(&w);
  ByteReader r(w.data());
  EXPECT_TRUE(r.ReadI32().ok());     // max_depth
  EXPECT_TRUE(r.ReadVarint().ok());  // min_samples_split
  EXPECT_TRUE(r.ReadVarint().ok());  // min_samples_leaf
  EXPECT_TRUE(r.ReadVarint().ok());  // max_features
  EXPECT_TRUE(r.ReadI32().ok());     // num_bins
  EXPECT_TRUE(r.ReadBool().ok());    // exact_splits
  EXPECT_TRUE(r.ReadU64().ok());     // seed
  uint64_t num_classes = r.ReadVarint().ValueOr(0);
  for (uint64_t c = 0; c < num_classes; ++c) EXPECT_TRUE(r.ReadI32().ok());
  EXPECT_TRUE(r.ReadVarint().ok());  // num_features
  uint64_t num_importances = r.ReadVarint().ValueOr(0);
  for (uint64_t f = 0; f < num_importances; ++f) {
    EXPECT_TRUE(r.ReadDouble().ok());
  }
  std::vector<RefNode> nodes(r.ReadVarint().ValueOr(0));
  for (RefNode& node : nodes) {
    node.feature = r.ReadI32().ValueOr(-1);
    node.threshold = r.ReadDouble().ValueOr(0);
    node.left = r.ReadU32().ValueOr(0);
    node.right = r.ReadU32().ValueOr(0);
    node.probs.resize(r.ReadVarint().ValueOr(0));
    for (double& p : node.probs) p = r.ReadDouble().ValueOr(0);
  }
  EXPECT_TRUE(r.AtEnd());
  return nodes;
}

/// The per-row recursive walk: NaN and v <= threshold go left.
const RefNode& ReferenceLeaf(const std::vector<RefNode>& nodes, size_t at,
                             const Matrix& x, size_t row) {
  const RefNode& node = nodes[at];
  if (node.feature < 0) return node;
  double v = x.view(static_cast<size_t>(node.feature))[row];
  return ReferenceLeaf(
      nodes, std::isnan(v) || v <= node.threshold ? node.left : node.right,
      x, row);
}

/// Depth of every leaf under `at`.
void LeafDepths(const std::vector<RefNode>& nodes, size_t at, int depth,
                std::vector<int>* out) {
  if (nodes[at].feature < 0) {
    out->push_back(depth);
    return;
  }
  LeafDepths(nodes, nodes[at].left, depth + 1, out);
  LeafDepths(nodes, nodes[at].right, depth + 1, out);
}

/// Checks PredictDistribution and AddDistribution over sub-ranges against
/// the reference walk, exactly.
void ExpectMatchesReference(const DecisionTree& tree,
                            const Matrix& x) {
  std::vector<RefNode> nodes = SerializedNodes(tree);
  size_t num_classes = tree.classes().size();
  std::vector<double> want(x.rows() * num_classes);
  for (size_t r = 0; r < x.rows(); ++r) {
    const RefNode& leaf = ReferenceLeaf(nodes, 0, x, r);
    ASSERT_EQ(leaf.probs.size(), num_classes);
    for (size_t c = 0; c < num_classes; ++c) {
      // Leaves hold floats; Serialize widened them to double.
      want[r * num_classes + c] = leaf.probs[c];
    }
  }
  EXPECT_EQ(tree.PredictDistribution(x).ValueOrDie(), want)
      << x.rows() << " rows";
  // A range that starts mid-group adds onto what `out` holds.
  size_t begin = std::min<size_t>(5, x.rows());
  std::vector<FeatureView> views = x.views();
  std::vector<double> out((x.rows() - begin) * num_classes, 1.0);
  tree.AddDistribution(views.data(), begin, x.rows(), out.data());
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], 1.0 + want[begin * num_classes + i]) << i;
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Three DOUBLE features (with NaN and ±inf) and three INTEGER features,
/// all read in place by Matrix::FromColumns.
std::vector<ColumnPtr> MixedColumns(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<ColumnPtr> cols;
  for (int f = 0; f < 3; ++f) {
    std::vector<double> v(n);
    for (double& e : v) {
      uint64_t pick = rng.NextBounded(20);
      e = pick == 0 ? kNaN : pick == 1 ? kInf : pick == 2 ? -kInf
                                                          : rng.NextGaussian();
    }
    cols.push_back(Column::FromDouble(std::move(v)));
  }
  for (int32_t span : {5, 60, 3000}) {
    std::vector<int32_t> v(n);
    for (int32_t& e : v) {
      e = static_cast<int32_t>(rng.NextBounded(span)) - span / 2;
    }
    cols.push_back(Column::FromInt32(std::move(v)));
  }
  return cols;
}

/// `n` probe rows over MixedColumns' features: the tree's own thresholds
/// (and their neighbours) on every split feature, NaN, ±inf and noise.
std::vector<ColumnPtr> ProbeColumns(const std::vector<RefNode>& nodes,
                                    size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> thresholds(6);
  for (const RefNode& node : nodes) {
    if (node.feature >= 0) thresholds[node.feature].push_back(node.threshold);
  }
  auto pick_threshold = [&](size_t f) {
    return thresholds[f][rng.NextBounded(thresholds[f].size())];
  };
  std::vector<ColumnPtr> cols;
  for (size_t f = 0; f < 3; ++f) {
    std::vector<double> v(n);
    for (double& e : v) {
      uint64_t pick = rng.NextBounded(thresholds[f].empty() ? 4 : 7);
      e = pick == 0   ? kNaN
          : pick == 1 ? kInf
          : pick == 2 ? -kInf
          : pick == 3 ? rng.NextGaussian()
          : pick == 4 ? pick_threshold(f)
          : pick == 5 ? std::nextafter(pick_threshold(f), kInf)
                      : std::nextafter(pick_threshold(f), -kInf);
    }
    cols.push_back(Column::FromDouble(std::move(v)));
  }
  for (size_t f = 3; f < 6; ++f) {
    std::vector<int32_t> v(n);
    for (int32_t& e : v) {
      uint64_t pick = rng.NextBounded(thresholds[f].empty() ? 1 : 3);
      double t = pick == 0 ? 0 : pick_threshold(f);
      if (pick == 0 || !(std::fabs(t) < 1e9)) {
        e = static_cast<int32_t>(rng.NextBounded(3000)) - 1500;
      } else {
        e = static_cast<int32_t>(pick == 1 ? std::floor(t) : std::ceil(t));
      }
    }
    cols.push_back(Column::FromInt32(std::move(v)));
  }
  return cols;
}

/// The fixed-step walk against the recursive reference on a fitted tree
/// with uneven leaf depths, at group-boundary row counts.
TEST(DecisionTreeTest, WalkMatchesReferenceOnMixedSource) {
  const size_t n = 3000;
  std::vector<ColumnPtr> train = MixedColumns(n, 31);
  Matrix source = Matrix::FromColumns(train).ValueOrDie();
  ASSERT_EQ(source.view(0).i32(), nullptr);
  ASSERT_NE(source.view(3).i32(), nullptr);
  Rng rng(4);
  Labels y(n);
  for (size_t r = 0; r < n; ++r) {
    double a = source.view(0)[r];
    double s = (std::isnan(a) ? 0.0 : std::clamp(a, -2.0, 2.0)) +
               source.view(4)[r] / 30.0 + source.view(5)[r] / 1500.0;
    y[r] = s + rng.NextGaussian() > 0 ? 1 : 0;
  }
  for (bool exact : {false, true}) {
    DecisionTreeOptions opt;
    opt.max_depth = exact ? 20 : 8;
    opt.exact_splits = exact;
    DecisionTree tree(opt);
    ASSERT_TRUE(tree.Fit(source, y).ok());
    std::vector<RefNode> nodes = SerializedNodes(tree);
    std::vector<int> depths;
    LeafDepths(nodes, 0, 0, &depths);
    EXPECT_LT(*std::min_element(depths.begin(), depths.end()),
              *std::max_element(depths.begin(), depths.end()));
    for (size_t rows : {0, 1, 31, 32, 33, 2049}) {
      std::vector<ColumnPtr> probe = ProbeColumns(nodes, rows, rows + 7);
      ExpectMatchesReference(tree, Matrix::FromColumns(probe).ValueOrDie());
    }
    ExpectMatchesReference(tree, source);
  }
}

TEST(DecisionTreeTest, WalkOfSingleLeafTree) {
  std::vector<ColumnPtr> train = MixedColumns(40, 8);
  Matrix source = Matrix::FromColumns(train).ValueOrDie();
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(source, Labels(40, 3)).ok());
  ASSERT_EQ(tree.num_nodes(), 1u);
  for (size_t rows : {0, 1, 31, 32, 33, 2049}) {
    std::vector<ColumnPtr> probe = MixedColumns(rows, rows);
    ExpectMatchesReference(tree, Matrix::FromColumns(probe).ValueOrDie());
  }
}

/// Property sweep: accuracy floor holds across seeds and sizes.
class TreeSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TreeSweepTest, AccuracyFloorOnBlobs) {
  auto [n, seed] = GetParam();
  Matrix x;
  Labels y;
  MakeBlobs(static_cast<size_t>(n), &x, &y, static_cast<uint64_t>(seed));
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(x, y).ok());
  EXPECT_GT(Accuracy(y, tree.Predict(x).ValueOrDie()).ValueOrDie(), 0.9);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, TreeSweepTest,
    ::testing::Combine(::testing::Values(50, 200, 1000),
                       ::testing::Values(1, 2, 3, 4)));

}  // namespace
}  // namespace mlcs::ml
