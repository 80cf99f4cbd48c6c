#include "ml/decision_tree.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "ml/metrics.h"
#include "ml/training_codes.h"

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
  auto codes = TrainingCodes::Build(TrainingSource::FromMatrix(x),
                                    {0, 1, 0, 1, 1}, {0, 1}, 255, false);
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
