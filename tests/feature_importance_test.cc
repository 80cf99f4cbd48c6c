#include <gtest/gtest.h>

#include "common/random.h"
#include "ml/decision_tree.h"

namespace mlcs::ml {
namespace {

/// Feature 0 fully determines the class; features 1 and 2 are pure noise.
void MakeData(size_t n, Matrix* x, Labels* y, uint64_t seed = 2) {
  Rng rng(seed);
  *x = Matrix(n, 3);
  y->resize(n);
  for (size_t i = 0; i < n; ++i) {
    int32_t cls = static_cast<int32_t>(rng.NextBounded(2));
    x->Set(i, 0, cls * 6.0 + rng.NextGaussian());
    x->Set(i, 1, rng.NextGaussian());
    x->Set(i, 2, rng.NextGaussian());
    (*y)[i] = cls;
  }
}

TEST(FeatureImportanceTest, TreeIdentifiesInformativeFeature) {
  Matrix x;
  Labels y;
  MakeData(600, &x, &y);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(x, y).ok());
  const auto& imp = tree.feature_importances();
  ASSERT_EQ(imp.size(), 3u);
  double total = imp[0] + imp[1] + imp[2];
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(imp[0], 0.8);  // the signal feature dominates
  EXPECT_GT(imp[0], imp[1]);
  EXPECT_GT(imp[0], imp[2]);
}

TEST(FeatureImportanceTest, SingleLeafTreeHasZeroImportances) {
  Matrix x(10, 2);
  Labels y(10, 1);  // pure
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(x, y).ok());
  for (double v : tree.feature_importances()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(FeatureImportanceTest, ImportancesSurviveSerialization) {
  Matrix x;
  Labels y;
  MakeData(300, &x, &y, 6);
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(x, y).ok());
  ByteWriter w;
  tree.Serialize(&w);
  ByteReader r(w.data());
  auto back = DecisionTree::DeserializeBody(&r).ValueOrDie();
  ASSERT_EQ(back->feature_importances().size(), 3u);
  for (size_t f = 0; f < 3; ++f) {
    EXPECT_DOUBLE_EQ(back->feature_importances()[f],
                     tree.feature_importances()[f]);
  }
}

}  // namespace
}  // namespace mlcs::ml
