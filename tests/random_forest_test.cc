#include "ml/random_forest.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "ml/metrics.h"
#include "ml/pickle.h"
#include "ml/split.h"
#include "obs/trace.h"
#include "storage/column.h"

namespace mlcs::ml {
namespace {

/// Noisy XOR-ish problem a single stump cannot solve but a forest can.
void MakeXor(size_t n, Matrix* x, Labels* y, uint64_t seed = 3) {
  Rng rng(seed);
  *x = Matrix(n, 2);
  y->resize(n);
  for (size_t i = 0; i < n; ++i) {
    double a = rng.NextDouble() * 2 - 1;
    double b = rng.NextDouble() * 2 - 1;
    x->Set(i, 0, a);
    x->Set(i, 1, b);
    (*y)[i] = (a * b > 0) ? 1 : 0;
  }
}

TEST(RandomForestTest, LearnsXor) {
  Matrix x;
  Labels y;
  MakeXor(1000, &x, &y);
  RandomForestOptions opt;
  opt.n_estimators = 12;
  RandomForest forest(opt);
  ASSERT_TRUE(forest.Fit(x, y).ok());
  EXPECT_EQ(forest.num_trees(), 12u);
  double acc = Accuracy(y, forest.Predict(x).ValueOrDie()).ValueOrDie();
  EXPECT_GT(acc, 0.9);
}

TEST(RandomForestTest, GeneralizesToHeldOutData) {
  Matrix x;
  Labels y;
  MakeXor(2000, &x, &y, 11);
  auto split = TrainTestSplit(2000, 0.3, 5).ValueOrDie();
  Matrix xtr = x.SelectRows(split.train);
  Matrix xte = x.SelectRows(split.test);
  Labels ytr, yte;
  for (auto i : split.train) ytr.push_back(y[i]);
  for (auto i : split.test) yte.push_back(y[i]);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(xtr, ytr).ok());
  double acc = Accuracy(yte, forest.Predict(xte).ValueOrDie()).ValueOrDie();
  EXPECT_GT(acc, 0.85);
}

TEST(RandomForestTest, DeterministicAcrossParallelAndSerialFit) {
  Matrix x;
  Labels y;
  MakeXor(500, &x, &y, 7);
  RandomForestOptions serial;
  serial.parallel_fit = false;
  serial.n_estimators = 6;
  RandomForestOptions parallel = serial;
  parallel.parallel_fit = true;
  RandomForest a(serial), b(parallel);
  ASSERT_TRUE(a.Fit(x, y).ok());
  ASSERT_TRUE(b.Fit(x, y).ok());
  EXPECT_EQ(a.Predict(x).ValueOrDie(), b.Predict(x).ValueOrDie());
  auto pa = a.PredictProba(x, 1).ValueOrDie();
  auto pb = b.PredictProba(x, 1).ValueOrDie();
  for (size_t i = 0; i < pa.size(); ++i) EXPECT_DOUBLE_EQ(pa[i], pb[i]);
}

/// A traced fit records the forest, its coding pass and one span per
/// tree under it, whichever pool thread grew the tree; nodes add none.
TEST(RandomForestTest, FitTracesForestCodesAndEachTree) {
  Matrix x;
  Labels y;
  MakeXor(2000, &x, &y, 5);
  RandomForestOptions opt;
  opt.n_estimators = 8;
  RandomForest forest(opt);
  std::vector<obs::TraceSpan> spans;
  {
    obs::TraceContext trace("test.fit", /*force=*/true);
    ASSERT_TRUE(forest.Fit(x, y).ok());
    spans = trace.ConsumeSpans();
  }
  ASSERT_EQ(spans.size(), 11u);  // the root, forest.fit, codes.build, 8 trees
  uint32_t forest_id = 0;
  for (const obs::TraceSpan& s : spans) {
    if (s.name == "forest.fit") {
      EXPECT_EQ(s.parent_id, 1u);
      EXPECT_EQ(s.rows_in, 2000u);
      forest_id = s.span_id;
    }
  }
  ASSERT_NE(forest_id, 0u);
  size_t trees = 0;
  size_t codes = 0;
  for (const obs::TraceSpan& s : spans) {
    if (s.name == "tree.fit") {
      ++trees;
      EXPECT_EQ(s.parent_id, forest_id);
    } else if (s.name == "codes.build") {
      ++codes;
      EXPECT_EQ(s.parent_id, forest_id);
    }
  }
  EXPECT_EQ(trees, 8u);
  EXPECT_EQ(codes, 1u);
}

TEST(RandomForestTest, ProbaSumsToOne) {
  Matrix x;
  Labels y;
  MakeXor(300, &x, &y);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(x, y).ok());
  auto p0 = forest.PredictProba(x, 0).ValueOrDie();
  auto p1 = forest.PredictProba(x, 1).ValueOrDie();
  auto conf = forest.PredictConfidence(x).ValueOrDie();
  for (size_t i = 0; i < x.rows(); ++i) {
    // Tree leaf distributions are floats; allow float accumulation error.
    EXPECT_NEAR(p0[i] + p1[i], 1.0, 1e-6);
    EXPECT_NEAR(conf[i], std::max(p0[i], p1[i]), 1e-6);
  }
}

TEST(RandomForestTest, MulticlassSupport) {
  Rng rng(8);
  Matrix x(600, 2);
  Labels y(600);
  for (size_t i = 0; i < 600; ++i) {
    int32_t cls = static_cast<int32_t>(rng.NextBounded(3));
    x.Set(i, 0, cls * 4.0 + rng.NextGaussian());
    x.Set(i, 1, cls * 4.0 + rng.NextGaussian());
    y[i] = cls * 10;  // labels 0, 10, 20
  }
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(x, y).ok());
  EXPECT_EQ(forest.classes(), (std::vector<int32_t>{0, 10, 20}));
  EXPECT_GT(Accuracy(y, forest.Predict(x).ValueOrDie()).ValueOrDie(), 0.9);
}

TEST(RandomForestTest, InvalidOptionsRejected) {
  Matrix x(3, 1);
  Labels y = {0, 1, 0};
  RandomForestOptions opt;
  opt.n_estimators = 0;
  RandomForest forest(opt);
  EXPECT_FALSE(forest.Fit(x, y).ok());
}

TEST(RandomForestTest, SerializationRoundTripPreservesEverything) {
  Matrix x;
  Labels y;
  MakeXor(400, &x, &y, 13);
  RandomForestOptions opt;
  opt.n_estimators = 5;
  RandomForest forest(opt);
  ASSERT_TRUE(forest.Fit(x, y).ok());
  ByteWriter w;
  forest.Serialize(&w);
  ByteReader r(w.data());
  auto back = RandomForest::DeserializeBody(&r).ValueOrDie();
  EXPECT_EQ(back->num_trees(), 5u);
  EXPECT_EQ(back->classes(), forest.classes());
  EXPECT_EQ(forest.Predict(x).ValueOrDie(), back->Predict(x).ValueOrDie());
  auto pa = forest.PredictConfidence(x).ValueOrDie();
  auto pb = back->PredictConfidence(x).ValueOrDie();
  for (size_t i = 0; i < pa.size(); ++i) EXPECT_NEAR(pa[i], pb[i], 1e-12);
}

/// FNV-1a 64 of a model's pickle bytes.
uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Four Gaussian features; the label is a noisy function of three of
/// them, so trees grow deep and leaves stay impure.
void MakeNoisy(size_t n, int32_t num_classes, Matrix* x, Labels* y) {
  Rng rng(17);
  *x = Matrix(n, 4);
  y->resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < 4; ++c) x->Set(i, c, rng.NextGaussian());
    double s = x->At(i, 0) + 0.5 * x->At(i, 1) * x->At(i, 2) +
               0.7 * rng.NextGaussian();
    int32_t cls = static_cast<int32_t>(std::floor(s + num_classes / 2.0));
    (*y)[i] = std::clamp(cls, 0, num_classes - 1);
  }
}

/// A fitted model's pickle bytes and its PredictDistribution over the
/// input it was fitted on.
struct GoldenFit {
  std::string model_bytes;
  std::vector<double> distribution;
};

struct GoldenCase {
  const char* name;
  std::function<GoldenFit()> fit;
  uint64_t model_hash;
  uint64_t prediction_hash;
};

GoldenFit Pin(const Model& model, const Matrix& x) {
  auto dist = model.PredictDistribution(x);
  EXPECT_TRUE(dist.ok()) << dist.status().ToString();
  return {pickle::Dumps(model), dist.ValueOr({})};
}

GoldenFit FitForest(const Matrix& x, const Labels& y,
                    RandomForestOptions opt) {
  RandomForest forest(opt);
  Status st = forest.Fit(x, y);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return Pin(forest, x);
}

/// Four INTEGER columns with small, negative, wide (past 255 values) and
/// very wide ranges, and labels drawn from them.
void MakeIntegerColumns(std::vector<ColumnPtr>* cols, Labels* y) {
  Rng rng(23);
  const size_t n = 3000;
  const int32_t spans[] = {3, 40, 1000, 2000000};
  cols->clear();
  for (int32_t span : spans) {
    std::vector<int32_t> v(n);
    for (int32_t& e : v) {
      e = static_cast<int32_t>(rng.NextBounded(span)) - span / 2;
    }
    cols->push_back(mlcs::Column::FromInt32(std::move(v)));
  }
  y->resize(n);
  const std::vector<ColumnPtr>& c = *cols;
  for (size_t r = 0; r < n; ++r) {
    int64_t s = int64_t{c[0]->i32_data()[r]} * 300 +
                c[1]->i32_data()[r] * 10 + c[2]->i32_data()[r] / 2 +
                c[3]->i32_data()[r] / 4000 +
                static_cast<int64_t>(rng.NextBounded(400));
    (*y)[r] = s > 200;
  }
}

RandomForestOptions IntegerColumnsOptions() {
  RandomForestOptions opt;
  opt.n_estimators = 6;
  return opt;
}

std::vector<GoldenCase> GoldenCases() {
  return {
      {"default_bootstrap",
       [] {
         Matrix x;
         Labels y;
         MakeNoisy(1500, 2, &x, &y);
         return FitForest(x, y, {});
       },
       0x79378f991912a02eULL,
       0x182041259c0a2166ULL},
      {"min_leaf_5_min_split_20",
       [] {
         Matrix x;
         Labels y;
         MakeNoisy(1500, 2, &x, &y);
         RandomForestOptions opt;
         opt.n_estimators = 6;
         opt.min_samples_leaf = 5;
         opt.min_samples_split = 20;
         return FitForest(x, y, opt);
       },
       0xde3e25bb16e471f3ULL,
       0xeeb026ec132ba68dULL},
      {"no_bootstrap",
       [] {
         Matrix x;
         Labels y;
         MakeNoisy(1500, 2, &x, &y);
         RandomForestOptions opt;
         opt.n_estimators = 4;
         opt.bootstrap = false;
         return FitForest(x, y, opt);
       },
       0x32d252c2f4bf34dbULL,
       0xfee8d1b3c9062f27ULL},
      {"three_classes",
       [] {
         Matrix x;
         Labels y;
         MakeNoisy(1500, 3, &x, &y);
         RandomForestOptions opt;
         opt.n_estimators = 6;
         return FitForest(x, y, opt);
       },
       0x1df3904b70f07d1bULL,
       0x0f981e3b57b52470ULL},
      {"exact_tree_with_nans",
       [] {
         Matrix x;
         Labels y;
         MakeNoisy(1200, 2, &x, &y);
         for (size_t i = 0; i < x.rows(); i += 7) {
           x.Set(i, i % 4, std::numeric_limits<double>::quiet_NaN());
         }
         DecisionTreeOptions opt;
         opt.max_depth = 20;
         opt.exact_splits = true;
         DecisionTree tree(opt);
         EXPECT_TRUE(tree.Fit(x, y).ok());
         return Pin(tree, x);
       },
       0x7120a8e32d642690ULL,
       0x0fbb324122bb54a4ULL},
      {"exact_bootstrap_forest_with_nans",
       [] {
         Matrix x;
         Labels y;
         MakeNoisy(1200, 2, &x, &y);
         for (size_t i = 0; i < x.rows(); i += 5) {
           x.Set(i, (i / 5) % 4, std::numeric_limits<double>::quiet_NaN());
         }
         RandomForestOptions opt;
         opt.n_estimators = 3;
         opt.max_depth = 20;
         opt.exact_splits = true;
         return FitForest(x, y, opt);
       },
       0x8c2dd051ada509d2ULL,
       0x4ff0a72792019c88ULL},
      {"integer_columns",
       [] {
         std::vector<ColumnPtr> cols;
         Labels y;
         MakeIntegerColumns(&cols, &y);
         return FitForest(Matrix::FromColumns(cols).ValueOrDie(), y,
                          IntegerColumnsOptions());
       },
       0x54177a94fe14e5daULL,
       0xea59d4f31ba332baULL},
      {"integer_columns_as_owned_doubles",
       [] {
         // The same integral values as owned doubles (the external
         // channels' df.values copy) must grow the same forest.
         std::vector<ColumnPtr> cols;
         Labels y;
         MakeIntegerColumns(&cols, &y);
         return FitForest(Matrix::CopyColumns(cols).ValueOrDie(), y,
                          IntegerColumnsOptions());
       },
       0x54177a94fe14e5daULL,
       0xea59d4f31ba332baULL},
  };
}

/// Pins the exact bytes of fitted models: any change to coding, bootstrap
/// sampling or split search that alters a tree changes a hash.
TEST(RandomForestTest, GoldenModelBytes) {
  for (const GoldenCase& c : GoldenCases()) {
    std::string bytes = c.fit().model_bytes;
    EXPECT_EQ(Fnv1a64(bytes), c.model_hash)
        << c.name << ": 0x" << std::hex << Fnv1a64(bytes) << std::dec
        << " over " << bytes.size() << " bytes";
  }
}

/// Pins the exact bytes of the same fits' predicted distributions: any
/// change to the tree walk or to how leaves are summed changes a hash.
TEST(RandomForestTest, GoldenPredictionBytes) {
  for (const GoldenCase& c : GoldenCases()) {
    std::vector<double> dist = c.fit().distribution;
    std::string bytes(reinterpret_cast<const char*>(dist.data()),
                      dist.size() * sizeof(double));
    EXPECT_EQ(Fnv1a64(bytes), c.prediction_hash)
        << c.name << ": 0x" << std::hex << Fnv1a64(bytes) << std::dec
        << " over " << dist.size() << " doubles";
  }
}

/// n_estimators sweep: more trees should not reduce training accuracy
/// dramatically, and all sweeps stay above a floor.
class ForestSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ForestSweepTest, AccuracyFloorAcrossForestSizes) {
  Matrix x;
  Labels y;
  MakeXor(600, &x, &y, 21);
  RandomForestOptions opt;
  opt.n_estimators = GetParam();
  RandomForest forest(opt);
  ASSERT_TRUE(forest.Fit(x, y).ok());
  EXPECT_GT(Accuracy(y, forest.Predict(x).ValueOrDie()).ValueOrDie(), 0.85);
}

INSTANTIATE_TEST_SUITE_P(Estimators, ForestSweepTest,
                         ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace mlcs::ml
