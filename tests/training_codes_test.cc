#include "ml/training_codes.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "ml/decision_tree.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "storage/column.h"

namespace mlcs::ml {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TrainingCodes Code(const Matrix& x, size_t max_codes, bool parallel = false) {
  Labels y(x.rows(), 0);
  auto codes = TrainingCodes::Build(x, y, {0}, max_codes, parallel);
  EXPECT_TRUE(codes.ok()) << codes.status().ToString();
  return std::move(codes).ValueOrDie();
}

Matrix Column(const std::vector<double>& values) {
  Matrix x(values.size(), 1);
  for (size_t r = 0; r < values.size(); ++r) x.Set(r, 0, values[r]);
  return x;
}

TEST(TrainingCodesTest, FewValuesGetOneCodeEachInValueOrder) {
  TrainingCodes codes =
      Code(Column({3.0, kNaN, -1.0, 3.0, 0.0, -0.0, 7.5}), 255);
  // NaN is code 0; -0.0 and 0.0 share a code.
  EXPECT_EQ(codes.codes(0),
            (std::vector<uint16_t>{3, 0, 1, 3, 2, 2, 4}));
  EXPECT_EQ(codes.num_codes(0), 5u);
}

TEST(TrainingCodesTest, ManyValuesAreCutIntoEqualFrequencyRanges) {
  Rng rng(5);
  std::vector<double> values(4000);
  for (double& v : values) v = rng.NextGaussian();
  values[17] = kNaN;
  TrainingCodes codes = Code(Column(values), 16);
  ASSERT_EQ(codes.num_codes(0), 17u);  // 16 ranges + the NaN code
  std::vector<size_t> per_code(codes.num_codes(0), 0);
  for (size_t a = 0; a < values.size(); ++a) {
    uint16_t ca = codes.codes(0)[a];
    ++per_code[ca];
    EXPECT_EQ(ca == 0, std::isnan(values[a]));
    // Order-preserving: a smaller value never gets a larger code.
    for (size_t b = 0; b < values.size(); b += 97) {
      if (values[a] < values[b]) {
        EXPECT_LE(ca, codes.codes(0)[b]);
      }
    }
  }
  for (size_t c = 1; c < per_code.size(); ++c) {
    EXPECT_NEAR(static_cast<double>(per_code[c]), 4000.0 / 16, 2.0) << c;
  }
}

TEST(TrainingCodesTest, HeavyValueKeepsItsOwnRange) {
  // Half the rows hold one value: it fills ranges on its own, and the
  // values around it still split off.
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) values.push_back(i < 50 ? 5.0 : i);
  TrainingCodes codes = Code(Column(values), 4);
  uint16_t heavy = codes.codes(0)[0];
  for (size_t r = 0; r < values.size(); ++r) {
    EXPECT_EQ(codes.codes(0)[r] == heavy, values[r] == 5.0) << r;
  }
}

TEST(TrainingCodesTest, ThresholdSeparatesAdjacentCodes) {
  double a = 1.0;
  double b = std::nextafter(a, 2.0);  // no double lies between a and b
  TrainingCodes codes = Code(Column({kNaN, -3.0, a, b, 1e300}), 255);
  ASSERT_EQ(codes.num_codes(0), 5u);
  for (uint16_t left = 0; left + 1 < 5; ++left) {
    double t = codes.Threshold(0, left, left + 1);
    for (size_t r = 1; r < 5; ++r) {
      double v = Column({kNaN, -3.0, a, b, 1e300}).At(r, 0);
      EXPECT_EQ(v <= t, codes.codes(0)[r] <= left) << "left=" << left;
    }
  }
}

TEST(TrainingCodesTest, CodingIgnoresThePool) {
  Rng rng(2);
  Matrix x(3000, 30);
  for (size_t c = 0; c < x.cols(); ++c) {
    for (size_t r = 0; r < x.rows(); ++r) {
      x.Set(r, c, c % 3 == 0 ? rng.NextBounded(5) : rng.NextGaussian());
    }
  }
  TrainingCodes serial = Code(x, 32, false);
  TrainingCodes pooled = Code(x, 32, true);
  for (size_t c = 0; c < x.cols(); ++c) {
    EXPECT_EQ(serial.codes(c), pooled.codes(c)) << c;
  }
}

TEST(TrainingCodesTest, LabelsBecomeClassIndices) {
  Matrix x = Column({1, 2, 3});
  auto codes = TrainingCodes::Build(x, {7, -2, 7}, {-2, 7}, 255, false);
  ASSERT_TRUE(codes.ok());
  EXPECT_EQ(codes.ValueOrDie().labels(), (std::vector<uint32_t>{1, 0, 1}));
  EXPECT_FALSE(TrainingCodes::Build(x, {7, 5, 7}, {-2, 7}, 255, false).ok());
  EXPECT_FALSE(TrainingCodes::Build(x, {7}, {7}, 255, false).ok());
}

TEST(TrainingCodesTest, ExactTreeSplitsEveryDistinctValue) {
  // 3000 distinct values; the positives are six runs of 5 values. Only
  // splits between single values isolate them, which 255 equal-frequency
  // ranges (about 12 values each) cannot express but exact splits can —
  // on small nodes through the sparse per-node counts.
  const size_t n = 3000;
  Matrix x(n, 1);
  Labels y(n);
  for (size_t r = 0; r < n; ++r) {
    size_t v = (r * 7919) % n;
    x.Set(r, 0, static_cast<double>(v));
    y[r] = v % 500 >= 200 && v % 500 < 205;
  }
  DecisionTreeOptions opt;
  opt.max_depth = 30;
  opt.exact_splits = true;
  DecisionTree exact(opt);
  ASSERT_TRUE(exact.Fit(x, y).ok());
  EXPECT_DOUBLE_EQ(Accuracy(y, exact.Predict(x).ValueOrDie()).ValueOrDie(),
                   1.0);
  opt.exact_splits = false;
  DecisionTree binned(opt);
  ASSERT_TRUE(binned.Fit(x, y).ok());
  EXPECT_LT(Accuracy(y, binned.Predict(x).ValueOrDie()).ValueOrDie(), 1.0);
}

TEST(TrainingCodesTest, SplitSearchOnThePoolGrowsTheSameTree) {
  // One tree on enough rows × features that each upper node fans its
  // candidate features out over the pool.
  Rng rng(4);
  Matrix x(30000, 6);
  Labels y(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) x.Set(r, c, rng.NextGaussian());
    y[r] = x.At(r, 0) + x.At(r, 3) * 0.5 + rng.NextGaussian() * 0.3 > 0;
  }
  RandomForestOptions opt;
  opt.n_estimators = 1;
  opt.max_depth = 8;
  opt.parallel_fit = false;
  RandomForest serial(opt);
  opt.parallel_fit = true;
  RandomForest pooled(opt);
  ASSERT_TRUE(serial.Fit(x, y).ok());
  ASSERT_TRUE(pooled.Fit(x, y).ok());
  auto ps = serial.PredictProba(x, 1).ValueOrDie();
  auto pp = pooled.PredictProba(x, 1).ValueOrDie();
  for (size_t r = 0; r < ps.size(); ++r) ASSERT_EQ(ps[r], pp[r]) << r;
}

TEST(TrainingCodesTest, BatchPredictMatchesRowByRow) {
  // A batch larger than one predict block fans out over the pool; each row
  // must come out as it does alone.
  Rng rng(6);
  Matrix x(5000, 3);
  Labels y(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) x.Set(r, c, rng.NextGaussian());
    y[r] = static_cast<int32_t>(rng.NextBounded(3));
  }
  RandomForestOptions opt;
  opt.n_estimators = 5;
  opt.max_depth = 6;
  RandomForest forest(opt);
  ASSERT_TRUE(forest.Fit(x, y).ok());
  auto batch = forest.PredictProba(x, 2).ValueOrDie();
  for (size_t r = 0; r < x.rows(); r += 37) {
    Matrix one = x.SelectRows({static_cast<uint32_t>(r)});
    ASSERT_EQ(forest.PredictProba(one, 2).ValueOrDie()[0], batch[r]) << r;
  }
}

/// Codes feature 0 of `x`, which holds `values`, and a reference matrix
/// of the same values plus 0.5. The reference is fractional, so it takes
/// the hash pass; adding 0.5 keeps every value's order and count, so both
/// must give the same codes, and each threshold must sit exactly 0.5 below
/// the reference's wherever adding 0.5 to it is exact.
void ExpectCodesLikeTheHashPass(const Matrix& x,
                                const std::vector<double>& values,
                                size_t max_codes) {
  std::vector<double> shifted = values;
  for (double& v : shifted) v += 0.5;
  TrainingCodes a = Code(x, max_codes);
  TrainingCodes b = Code(Column(shifted), max_codes);
  EXPECT_EQ(a.codes(0), b.codes(0));
  ASSERT_EQ(a.num_codes(0), b.num_codes(0));
  for (size_t c = 0; c + 1 < a.num_codes(0); ++c) {
    auto left = static_cast<uint16_t>(c);
    auto right = static_cast<uint16_t>(c + 1);
    double t = a.Threshold(0, left, right);
    if (std::isinf(t) || std::abs(t) < 0x1p51) {
      EXPECT_EQ(t + 0.5, b.Threshold(0, left, right)) << c;
    }
  }
}

/// Codes `values` as owned doubles against the hash-pass reference.
void ExpectDoublesCodeLikeTheHashPass(const std::vector<double>& values,
                                      size_t max_codes) {
  ExpectCodesLikeTheHashPass(Column(values), values, max_codes);
}

/// Codes `values` as an INTEGER column read in place and as owned
/// doubles; both must code like the hash pass.
void ExpectIntegerCodingParity(const std::vector<int32_t>& values,
                               size_t max_codes) {
  std::vector<double> doubles(values.begin(), values.end());
  auto source = Matrix::FromColumns({mlcs::Column::FromInt32(values)});
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  ASSERT_NE(source.ValueOrDie().view(0).i32(), nullptr);  // read in place
  {
    SCOPED_TRACE("INTEGER column read in place");
    ExpectCodesLikeTheHashPass(source.ValueOrDie(), doubles, max_codes);
  }
  {
    SCOPED_TRACE("owned doubles");
    ExpectDoublesCodeLikeTheHashPass(doubles, max_codes);
  }
}

TEST(TrainingCodesTest, IntegerColumnCodesLikeDoubles) {
  {
    SCOPED_TRACE("negative values");
    ExpectIntegerCodingParity({-5, -3, -3, 0, 2, -5, 7, -1000}, 255);
  }
  {
    SCOPED_TRACE("one distinct value");
    ExpectIntegerCodingParity({4, 4, 4, 4}, 255);
  }
  {
    SCOPED_TRACE("300 distinct values into 255 equal-frequency ranges");
    Rng rng(12);
    std::vector<int32_t> values(5000);
    for (int32_t& v : values) {
      v = static_cast<int32_t>(rng.NextBounded(300)) - 150;
    }
    ExpectIntegerCodingParity(values, 255);
  }
  {
    SCOPED_TRACE("range exactly at the cap");
    ExpectIntegerCodingParity({0, 65535, 17, 40000, 17}, 255);
  }
  {
    SCOPED_TRACE("range just above the cap");
    ExpectIntegerCodingParity({0, 65536, 17, 40000, 17}, 255);
  }
  {
    SCOPED_TRACE("more distinct values than a feature has codes");
    std::vector<int32_t> values(70000);
    for (size_t r = 0; r < values.size(); ++r) {
      values[r] = static_cast<int32_t>((r * 7919) % values.size());
    }
    ExpectIntegerCodingParity(values, 255);  // range = rows
    values[0] = -1;
    ExpectIntegerCodingParity(values, 255);  // range = rows + 1
  }
  {
    SCOPED_TRACE("the whole int32 range");
    ExpectIntegerCodingParity({std::numeric_limits<int32_t>::max(), 0,
                               std::numeric_limits<int32_t>::min(), -1,
                               std::numeric_limits<int32_t>::max()},
                              255);
  }
}

TEST(TrainingCodesTest, IntegralDoublesCodeLikeTheHashPass) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  {
    SCOPED_TRACE("NaN rows");
    ExpectDoublesCodeLikeTheHashPass({3, kNaN, -2, 3, kNaN, 0, kNaN}, 255);
  }
  {
    SCOPED_TRACE("-0.0 next to +0.0");
    ExpectDoublesCodeLikeTheHashPass({-0.0, 0.0, 1, -0.0, -1}, 255);
    ExpectDoublesCodeLikeTheHashPass({-0.0, 2, -0.0}, 255);
  }
  {
    SCOPED_TRACE("all NaN");
    ExpectDoublesCodeLikeTheHashPass({kNaN, kNaN, kNaN}, 255);
    TrainingCodes codes = Code(Column({kNaN, kNaN, kNaN}), 255);
    EXPECT_EQ(codes.codes(0), (std::vector<uint16_t>{0, 0, 0}));
    EXPECT_EQ(codes.num_codes(0), 1u);
  }
  {
    SCOPED_TRACE("values the counting pass must leave to the hash pass");
    ExpectDoublesCodeLikeTheHashPass({1, 2, kInf, 2, kNaN}, 255);
    ExpectDoublesCodeLikeTheHashPass({1, -kInf, 2, -kInf}, 255);
    ExpectDoublesCodeLikeTheHashPass({1, 3e9, 2, 1}, 255);
    ExpectDoublesCodeLikeTheHashPass({1, -3e9, 2, 1}, 255);
    ExpectDoublesCodeLikeTheHashPass({1, 0x1p53, 5, 0x1p53}, 255);
    ExpectDoublesCodeLikeTheHashPass({1, 2, 2.5, 3, 2}, 255);
  }
  {
    SCOPED_TRACE("span at the cap and just above it");
    ExpectDoublesCodeLikeTheHashPass({0, 65535, kNaN, 17, 40000, 17}, 255);
    ExpectDoublesCodeLikeTheHashPass({0, 65536, kNaN, 17, 40000, 17}, 255);
  }
}

}  // namespace
}  // namespace mlcs::ml
