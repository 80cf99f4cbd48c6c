#include "ml/split.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace mlcs::ml {
namespace {

TEST(SplitTest, TrainTestPartitionIsExact) {
  auto split = TrainTestSplit(100, 0.3, 1).ValueOrDie();
  EXPECT_EQ(split.test.size(), 30u);
  EXPECT_EQ(split.train.size(), 70u);
  std::set<uint32_t> all(split.train.begin(), split.train.end());
  all.insert(split.test.begin(), split.test.end());
  EXPECT_EQ(all.size(), 100u);
  EXPECT_EQ(*all.rbegin(), 99u);
}

TEST(SplitTest, Deterministic) {
  auto a = TrainTestSplit(50, 0.5, 7).ValueOrDie();
  auto b = TrainTestSplit(50, 0.5, 7).ValueOrDie();
  EXPECT_EQ(a.train, b.train);
  EXPECT_EQ(a.test, b.test);
  auto c = TrainTestSplit(50, 0.5, 8).ValueOrDie();
  EXPECT_NE(a.train, c.train);
}

TEST(SplitTest, IsShuffled) {
  auto split = TrainTestSplit(1000, 0.5, 3).ValueOrDie();
  // The first 500 indices should not be exactly 0..499.
  bool sorted = std::is_sorted(split.test.begin(), split.test.end());
  EXPECT_FALSE(sorted);
}

TEST(SplitTest, DegenerateFractionsRejected) {
  EXPECT_FALSE(TrainTestSplit(10, 0.0, 1).ok());
  EXPECT_FALSE(TrainTestSplit(10, 1.0, 1).ok());
  EXPECT_FALSE(TrainTestSplit(0, 0.5, 1).ok());
}

TEST(SplitTest, TinyInputsStillGetBothSides) {
  auto split = TrainTestSplit(2, 0.01, 1).ValueOrDie();
  EXPECT_EQ(split.test.size(), 1u);
  EXPECT_EQ(split.train.size(), 1u);
}

TEST(SplitTest, KFoldPartitions) {
  auto folds = KFold(103, 5, 2).ValueOrDie();
  ASSERT_EQ(folds.size(), 5u);
  std::set<uint32_t> seen;
  size_t total = 0;
  for (const auto& fold : folds) {
    EXPECT_EQ(fold.train.size() + fold.test.size(), 103u);
    total += fold.test.size();
    for (uint32_t i : fold.test) {
      EXPECT_TRUE(seen.insert(i).second) << "fold test sets overlap";
    }
    // Train and test are disjoint within a fold.
    std::set<uint32_t> train(fold.train.begin(), fold.train.end());
    for (uint32_t i : fold.test) EXPECT_EQ(train.count(i), 0u);
  }
  EXPECT_EQ(total, 103u);
}

TEST(SplitTest, KFoldValidation) {
  EXPECT_FALSE(KFold(10, 1, 1).ok());
  EXPECT_FALSE(KFold(3, 5, 1).ok());
}

}  // namespace
}  // namespace mlcs::ml
