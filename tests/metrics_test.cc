#include "ml/metrics.h"

#include <gtest/gtest.h>

namespace mlcs::ml {
namespace {

TEST(MetricsTest, AccuracyBasics) {
  EXPECT_DOUBLE_EQ(Accuracy({1, 0, 1}, {1, 0, 1}).ValueOrDie(), 1.0);
  EXPECT_DOUBLE_EQ(Accuracy({1, 0, 1, 0}, {1, 1, 1, 1}).ValueOrDie(), 0.5);
  EXPECT_DOUBLE_EQ(Accuracy({1}, {0}).ValueOrDie(), 0.0);
  EXPECT_FALSE(Accuracy({1}, {0, 1}).ok());
  EXPECT_FALSE(Accuracy({}, {}).ok());
}

}  // namespace
}  // namespace mlcs::ml
