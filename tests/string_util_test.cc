#include "common/string_util.h"

#include <gtest/gtest.h>

namespace mlcs {
namespace {

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = SplitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtilTest, SplitSingleField) {
  auto parts = SplitString("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, SplitEmptyInput) {
  auto parts = SplitString("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t\na b\r "), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToUpper("blob"), "BLOB");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(JoinStrings({"x"}, ","), "x");
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("select", "selec"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "b"));
}

TEST(StringUtilTest, PrefixSuffix) {
  EXPECT_TRUE(StartsWith("voters.csv", "voters"));
  EXPECT_TRUE(EndsWith("voters.csv", ".csv"));
  EXPECT_FALSE(StartsWith("a", "ab"));
  EXPECT_FALSE(EndsWith("a", "ab"));
}

TEST(StringUtilTest, ParseInt64Strict) {
  EXPECT_EQ(ParseInt64("42").ValueOrDie(), 42);
  EXPECT_EQ(ParseInt64("-7").ValueOrDie(), -7);
  EXPECT_EQ(ParseInt64(" 13 ").ValueOrDie(), 13);
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("1.5").ok());
}

TEST(StringUtilTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").ValueOrDie(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-0.25").ValueOrDie(), -0.25);
  EXPECT_DOUBLE_EQ(ParseDouble("1e3").ValueOrDie(), 1000.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringUtilTest, FormatDoubleRoundTrips) {
  for (double v : {0.0, 1.5, -2.25, 3.141592653589793, 1e-30, 1e30}) {
    std::string s = FormatDouble(v);
    EXPECT_DOUBLE_EQ(ParseDouble(s).ValueOrDie(), v) << s;
  }
}

}  // namespace
}  // namespace mlcs
