#include "dataframe/dataframe.h"

#include <gtest/gtest.h>

namespace mlcs::dataframe {
namespace {

DataFrame Voters() {
  Schema s;
  s.AddField("precinct", TypeId::kInt32);
  s.AddField("age", TypeId::kInt32);
  auto t = Table::Make(std::move(s));
  EXPECT_TRUE(t->AppendRow({Value::Int32(1), Value::Int32(20)}).ok());
  EXPECT_TRUE(t->AppendRow({Value::Int32(1), Value::Int32(30)}).ok());
  EXPECT_TRUE(t->AppendRow({Value::Int32(2), Value::Int32(40)}).ok());
  return DataFrame(t);
}

DataFrame Precincts() {
  Schema s;
  s.AddField("precinct", TypeId::kInt32);
  s.AddField("dem", TypeId::kInt32);
  auto t = Table::Make(std::move(s));
  EXPECT_TRUE(t->AppendRow({Value::Int32(1), Value::Int32(60)}).ok());
  EXPECT_TRUE(t->AppendRow({Value::Int32(2), Value::Int32(30)}).ok());
  return DataFrame(t);
}

TEST(DataFrameTest, MergeOnKey) {
  auto merged = Voters().Merge(Precincts(), {"precinct"}).ValueOrDie();
  EXPECT_EQ(merged.num_rows(), 3u);
  auto dem = merged.Column("dem").ValueOrDie();
  // Voters in precinct 1 got dem=60.
  EXPECT_EQ(dem->i32_data()[0], 60);
  EXPECT_EQ(dem->i32_data()[2], 30);
}

TEST(DataFrameTest, GroupByAgg) {
  auto grouped = Voters()
                     .GroupBy({"precinct"},
                              {{exec::AggOp::kCountStar, "", "n"},
                               {exec::AggOp::kAvg, "age", "mean_age"}})
                     .ValueOrDie();
  EXPECT_EQ(grouped.num_rows(), 2u);
  EXPECT_EQ(grouped.table()->GetValue(0, 1).ValueOrDie(), Value::Int64(2));
  EXPECT_DOUBLE_EQ(
      grouped.table()->GetValue(0, 2).ValueOrDie().double_value(), 25.0);
}

TEST(DataFrameTest, Filter) {
  auto df = Voters();
  auto old = df.Filter(*Column::FromBool({0, 1, 1})).ValueOrDie();
  EXPECT_EQ(old.num_rows(), 2u);
}

TEST(DataFrameTest, HeadSliceTake) {
  auto df = Voters();
  EXPECT_EQ(df.Head(2).num_rows(), 2u);
  EXPECT_EQ(df.Head(99).num_rows(), 3u);
  EXPECT_EQ(df.SliceRows(1, 1).table()->GetValue(0, 1).ValueOrDie(),
            Value::Int32(30));
  EXPECT_EQ(df.TakeRows({2}).table()->GetValue(0, 1).ValueOrDie(),
            Value::Int32(40));
}

TEST(DataFrameTest, ToMatrixAndLabels) {
  auto df = Voters();
  auto m = df.ToMatrix({"age"}).ValueOrDie();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 30.0);
  auto labels = df.LabelColumn("precinct").ValueOrDie();
  EXPECT_EQ(labels, (ml::Labels{1, 1, 2}));
}

TEST(DataFrameTest, AddColumn) {
  auto df = Voters();
  ASSERT_TRUE(df.AddColumn("score", Column::FromDouble({1, 2, 3})).ok());
  EXPECT_EQ(df.num_columns(), 3u);
  EXPECT_FALSE(df.AddColumn("bad", Column::FromDouble({1})).ok());
}

}  // namespace
}  // namespace mlcs::dataframe
