#include "exec/hash_join.h"

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"

namespace mlcs::exec {
namespace {

TablePtr VotersTable() {
  Schema s;
  s.AddField("voter_id", TypeId::kInt32);
  s.AddField("precinct", TypeId::kInt32);
  auto t = Table::Make(std::move(s));
  EXPECT_TRUE(t->AppendRow({Value::Int32(1), Value::Int32(10)}).ok());
  EXPECT_TRUE(t->AppendRow({Value::Int32(2), Value::Int32(20)}).ok());
  EXPECT_TRUE(t->AppendRow({Value::Int32(3), Value::Int32(10)}).ok());
  EXPECT_TRUE(t->AppendRow({Value::Int32(4), Value::Int32(99)}).ok());
  return t;
}

TablePtr PrecinctsTable() {
  Schema s;
  s.AddField("precinct", TypeId::kInt32);
  s.AddField("dem_votes", TypeId::kInt32);
  auto t = Table::Make(std::move(s));
  EXPECT_TRUE(t->AppendRow({Value::Int32(10), Value::Int32(100)}).ok());
  EXPECT_TRUE(t->AppendRow({Value::Int32(20), Value::Int32(200)}).ok());
  return t;
}

TEST(HashJoinTest, InnerJoinMatchesAndDropsUnmatched) {
  auto out = HashJoin(*VotersTable(), *PrecinctsTable(), {"precinct"},
                      {"precinct"})
                 .ValueOrDie();
  EXPECT_EQ(out->num_rows(), 3u);  // voter 4 (precinct 99) dropped
  // Duplicate right column renamed.
  EXPECT_TRUE(out->schema().FieldIndex("precinct_r").has_value());
  // Check voter 1 got dem_votes 100.
  auto dem = out->ColumnByName("dem_votes").ValueOrDie();
  auto vid = out->ColumnByName("voter_id").ValueOrDie();
  for (size_t i = 0; i < out->num_rows(); ++i) {
    int32_t v = vid->i32_data()[i];
    int32_t d = dem->i32_data()[i];
    if (v == 1 || v == 3) {
      EXPECT_EQ(d, 100);
    }
    if (v == 2) {
      EXPECT_EQ(d, 200);
    }
  }
}

TEST(HashJoinTest, LeftJoinPadsWithNulls) {
  auto voters = VotersTable();
  auto out = HashJoin(*voters, *PrecinctsTable(), {"precinct"},
                      {"precinct"}, JoinType::kLeft)
                 .ValueOrDie();
  EXPECT_EQ(out->num_rows(), 4u);
  // Each left row appears once, in order: the left columns are shared.
  EXPECT_EQ(out->column(0).get(), voters->column(0).get());
  auto vid = out->ColumnByName("voter_id").ValueOrDie();
  auto dem = out->ColumnByName("dem_votes").ValueOrDie();
  for (size_t i = 0; i < out->num_rows(); ++i) {
    if (vid->i32_data()[i] == 4) {
      EXPECT_TRUE(dem->IsNull(i));
    }
  }
}

TEST(HashJoinTest, IdentityProbeSharesLeftColumns) {
  // Every probe row matches exactly one build row, in order: the left
  // columns pass through shared instead of being copied.
  Schema s;
  s.AddField("voter_id", TypeId::kInt32);
  s.AddField("precinct", TypeId::kInt32);
  auto voters = Table::Make(std::move(s));
  for (int32_t v : {1, 2, 3}) {
    ASSERT_TRUE(
        voters->AppendRow({Value::Int32(v), Value::Int32(v == 2 ? 20 : 10)})
            .ok());
  }
  auto out = HashJoin(*voters, *PrecinctsTable(), {"precinct"}, {"precinct"})
                 .ValueOrDie();
  ASSERT_EQ(out->num_rows(), 3u);
  EXPECT_EQ(out->column(0).get(), voters->column(0).get());
  EXPECT_EQ(out->column(1).get(), voters->column(1).get());
  auto dem = out->ColumnByName("dem_votes").ValueOrDie();
  EXPECT_EQ(dem->i32_data(), (std::vector<int32_t>{100, 200, 100}));
}

TEST(HashJoinTest, DuplicateBuildKeysFanOut) {
  Schema rs;
  rs.AddField("k", TypeId::kInt32);
  rs.AddField("tag", TypeId::kVarchar);
  auto right = Table::Make(std::move(rs));
  ASSERT_TRUE(right->AppendRow({Value::Int32(10), Value::Varchar("a")}).ok());
  ASSERT_TRUE(right->AppendRow({Value::Int32(10), Value::Varchar("b")}).ok());
  Schema ls;
  ls.AddField("k", TypeId::kInt32);
  auto left = Table::Make(std::move(ls));
  ASSERT_TRUE(left->AppendRow({Value::Int32(10)}).ok());
  auto out = HashJoin(*left, *right, {"k"}, {"k"}).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 2u);

  // As many output rows as probe rows, yet not an identity probe: voters
  // 1 and 3 fan out, 2 and 4 drop. The left columns must be gathered.
  auto voters = VotersTable();
  auto fan = HashJoin(*voters, *right, {"precinct"}, {"k"}).ValueOrDie();
  ASSERT_EQ(fan->num_rows(), voters->num_rows());
  EXPECT_EQ(fan->column(0)->i32_data(), (std::vector<int32_t>{1, 1, 3, 3}));
}

TEST(HashJoinTest, NullKeysNeverMatch) {
  Schema s;
  s.AddField("k", TypeId::kInt32);
  auto left = Table::Make(s);
  ASSERT_TRUE(left->AppendRow({Value::MakeNull(TypeId::kInt32)}).ok());
  auto right = Table::Make(s);
  ASSERT_TRUE(right->AppendRow({Value::MakeNull(TypeId::kInt32)}).ok());
  auto inner = HashJoin(*left, *right, {"k"}, {"k"}).ValueOrDie();
  EXPECT_EQ(inner->num_rows(), 0u);
  auto lj = HashJoin(*left, *right, {"k"}, {"k"}, JoinType::kLeft)
                .ValueOrDie();
  EXPECT_EQ(lj->num_rows(), 1u);  // padded, not matched
}

TEST(HashJoinTest, MultiKeyJoin) {
  Schema s;
  s.AddField("a", TypeId::kInt32);
  s.AddField("b", TypeId::kVarchar);
  auto left = Table::Make(s);
  ASSERT_TRUE(left->AppendRow({Value::Int32(1), Value::Varchar("x")}).ok());
  ASSERT_TRUE(left->AppendRow({Value::Int32(1), Value::Varchar("y")}).ok());
  auto right = Table::Make(s);
  ASSERT_TRUE(right->AppendRow({Value::Int32(1), Value::Varchar("y")}).ok());
  auto out = HashJoin(*left, *right, {"a", "b"}, {"a", "b"}).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 1u);
}

TEST(HashJoinTest, KeyTypeMismatchRejected) {
  Schema ls;
  ls.AddField("k", TypeId::kInt32);
  auto left = Table::Make(std::move(ls));
  Schema rs;
  rs.AddField("k", TypeId::kVarchar);
  auto right = Table::Make(std::move(rs));
  EXPECT_FALSE(HashJoin(*left, *right, {"k"}, {"k"}).ok());
}

TEST(HashJoinTest, EmptyKeyListRejected) {
  auto t = VotersTable();
  EXPECT_FALSE(HashJoin(*t, *t, {}, {}).ok());
}

/// Property: hash join equals a brute-force nested-loop oracle on random
/// inputs with many duplicate keys.
TEST(HashJoinTest, RandomizedAgainstNestedLoopOracle) {
  Rng rng(2024);
  Schema ls;
  ls.AddField("k", TypeId::kInt32);
  ls.AddField("lv", TypeId::kInt32);
  auto left = Table::Make(std::move(ls));
  Schema rs;
  rs.AddField("k", TypeId::kInt32);
  rs.AddField("rv", TypeId::kInt32);
  auto right = Table::Make(std::move(rs));
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(left->AppendRow({Value::Int32(static_cast<int32_t>(
                                     rng.NextBounded(20))),
                                 Value::Int32(i)})
                    .ok());
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(right->AppendRow({Value::Int32(static_cast<int32_t>(
                                      rng.NextBounded(25))),
                                  Value::Int32(1000 + i)})
                    .ok());
  }
  auto out = HashJoin(*left, *right, {"k"}, {"k"}).ValueOrDie();

  // Oracle: multiset of (lv, rv) pairs.
  std::multiset<std::pair<int32_t, int32_t>> expected;
  const auto& lk = left->column(0)->i32_data();
  const auto& lv = left->column(1)->i32_data();
  const auto& rk = right->column(0)->i32_data();
  const auto& rv = right->column(1)->i32_data();
  for (size_t i = 0; i < lk.size(); ++i) {
    for (size_t j = 0; j < rk.size(); ++j) {
      if (lk[i] == rk[j]) expected.emplace(lv[i], rv[j]);
    }
  }
  std::multiset<std::pair<int32_t, int32_t>> actual;
  auto out_lv = out->ColumnByName("lv").ValueOrDie();
  auto out_rv = out->ColumnByName("rv").ValueOrDie();
  for (size_t i = 0; i < out->num_rows(); ++i) {
    actual.emplace(out_lv->i32_data()[i], out_rv->i32_data()[i]);
  }
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace mlcs::exec
