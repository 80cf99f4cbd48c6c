#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "sql/database.h"

namespace mlcs {
namespace {

class SqlExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Run(R"(
      CREATE TABLE voters (id INTEGER, precinct INTEGER, age INTEGER);
      INSERT INTO voters VALUES
        (1, 10, 25), (2, 10, 35), (3, 20, 45), (4, 20, 55), (5, 30, 65);
      CREATE TABLE precincts (precinct INTEGER, dem INTEGER, rep INTEGER);
      INSERT INTO precincts VALUES (10, 60, 40), (20, 30, 70);
    )")
                    .ok());
  }

  TablePtr Q(const std::string& sql) {
    auto r = db_.Query(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? r.ValueOrDie() : nullptr;
  }

  Database db_;
};

TEST_F(SqlExecutorTest, SelectConstantWithoutFrom) {
  auto t = Q("SELECT 1 + 1 AS two, 'x' AS s");
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->GetValue(0, 0).ValueOrDie(), Value::Int32(2));
  EXPECT_EQ(t->GetValue(0, 1).ValueOrDie(), Value::Varchar("x"));
  EXPECT_EQ(t->schema().field(0).name, "two");
}

TEST_F(SqlExecutorTest, SelectStarAndProjection) {
  auto t = Q("SELECT * FROM voters");
  EXPECT_EQ(t->num_rows(), 5u);
  EXPECT_EQ(t->num_columns(), 3u);
  auto p = Q("SELECT age * 2 AS dbl FROM voters");
  EXPECT_EQ(p->GetValue(0, 0).ValueOrDie(), Value::Int32(50));
}

TEST_F(SqlExecutorTest, WhereFilters) {
  auto t = Q("SELECT id FROM voters WHERE age > 40");
  EXPECT_EQ(t->num_rows(), 3u);
  auto none = Q("SELECT id FROM voters WHERE age > 100");
  EXPECT_EQ(none->num_rows(), 0u);
  auto combo = Q("SELECT id FROM voters WHERE age > 30 AND precinct = 20");
  EXPECT_EQ(combo->num_rows(), 2u);
}

TEST_F(SqlExecutorTest, OrderByAndLimit) {
  auto t = Q("SELECT id FROM voters ORDER BY age DESC LIMIT 2");
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(0, 0).ValueOrDie(), Value::Int32(5));
  EXPECT_EQ(t->GetValue(1, 0).ValueOrDie(), Value::Int32(4));
  // Ordinal ORDER BY.
  auto o = Q("SELECT id, age FROM voters ORDER BY 2 LIMIT 1");
  EXPECT_EQ(o->GetValue(0, 0).ValueOrDie(), Value::Int32(1));
}

TEST_F(SqlExecutorTest, GlobalAggregates) {
  auto t = Q("SELECT COUNT(*) AS n, SUM(age) AS total, AVG(age) AS mean "
             "FROM voters");
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->GetValue(0, 0).ValueOrDie(), Value::Int64(5));
  EXPECT_EQ(t->GetValue(0, 1).ValueOrDie(), Value::Int64(225));
  EXPECT_DOUBLE_EQ(t->GetValue(0, 2).ValueOrDie().double_value(), 45.0);
  // COUNT(*) alone answers the row count; no rows left is one row of 0.
  auto all = Q("SELECT COUNT(*) AS n FROM voters");
  ASSERT_EQ(all->num_rows(), 1u);
  EXPECT_EQ(all->GetValue(0, 0).ValueOrDie(), Value::Int64(5));
  auto none = Q("SELECT COUNT(*) AS n FROM voters WHERE age > 1000");
  ASSERT_EQ(none->num_rows(), 1u);
  EXPECT_EQ(none->GetValue(0, 0).ValueOrDie(), Value::Int64(0));
}

TEST_F(SqlExecutorTest, GroupBy) {
  auto t = Q("SELECT precinct, COUNT(*) AS n, MAX(age) AS oldest "
             "FROM voters GROUP BY precinct ORDER BY precinct");
  ASSERT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(t->GetValue(0, 1).ValueOrDie(), Value::Int64(2));
  EXPECT_EQ(t->GetValue(1, 2).ValueOrDie(), Value::Int32(55));
}

TEST_F(SqlExecutorTest, AggregateOverExpression) {
  auto t = Q("SELECT SUM(age * 2) AS s FROM voters");
  EXPECT_EQ(t->GetValue(0, 0).ValueOrDie(), Value::Int64(450));
}

TEST_F(SqlExecutorTest, NonGroupColumnRejected) {
  auto r = db_.Query("SELECT age, COUNT(*) FROM voters GROUP BY precinct");
  EXPECT_FALSE(r.ok());
}

TEST_F(SqlExecutorTest, JoinAndAggregate) {
  auto t = Q("SELECT p.dem, COUNT(*) AS n FROM voters v "
             "JOIN precincts p ON v.precinct = p.precinct "
             "GROUP BY dem ORDER BY dem");
  ASSERT_EQ(t->num_rows(), 2u);
  // precinct 20 (dem=30) has 2 voters; precinct 10 (dem=60) has 2.
  EXPECT_EQ(t->GetValue(0, 0).ValueOrDie(), Value::Int32(30));
  EXPECT_EQ(t->GetValue(0, 1).ValueOrDie(), Value::Int64(2));
}

TEST_F(SqlExecutorTest, LeftJoinKeepsUnmatched) {
  auto t = Q("SELECT id, dem FROM voters v LEFT JOIN precincts p "
             "ON v.precinct = p.precinct ORDER BY id");
  ASSERT_EQ(t->num_rows(), 5u);
  EXPECT_TRUE(t->GetValue(4, 1).ValueOrDie().is_null());  // precinct 30
}

TEST_F(SqlExecutorTest, SubqueryInFrom) {
  auto t = Q("SELECT COUNT(*) FROM (SELECT id FROM voters WHERE age > 40) "
             "old");
  EXPECT_EQ(t->GetValue(0, 0).ValueOrDie(), Value::Int64(3));
}

TEST_F(SqlExecutorTest, ScalarSubquery) {
  auto t = Q("SELECT id FROM voters WHERE age > (SELECT AVG(age) FROM "
             "voters)");
  EXPECT_EQ(t->num_rows(), 2u);
  // Non-scalar subquery rejected.
  EXPECT_FALSE(
      db_.Query("SELECT (SELECT id FROM voters) FROM voters").ok());
}

TEST_F(SqlExecutorTest, CreateTableAsSelect) {
  ASSERT_TRUE(db_.Query("CREATE TABLE old AS SELECT * FROM voters WHERE "
                        "age > 40")
                  .ok());
  auto t = Q("SELECT COUNT(*) FROM old");
  EXPECT_EQ(t->GetValue(0, 0).ValueOrDie(), Value::Int64(3));
  // CTAS owns its storage: mutating the new table must not touch voters.
  ASSERT_TRUE(db_.Query("INSERT INTO old VALUES (99, 99, 99)").ok());
  EXPECT_EQ(Q("SELECT COUNT(*) FROM voters")->GetValue(0, 0).ValueOrDie(),
            Value::Int64(5));
}

TEST_F(SqlExecutorTest, InsertSelectCasts) {
  ASSERT_TRUE(db_.Query("CREATE TABLE wide (id BIGINT, p BIGINT, age "
                        "DOUBLE)")
                  .ok());
  ASSERT_TRUE(db_.Query("INSERT INTO wide SELECT * FROM voters").ok());
  auto t = Q("SELECT SUM(age) FROM wide");
  EXPECT_DOUBLE_EQ(t->GetValue(0, 0).ValueOrDie().double_value(), 225.0);
}

TEST_F(SqlExecutorTest, DropTable) {
  ASSERT_TRUE(db_.Query("DROP TABLE precincts").ok());
  EXPECT_FALSE(db_.Query("SELECT * FROM precincts").ok());
  EXPECT_FALSE(db_.Query("DROP TABLE precincts").ok());
  EXPECT_TRUE(db_.Query("DROP TABLE IF EXISTS precincts").ok());
}

TEST_F(SqlExecutorTest, BuiltinScalarFunctions) {
  auto t = Q("SELECT abs(-2), sqrt(9.0), length('abc'), upper('x')");
  EXPECT_DOUBLE_EQ(t->GetValue(0, 0).ValueOrDie().double_value(), 2.0);
  EXPECT_DOUBLE_EQ(t->GetValue(0, 1).ValueOrDie().double_value(), 3.0);
  EXPECT_EQ(t->GetValue(0, 2).ValueOrDie(), Value::Int64(3));
  EXPECT_EQ(t->GetValue(0, 3).ValueOrDie(), Value::Varchar("X"));
}

TEST_F(SqlExecutorTest, NativeCxxUdfCallableFromSql) {
  udf::ScalarUdfEntry entry;
  entry.name = "plus_seven";
  entry.fn = [](const std::vector<ColumnPtr>& args,
                size_t) -> Result<ColumnPtr> {
    return exec::BinaryKernel(exec::BinOpKind::kAdd, *args[0],
                              *Column::Constant(Value::Int32(7), 1));
  };
  ASSERT_TRUE(db_.udfs().RegisterScalar(std::move(entry)).ok());
  auto t = Q("SELECT plus_seven(age) FROM voters WHERE id = 1");
  EXPECT_EQ(t->GetValue(0, 0).ValueOrDie(), Value::Int32(32));
}

TEST_F(SqlExecutorTest, IsNullPredicate) {
  ASSERT_TRUE(db_.Run("CREATE TABLE n (x INTEGER);"
                      "INSERT INTO n VALUES (1), (NULL), (3);")
                  .ok());
  EXPECT_EQ(Q("SELECT COUNT(*) FROM n WHERE x IS NULL")
                ->GetValue(0, 0)
                .ValueOrDie(),
            Value::Int64(1));
  EXPECT_EQ(Q("SELECT COUNT(x) FROM n")->GetValue(0, 0).ValueOrDie(),
            Value::Int64(2));
}

TEST_F(SqlExecutorTest, CastInSql) {
  auto t = Q("SELECT CAST(age AS DOUBLE) FROM voters LIMIT 1");
  EXPECT_EQ(t->schema().field(0).type, TypeId::kDouble);
}

TEST_F(SqlExecutorTest, ErrorsAreReported) {
  EXPECT_FALSE(db_.Query("SELECT nope FROM voters").ok());
  EXPECT_FALSE(db_.Query("SELECT * FROM missing_table").ok());
  EXPECT_FALSE(db_.Query("SELECT unknown_fn(age) FROM voters").ok());
  EXPECT_FALSE(
      db_.Query("INSERT INTO voters VALUES (1)").ok());  // arity
}

TEST_F(SqlExecutorTest, RunReturnsLastResult) {
  auto t = db_.Run("SELECT 1; SELECT 2;").ValueOrDie();
  EXPECT_EQ(t->GetValue(0, 0).ValueOrDie(), Value::Int32(2));
  EXPECT_FALSE(db_.Run("").ok());
}

TEST_F(SqlExecutorTest, ConnectionWrapper) {
  Connection conn = db_.Connect();
  auto t = conn.Query("SELECT COUNT(*) FROM voters").ValueOrDie();
  EXPECT_EQ(t->GetValue(0, 0).ValueOrDie(), Value::Int64(5));
}

/// DML status tables report the affected-row count: column 0 keeps the
/// classic "VERB n" message, column 1 carries the count as BIGINT.
std::string Repeat(const std::string& piece, size_t times) {
  std::string out;
  for (size_t i = 0; i < times; ++i) out += piece;
  return out;
}

TEST_F(SqlExecutorTest, DeepNestingIsAParseErrorNotACrash) {
  constexpr size_t kDepth = 100000;
  std::vector<std::string> queries = {
      "SELECT " + Repeat("(", kDepth) + "1" + Repeat(")", kDepth),
      "SELECT " + Repeat("NOT ", kDepth) + "TRUE",
      "SELECT " + Repeat("- ", kDepth) + "1",
      "SELECT * FROM " + Repeat("(SELECT * FROM ", kDepth) + "voters" +
          Repeat(")", kDepth),
      Repeat("EXPLAIN ", kDepth) + "SELECT 1"};
  for (const std::string& sql : queries) {
    auto r = db_.Query(sql);
    ASSERT_FALSE(r.ok()) << sql.substr(0, 40);
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    EXPECT_NE(r.status().message().find("nesting deeper than"),
              std::string::npos)
        << r.status().ToString();
  }
}

TEST_F(SqlExecutorTest, NestingJustUnderTheCapRuns) {
  // The statement, its SELECT and the select item take 3 of the 256 levels.
  constexpr size_t kDepth = 253;
  auto parens = Q("SELECT " + Repeat("(", kDepth) + "1" +
                  Repeat(")", kDepth) + " AS v");
  ASSERT_NE(parens, nullptr);
  EXPECT_EQ(parens->GetValue(0, 0).ValueOrDie(), Value::Int32(1));
  auto negations = Q("SELECT " + Repeat("- ", kDepth) + "7 AS v");
  ASSERT_NE(negations, nullptr);
  EXPECT_EQ(negations->GetValue(0, 0).ValueOrDie().AsInt64().ValueOrDie(),
            -7);
}

TEST_F(SqlExecutorTest, DmlStatusReportsAffectedRows) {
  auto ins = Q("INSERT INTO voters VALUES (6, 30, 75), (7, 30, 85)");
  ASSERT_EQ(ins->num_columns(), 2u);
  EXPECT_EQ(ins->schema().field(1).name, "rows");
  EXPECT_EQ(ins->GetValue(0, 0).ValueOrDie(), Value::Varchar("INSERT 2"));
  EXPECT_EQ(ins->GetValue(0, 1).ValueOrDie(), Value::Int64(2));

  auto ins_sel =
      Q("INSERT INTO voters SELECT id + 10, precinct, age FROM voters "
        "WHERE precinct = 10");
  EXPECT_EQ(ins_sel->GetValue(0, 1).ValueOrDie(), Value::Int64(2));

  auto upd = Q("UPDATE voters SET age = age + 1 WHERE precinct = 20");
  EXPECT_EQ(upd->GetValue(0, 0).ValueOrDie(), Value::Varchar("UPDATE 2"));
  EXPECT_EQ(upd->GetValue(0, 1).ValueOrDie(), Value::Int64(2));

  auto del = Q("DELETE FROM voters WHERE precinct = 30");
  EXPECT_EQ(del->GetValue(0, 0).ValueOrDie(), Value::Varchar("DELETE 3"));
  EXPECT_EQ(del->GetValue(0, 1).ValueOrDie(), Value::Int64(3));

  // No-match DML reports zero, not an error.
  auto none = Q("DELETE FROM voters WHERE age > 1000");
  EXPECT_EQ(none->GetValue(0, 1).ValueOrDie(), Value::Int64(0));
  auto upd_none = Q("UPDATE voters SET age = 0 WHERE id = -1");
  EXPECT_EQ(upd_none->GetValue(0, 1).ValueOrDie(), Value::Int64(0));

  // Unconditional DELETE counts every row it removed.
  auto all = Q("DELETE FROM voters");
  EXPECT_EQ(all->GetValue(0, 1).ValueOrDie(), Value::Int64(6));
}

/// The prepared-plan cache serves repeated SELECT text without re-planning
/// and invalidates on DDL.
TEST_F(SqlExecutorTest, PlanCacheHitsAndInvalidation) {
  // The cache's event counters are process-wide registry series; assert on
  // deltas so other tests' queries don't interfere.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* hits = registry.GetCounter("mlcs.plan_cache.hits");
  obs::Counter* stale = registry.GetCounter("mlcs.plan_cache.stale");
  const std::string sql = "SELECT COUNT(*) FROM voters";
  uint64_t hits0 = hits->Value();
  EXPECT_EQ(Q(sql)->GetValue(0, 0).ValueOrDie(), Value::Int64(5));
  EXPECT_EQ(Q(sql)->GetValue(0, 0).ValueOrDie(), Value::Int64(5));
  EXPECT_EQ(Q(sql)->GetValue(0, 0).ValueOrDie(), Value::Int64(5));
  EXPECT_EQ(hits->Value(), hits0 + 2);
  EXPECT_GE(db_.plan_cache_size(), 1u);

  // DML rewrites the table in place (same schema): cached plans stay
  // valid and see the new data.
  ASSERT_TRUE(db_.Query("DELETE FROM voters WHERE id = 5").ok());
  EXPECT_EQ(Q(sql)->GetValue(0, 0).ValueOrDie(), Value::Int64(4));

  // DDL that changes a schema invalidates: re-planned, still correct.
  uint64_t stale0 = stale->Value();
  ASSERT_TRUE(db_.Query("DROP TABLE precincts").ok());
  EXPECT_EQ(Q(sql)->GetValue(0, 0).ValueOrDie(), Value::Int64(4));
  EXPECT_GE(stale->Value(), stale0 + 1);

  db_.ClearPlanCache();
  EXPECT_EQ(db_.plan_cache_size(), 0u);
  EXPECT_EQ(Q(sql)->GetValue(0, 0).ValueOrDie(), Value::Int64(4));
}

/// Dropping and recreating a scanned table with a different shape must not
/// serve the old plan.
TEST_F(SqlExecutorTest, PlanCacheSurvivesTableReplacement) {
  const std::string sql = "SELECT * FROM voters";
  EXPECT_EQ(Q(sql)->num_columns(), 3u);
  ASSERT_TRUE(db_.Query("DROP TABLE voters").ok());
  ASSERT_TRUE(db_.Query("CREATE TABLE voters (only_col BIGINT)").ok());
  ASSERT_TRUE(db_.Query("INSERT INTO voters VALUES (42)").ok());
  auto t = Q(sql);
  ASSERT_EQ(t->num_columns(), 1u);
  EXPECT_EQ(t->schema().field(0).name, "only_col");
  EXPECT_EQ(t->GetValue(0, 0).ValueOrDie(), Value::Int64(42));
}

}  // namespace
}  // namespace mlcs
