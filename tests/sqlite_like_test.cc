#include "client/sqlite_like.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bufpool/block_format.h"
#include "common/file_util.h"

namespace mlcs::client {
namespace {

/// Rows of every column type, with NULLs in the first, a middle and the
/// last row; 70 rows of few distinct values.
std::vector<std::vector<Value>> AllTypeRows() {
  std::vector<std::vector<Value>> rows;
  for (int32_t r = 0; r < 70; ++r) {
    if (r == 0 || r == 35 || r == 69) {
      rows.push_back({Value::MakeNull(TypeId::kBool),
                      Value::MakeNull(TypeId::kInt32),
                      Value::MakeNull(TypeId::kInt64),
                      Value::MakeNull(TypeId::kDouble),
                      Value::MakeNull(TypeId::kVarchar),
                      Value::MakeNull(TypeId::kBlob)});
      continue;
    }
    std::string text(1, 'v');
    text += std::to_string(r % 4);
    std::string bytes(1, '\0');  // an embedded NUL
    bytes += std::to_string(r);
    rows.push_back({Value::Bool(r % 2 == 0), Value::Int32(r % 5 - 2),
                    Value::Int64(int64_t{r % 3} << 40),
                    Value::Double(r * 0.25), Value::Varchar(std::move(text)),
                    Value::Blob(std::move(bytes))});
  }
  return rows;
}

/// Creates table `all_types` in `db` holding AllTypeRows().
void CreateAllTypes(Database* db) {
  ASSERT_TRUE(db->Run("CREATE TABLE all_types (b BOOL, i INTEGER, "
                      "l BIGINT, d DOUBLE, s VARCHAR, x BLOB);")
                  .ok());
  TablePtr t = db->catalog().GetTable("all_types").ValueOrDie();
  for (const std::vector<Value>& row : AllTypeRows()) {
    ASSERT_TRUE(t->AppendRow(row).ok());
  }
}

/// FetchAllRowAtATime over all of `all_types` must equal the direct query
/// and hold AllTypeRows() cell for cell.
void ExpectFetchAllMatches(Database* db) {
  const std::string sql = "SELECT * FROM all_types";
  auto direct = db->Query(sql);
  auto fetched = FetchAllRowAtATime(db, sql);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_TRUE(direct.ValueOrDie()->Equals(*fetched.ValueOrDie()));
  std::vector<std::vector<Value>> rows = AllTypeRows();
  const Table& out = *fetched.ValueOrDie();
  ASSERT_EQ(out.num_rows(), rows.size());
  ASSERT_EQ(out.num_columns(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < out.num_columns(); ++c) {
      Value v = out.GetValue(r, c).ValueOrDie();
      EXPECT_EQ(v.type(), rows[r][c].type()) << r << "," << c;
      EXPECT_EQ(v.is_null(), rows[r][c].is_null()) << r << "," << c;
      if (!rows[r][c].is_null()) {
        EXPECT_EQ(v, rows[r][c]) << r << "," << c;
      }
    }
  }
}

class SqliteLikeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Run("CREATE TABLE t (x INTEGER, d DOUBLE, s VARCHAR);"
                        "INSERT INTO t VALUES (1, 0.5, 'a'), "
                        "(2, 1.5, 'b'), (3, NULL, 'c');")
                    .ok());
  }

  Database db_;
};

TEST_F(SqliteLikeTest, StepThroughRows) {
  RowCursor cursor;
  ASSERT_TRUE(cursor.Prepare(&db_, "SELECT * FROM t ORDER BY x").ok());
  EXPECT_EQ(cursor.num_columns(), 3u);
  int rows = 0;
  while (cursor.Step()) {
    ++rows;
    EXPECT_EQ(cursor.ColumnInt(0).ValueOrDie(), rows);
  }
  EXPECT_EQ(rows, 3);
  EXPECT_FALSE(cursor.Step());  // stays exhausted
}

TEST_F(SqliteLikeTest, TypedAccessors) {
  RowCursor cursor;
  ASSERT_TRUE(cursor.Prepare(&db_, "SELECT * FROM t ORDER BY x").ok());
  ASSERT_TRUE(cursor.Step());
  EXPECT_EQ(cursor.ColumnInt(0).ValueOrDie(), 1);
  EXPECT_DOUBLE_EQ(cursor.ColumnDouble(1).ValueOrDie(), 0.5);
  EXPECT_EQ(cursor.ColumnText(2).ValueOrDie(), "a");
  EXPECT_FALSE(cursor.ColumnIsNull(1).ValueOrDie());
  ASSERT_TRUE(cursor.Step());
  ASSERT_TRUE(cursor.Step());
  EXPECT_TRUE(cursor.ColumnIsNull(1).ValueOrDie());
  EXPECT_FALSE(cursor.ColumnDouble(1).ok());  // NULL has no double
}

TEST_F(SqliteLikeTest, AccessBeforeStepRejected) {
  RowCursor cursor;
  ASSERT_TRUE(cursor.Prepare(&db_, "SELECT * FROM t").ok());
  EXPECT_FALSE(cursor.ColumnInt(0).ok());
  EXPECT_FALSE(cursor.ColumnValue(0).ok());
  ASSERT_TRUE(cursor.Step());
  EXPECT_TRUE(cursor.ColumnValue(2).ok());
  EXPECT_EQ(cursor.ColumnValue(3).status().code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(RowCursor().ColumnIsNull(0).ok());  // never prepared
}

TEST_F(SqliteLikeTest, AccessAfterLastRowRejected) {
  RowCursor cursor;
  ASSERT_TRUE(cursor.Prepare(&db_, "SELECT * FROM t").ok());
  while (cursor.Step()) {
  }
  EXPECT_FALSE(cursor.ColumnValue(0).ok());
  ASSERT_TRUE(cursor.Prepare(&db_, "SELECT * FROM t WHERE x > 99").ok());
  EXPECT_FALSE(cursor.Step());
  EXPECT_FALSE(cursor.ColumnValue(0).ok());
}

TEST_F(SqliteLikeTest, PrepareErrorsSurface) {
  RowCursor cursor;
  EXPECT_FALSE(cursor.Prepare(&db_, "SELECT * FROM missing").ok());
}

TEST_F(SqliteLikeTest, EmptyResult) {
  RowCursor cursor;
  ASSERT_TRUE(cursor.Prepare(&db_, "SELECT * FROM t WHERE x > 99").ok());
  EXPECT_FALSE(cursor.Step());
}

TEST_F(SqliteLikeTest, FetchAllMatchesDirectQuery) {
  auto direct = db_.Query("SELECT * FROM t ORDER BY x").ValueOrDie();
  auto fetched =
      FetchAllRowAtATime(&db_, "SELECT * FROM t ORDER BY x").ValueOrDie();
  EXPECT_TRUE(direct->Equals(*fetched));
  {
    SCOPED_TRACE("every column type");
    Database db;
    CreateAllTypes(&db);
    ExpectFetchAllMatches(&db);
  }
  {
    SCOPED_TRACE("block files read back through LoadFrom");
    Database db;
    CreateAllTypes(&db);
    std::string dir = testing::TempDir() + "/sqlite_like_all_types";
    ASSERT_TRUE(MakeDirs(dir).ok());
    ASSERT_TRUE(db.SaveTo(dir).ok());
    // Every column is stored plain: its payload starts with the bare type
    // byte.
    bufpool::BlockMeta meta =
        bufpool::ReadBlockMeta(dir + "/all_types/block_0000.blk").ValueOrDie();
    std::vector<uint8_t> bytes = ReadFileBytes(meta.path).ValueOrDie();
    TablePtr resident = db.catalog().GetTable("all_types").ValueOrDie();
    ASSERT_EQ(meta.columns.size(), resident->num_columns());
    for (size_t c = 0; c < meta.columns.size(); ++c) {
      EXPECT_EQ(bytes[meta.columns[c].payload_offset],
                static_cast<uint8_t>(resident->column(c)->type()))
          << c;
    }
    Database loaded;
    ASSERT_TRUE(loaded.LoadFrom(dir).ok());
    auto stored = loaded.catalog().ScanTable("all_types", std::nullopt);
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
    EXPECT_TRUE(stored.ValueOrDie()->Equals(*resident));
    ExpectFetchAllMatches(&loaded);
    EXPECT_TRUE(stored.ValueOrDie()->Equals(
        *FetchAllRowAtATime(&loaded, "SELECT * FROM all_types").ValueOrDie()));
  }
  {
    SCOPED_TRACE("empty result");
    auto empty = FetchAllRowAtATime(&db_, "SELECT * FROM t WHERE x > 99");
    ASSERT_TRUE(empty.ok()) << empty.status().ToString();
    EXPECT_EQ(empty.ValueOrDie()->num_rows(), 0u);
    EXPECT_EQ(empty.ValueOrDie()->num_columns(), 3u);
  }
}

}  // namespace
}  // namespace mlcs::client
