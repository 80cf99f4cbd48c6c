#include "io/csv.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/random.h"

namespace mlcs::io {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TablePtr MixedTable() {
  Schema s;
  s.AddField("id", TypeId::kInt64);
  s.AddField("name", TypeId::kVarchar);
  s.AddField("score", TypeId::kDouble);
  s.AddField("flag", TypeId::kBool);
  auto t = Table::Make(std::move(s));
  EXPECT_TRUE(t->AppendRow({Value::Int64(1), Value::Varchar("plain"),
                            Value::Double(0.5), Value::Bool(true)})
                  .ok());
  EXPECT_TRUE(t->AppendRow({Value::Int64(2), Value::Varchar("has,comma"),
                            Value::Double(-1.25), Value::Bool(false)})
                  .ok());
  EXPECT_TRUE(t->AppendRow({Value::Int64(3), Value::Varchar("has\"quote"),
                            Value::MakeNull(TypeId::kDouble),
                            Value::Bool(true)})
                  .ok());
  return t;
}

TEST(CsvTest, RoundTripWithQuotingAndNulls) {
  std::string path = TempPath("roundtrip.csv");
  auto t = MixedTable();
  ASSERT_TRUE(WriteCsv(*t, path).ok());
  auto back = ReadCsv(path, t->schema()).ValueOrDie();
  ASSERT_EQ(back->num_rows(), 3u);
  EXPECT_EQ(back->GetValue(1, 1).ValueOrDie(), Value::Varchar("has,comma"));
  EXPECT_EQ(back->GetValue(2, 1).ValueOrDie(), Value::Varchar("has\"quote"));
  EXPECT_TRUE(back->GetValue(2, 2).ValueOrDie().is_null());
  EXPECT_EQ(back->GetValue(0, 3).ValueOrDie(), Value::Bool(true));
  std::remove(path.c_str());
}

TEST(CsvTest, HeaderlessAndCustomDelimiter) {
  std::string path = TempPath("tsv.csv");
  CsvOptions opt;
  opt.delimiter = '\t';
  opt.has_header = false;
  Schema s;
  s.AddField("a", TypeId::kInt32);
  s.AddField("b", TypeId::kInt32);
  auto t = Table::Make(s);
  ASSERT_TRUE(t->AppendRow({Value::Int32(1), Value::Int32(2)}).ok());
  ASSERT_TRUE(WriteCsv(*t, path, opt).ok());
  auto back = ReadCsv(path, s, opt).ValueOrDie();
  EXPECT_EQ(back->num_rows(), 1u);
  EXPECT_EQ(back->GetValue(0, 1).ValueOrDie(), Value::Int32(2));
  std::remove(path.c_str());
}

TEST(CsvTest, FieldCountMismatchReported) {
  std::string path = TempPath("ragged.csv");
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fputs("a,b\n1,2\n3\n", f);
  fclose(f);
  Schema s;
  s.AddField("a", TypeId::kInt32);
  s.AddField("b", TypeId::kInt32);
  EXPECT_FALSE(ReadCsv(path, s).ok());
  std::remove(path.c_str());
}

TEST(CsvTest, BadNumberReported) {
  std::string path = TempPath("badnum.csv");
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fputs("a\nxyz\n", f);
  fclose(f);
  Schema s;
  s.AddField("a", TypeId::kInt32);
  EXPECT_FALSE(ReadCsv(path, s).ok());
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileReported) {
  Schema s;
  s.AddField("a", TypeId::kInt32);
  EXPECT_FALSE(ReadCsv("/no/such/file.csv", s).ok());
  EXPECT_FALSE(WriteCsv(*Table::Make(s), "/no/such/dir/file.csv").ok());
}

TEST(CsvTest, BlobRejected) {
  Schema s;
  s.AddField("b", TypeId::kBlob);
  auto t = Table::Make(s);
  ASSERT_TRUE(t->AppendRow({Value::Blob("x")}).ok());
  EXPECT_FALSE(WriteCsv(*t, TempPath("blob.csv")).ok());
}

/// Property: random numeric tables round-trip exactly.
TEST(CsvTest, RandomizedNumericRoundTrip) {
  Rng rng(55);
  Schema s;
  s.AddField("i", TypeId::kInt64);
  s.AddField("d", TypeId::kDouble);
  auto t = Table::Make(s);
  for (int r = 0; r < 500; ++r) {
    ASSERT_TRUE(t->AppendRow({Value::Int64(static_cast<int64_t>(
                                  rng.NextU64() >> rng.NextBounded(40))),
                              Value::Double(rng.NextGaussian())})
                    .ok());
  }
  std::string path = TempPath("random.csv");
  ASSERT_TRUE(WriteCsv(*t, path).ok());
  auto back = ReadCsv(path, s).ValueOrDie();
  EXPECT_TRUE(t->Equals(*back));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mlcs::io
