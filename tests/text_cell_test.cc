#include "storage/text_cell.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>

#include "client/protocol.h"
#include "common/random.h"
#include "common/string_util.h"
#include "io/csv.h"

namespace mlcs {
namespace {

using client::EncodeEnd;
using client::WireProtocol;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::string out;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

uint64_t Fnv1a(const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Every type with its edge values: NULL in the first row and in later
/// rows, int extremes, ±0.0, NaN, ±inf, denormals, 17-digit doubles, empty
/// VARCHAR beside NULL, and strings that need CSV quoting. Then 200 seeded
/// random rows. `with_blob` adds a BLOB column (CSV cannot carry one).
TablePtr EdgeTable(bool with_blob) {
  Schema s;
  s.AddField("i", TypeId::kInt32);
  s.AddField("l", TypeId::kInt64);
  s.AddField("d", TypeId::kDouble);
  s.AddField("b", TypeId::kBool);
  s.AddField("v", TypeId::kVarchar);
  if (with_blob) s.AddField("blob", TypeId::kBlob);
  auto t = Table::Make(std::move(s));
  auto add = [&](Value i, Value l, Value d, Value b, Value v, Value blob) {
    std::vector<Value> row = {std::move(i), std::move(l), std::move(d),
                              std::move(b), std::move(v)};
    if (with_blob) row.push_back(std::move(blob));
    EXPECT_TRUE(t->AppendRow(row).ok());
  };
  const Value null_i = Value::MakeNull(TypeId::kInt32);
  const Value null_l = Value::MakeNull(TypeId::kInt64);
  const Value null_d = Value::MakeNull(TypeId::kDouble);
  const Value null_b = Value::MakeNull(TypeId::kBool);
  const Value null_v = Value::MakeNull(TypeId::kVarchar);
  const Value null_blob = Value::MakeNull(TypeId::kBlob);
  add(null_i, null_l, null_d, null_b, null_v, null_blob);
  add(Value::Int32(INT32_MIN), Value::Int64(INT64_MIN), Value::Double(-0.0),
      Value::Bool(true), Value::Varchar(""), Value::Blob(""));
  add(Value::Int32(INT32_MAX), Value::Int64(INT64_MAX), Value::Double(0.0),
      Value::Bool(false), Value::Varchar("plain"),
      Value::Blob(std::string("\x00\xff\n", 3)));
  add(Value::Int32(0), Value::Int64(-1), Value::Double(kNaN), null_b,
      Value::Varchar("has,comma"), null_blob);
  add(Value::Int32(-7), null_l, Value::Double(kInf), Value::Bool(true),
      Value::Varchar("say \"hi\""), Value::Blob("x"));
  add(null_i, Value::Int64(1LL << 40), Value::Double(-kInf),
      Value::Bool(false), Value::Varchar("two\nlines"), Value::Blob("yz"));
  add(Value::Int32(1), Value::Int64(0),
      Value::Double(std::numeric_limits<double>::denorm_min()),
      Value::Bool(true), Value::Varchar("cr\r\nlf"), Value::Blob("\""));
  add(Value::Int32(2), Value::Int64(2), Value::Double(5e-310), null_b,
      Value::Varchar("\"\""), Value::Blob(""));
  add(Value::Int32(3), Value::Int64(3), Value::Double(0.1 + 0.2),
      Value::Bool(false), Value::Varchar(" padded "), null_blob);
  add(Value::Int32(4), null_l, Value::Double(-1.7976931348623157e308),
      Value::Bool(true), null_v, Value::Blob("end"));
  add(Value::Int32(5), Value::Int64(5), Value::Double(2.2250738585072014e-308),
      Value::Bool(false), Value::Varchar("\""), Value::Blob("q"));
  Rng rng(26);
  for (int r = 0; r < 200; ++r) {
    bool nulls = rng.NextBounded(7) == 0;
    add(nulls ? null_i
              : Value::Int32(static_cast<int32_t>(rng.NextU64() >>
                                                  (32 + rng.NextBounded(31)))),
        Value::Int64(static_cast<int64_t>(rng.NextU64() >> rng.NextBounded(63))),
        nulls ? null_d : Value::Double(rng.NextGaussian() * 1e6),
        Value::Bool(rng.NextBounded(2) == 1),
        Value::Varchar(std::string(rng.NextBounded(12), 'a' + r % 26)),
        Value::Blob(std::string(rng.NextBounded(5), static_cast<char>(r))));
  }
  return t;
}

/// Bitwise cell equality: NaN matches NaN, -0.0 does not match 0.0.
void ExpectSameCells(const Table& want, const Table& got) {
  ASSERT_EQ(want.num_columns(), got.num_columns());
  ASSERT_EQ(want.num_rows(), got.num_rows());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const Column& a = *want.column(c);
    const Column& b = *got.column(c);
    ASSERT_EQ(a.type(), b.type());
    for (size_t r = 0; r < want.num_rows(); ++r) {
      SCOPED_TRACE("column " + std::to_string(c) + " row " +
                   std::to_string(r));
      ASSERT_EQ(a.IsNull(r), b.IsNull(r));
      if (a.IsNull(r)) continue;
      switch (a.type()) {
        case TypeId::kBool:
          EXPECT_EQ(a.bool_data()[r], b.bool_data()[r]);
          break;
        case TypeId::kInt32:
          EXPECT_EQ(a.i32_data()[r], b.i32_data()[r]);
          break;
        case TypeId::kInt64:
          EXPECT_EQ(a.i64_data()[r], b.i64_data()[r]);
          break;
        case TypeId::kDouble:
          EXPECT_EQ(std::memcmp(&a.f64_data()[r], &b.f64_data()[r],
                                sizeof(double)),
                    0)
              << a.f64_data()[r] << " vs " << b.f64_data()[r];
          break;
        case TypeId::kVarchar:
        case TypeId::kBlob:
          EXPECT_EQ(a.str_data()[r], b.str_data()[r]);
          break;
      }
    }
  }
}

/// Frame bytes of rows [0, n) in `protocol`, header and end marker
/// included.
std::vector<uint8_t> EncodeAll(const Table& t, WireProtocol protocol) {
  ByteWriter out;
  client::EncodeHeader(t.schema(), &out);
  EXPECT_TRUE(client::EncodeRows(t, protocol, 0, t.num_rows(), &out).ok());
  client::EncodeEnd(&out);
  return out.data();
}

// The hashes were taken from the per-cell encoders these in-place ones
// replaced, so the wire and file bytes are checked, not assumed, to be
// unchanged.
TEST(TextCellTest, FrameAndCsvBytesMatchTheGoldenHashes) {
  auto t = EdgeTable(/*with_blob=*/true);
  std::vector<uint8_t> pg = EncodeAll(*t, WireProtocol::kPgText);
  std::vector<uint8_t> my = EncodeAll(*t, WireProtocol::kMyBinary);
  std::string path = TempPath("golden.csv");
  ASSERT_TRUE(io::WriteCsv(*EdgeTable(/*with_blob=*/false), path).ok());
  std::string csv = ReadFile(path);
  std::remove(path.c_str());
  EXPECT_EQ(pg.size(), 13310u);
  EXPECT_EQ(Fnv1a(pg.data(), pg.size()), 7054130210786476844ull);
  EXPECT_EQ(my.size(), 7828u);
  EXPECT_EQ(Fnv1a(my.data(), my.size()), 11683149305182292960ull);
  EXPECT_EQ(csv.size(), 9373u);
  EXPECT_EQ(Fnv1a(csv.data(), csv.size()), 7262396948994692797ull);
}

/// The table a CSV round trip of `t` reads back: CSV writes NULL as an
/// empty field and reads an empty VARCHAR field as "", so a NULL VARCHAR
/// comes back as "". Every other cell comes back as it was.
TablePtr CsvReadsBackAs(const Table& t) {
  auto out = Table::Make(t.schema());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      Value v = t.GetValue(r, c).ValueOrDie();
      if (v.is_null() && v.type() == TypeId::kVarchar) v = Value::Varchar("");
      row.push_back(std::move(v));
    }
    EXPECT_TRUE(out->AppendRow(row).ok());
  }
  return out;
}

TEST(TextCellTest, EdgeTableRoundTripsThroughCsvBitIdentical) {
  auto t = EdgeTable(/*with_blob=*/false);
  std::string path = TempPath("edge.csv");
  ASSERT_TRUE(io::WriteCsv(*t, path).ok());
  auto back = io::ReadCsv(path, t->schema());
  std::remove(path.c_str());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameCells(*CsvReadsBackAs(*t), *back.ValueOrDie());
}

TEST(TextCellTest, EdgeTableRoundTripsThroughBothRowProtocolsBitIdentical) {
  auto t = EdgeTable(/*with_blob=*/true);
  for (WireProtocol protocol :
       {WireProtocol::kPgText, WireProtocol::kMyBinary}) {
    SCOPED_TRACE(client::WireProtocolToString(protocol));
    std::vector<uint8_t> bytes = EncodeAll(*t, protocol);
    ByteReader in(bytes);
    auto back = client::DecodeResultSet(&in, protocol);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(in.AtEnd());
    ExpectSameCells(*t, *back.ValueOrDie());
  }
}

/// One text cell and what every text path must make of it.
struct TextCase {
  TypeId type;
  std::string text;
  StatusCode code;  // kOk, or the error every path returns
  Value want;       // the parsed value when code is kOk
};

std::vector<TextCase> TextCases() {
  using C = StatusCode;
  const Value none;
  return {
      {TypeId::kInt32, "0", C::kOk, Value::Int32(0)},
      {TypeId::kInt32, "-2147483648", C::kOk, Value::Int32(INT32_MIN)},
      {TypeId::kInt32, "2147483647", C::kOk, Value::Int32(INT32_MAX)},
      {TypeId::kInt32, "2147483648", C::kOutOfRange, none},
      {TypeId::kInt32, "-2147483649", C::kOutOfRange, none},
      {TypeId::kInt32, " 42 ", C::kOk, Value::Int32(42)},
      {TypeId::kInt32, "\t-7\t", C::kOk, Value::Int32(-7)},
      {TypeId::kInt32, "+1", C::kParseError, none},
      {TypeId::kInt32, "1.0", C::kParseError, none},
      {TypeId::kInt32, "12abc", C::kParseError, none},
      {TypeId::kInt32, "4 2", C::kParseError, none},
      {TypeId::kInt32, "99999999999999999999", C::kParseError, none},
      {TypeId::kInt64, "-9223372036854775808", C::kOk,
       Value::Int64(INT64_MIN)},
      {TypeId::kInt64, "9223372036854775807", C::kOk,
       Value::Int64(INT64_MAX)},
      {TypeId::kInt64, "9223372036854775808", C::kParseError, none},
      {TypeId::kInt64, " 5", C::kOk, Value::Int64(5)},
      {TypeId::kDouble, "-0", C::kOk, Value::Double(-0.0)},
      {TypeId::kDouble, "0", C::kOk, Value::Double(0.0)},
      {TypeId::kDouble, "nan", C::kOk, Value::Double(kNaN)},
      {TypeId::kDouble, "inf", C::kOk, Value::Double(kInf)},
      {TypeId::kDouble, "-inf", C::kOk, Value::Double(-kInf)},
      {TypeId::kDouble, "5e-324", C::kOk,
       Value::Double(std::numeric_limits<double>::denorm_min())},
      {TypeId::kDouble, "0.30000000000000004", C::kOk,
       Value::Double(0.1 + 0.2)},
      {TypeId::kDouble, " 2.5 ", C::kOk, Value::Double(2.5)},
      {TypeId::kDouble, "2.5x", C::kParseError, none},
      {TypeId::kDouble, "1e400", C::kParseError, none},
      {TypeId::kBool, "t", C::kOk, Value::Bool(true)},
      {TypeId::kBool, "T", C::kOk, Value::Bool(true)},
      {TypeId::kBool, "true", C::kOk, Value::Bool(true)},
      {TypeId::kBool, "TRUE", C::kOk, Value::Bool(true)},
      {TypeId::kBool, "tRuE", C::kOk, Value::Bool(true)},
      {TypeId::kBool, " true ", C::kOk, Value::Bool(true)},
      {TypeId::kBool, "f", C::kOk, Value::Bool(false)},
      {TypeId::kBool, "F", C::kOk, Value::Bool(false)},
      {TypeId::kBool, "false", C::kOk, Value::Bool(false)},
      {TypeId::kBool, "False", C::kOk, Value::Bool(false)},
      {TypeId::kBool, "yes", C::kParseError, none},
      {TypeId::kBool, "1", C::kParseError, none},
      {TypeId::kBool, "0", C::kParseError, none},
      {TypeId::kBool, "tru", C::kParseError, none},
      {TypeId::kBool, "falsey", C::kParseError, none},
      {TypeId::kVarchar, " padded ", C::kOk, Value::Varchar(" padded ")},
      {TypeId::kVarchar, "", C::kOk, Value::Varchar("")},
      {TypeId::kVarchar, "a,b", C::kOk, Value::Varchar("a,b")},
      {TypeId::kVarchar, "say \"hi\"", C::kOk, Value::Varchar("say \"hi\"")},
      {TypeId::kVarchar, "two\nlines", C::kOk, Value::Varchar("two\nlines")},
  };
}

std::string CaseName(const TextCase& tc) {
  return std::string(TypeIdToString(tc.type)) + " '" + tc.text + "'";
}

/// Checks a one-row, one-column `got` (or its error) against `tc`.
void ExpectCase(const TextCase& tc, const Status& status, const Table* got) {
  ASSERT_EQ(status.code(), tc.code) << status.ToString();
  if (tc.code != StatusCode::kOk) return;
  ASSERT_EQ(got->num_rows(), 1u);
  auto want = Table::Make(got->schema());
  ASSERT_TRUE(want->AppendRow({tc.want}).ok());
  ExpectSameCells(*want, *got);
}

// Every text path — the shared parser itself, a CSV field and a pg-text
// wire cell — makes the same value or the same error of each case.
TEST(TextCellTest, EveryTextPathParsesEveryCaseAlike) {
  for (const TextCase& tc : TextCases()) {
    SCOPED_TRACE(CaseName(tc));
    Schema schema;
    schema.AddField("x", tc.type);
    {
      auto t = Table::Make(schema);
      Status st = AppendTextCell(t->column(0).get(), tc.text);
      ExpectCase(tc, st, t.get());
    }
    {
      // The field is quoted, so padding, the delimiter, quotes and
      // newlines all reach the parser.
      std::string quoted = "\"";
      for (char ch : tc.text) {
        quoted.push_back(ch);
        if (ch == '"') quoted.push_back('"');
      }
      quoted += "\"";
      std::string path = TempPath("case.csv");
      WriteFile(path, "x\n" + quoted + "\n");
      auto back = io::ReadCsv(path, schema);
      std::remove(path.c_str());
      ExpectCase(tc, back.status(),
                 back.ok() ? back.ValueOrDie().get() : nullptr);
    }
    {
      ByteWriter frame;
      frame.WriteU8('D');
      frame.WriteI32(static_cast<int32_t>(tc.text.size()));
      frame.WriteRaw(tc.text.data(), tc.text.size());
      EncodeEnd(&frame);
      auto t = Table::Make(schema);
      ByteReader in(frame.data());
      auto ended = client::DecodeMessages(&in, WireProtocol::kPgText, t.get());
      ExpectCase(tc, ended.status(), t.get());
    }
  }
}

TEST(TextCellTest, EmptyTextIsNullInCsvButAnErrorOnTheWire) {
  Schema schema;
  schema.AddField("x", TypeId::kInt32);
  std::string path = TempPath("empty.csv");
  WriteFile(path, "x\n\"\"\n7\n");
  auto csv = io::ReadCsv(path, schema);
  std::remove(path.c_str());
  ASSERT_TRUE(csv.ok()) << csv.status().ToString();
  EXPECT_TRUE(csv.ValueOrDie()->column(0)->IsNull(0));
  EXPECT_EQ(csv.ValueOrDie()->column(0)->i32_data()[1], 7);

  auto t = Table::Make(schema);
  EXPECT_EQ(AppendTextCell(t->column(0).get(), "").code(),
            StatusCode::kParseError);
  ByteWriter frame;
  frame.WriteU8('D');
  frame.WriteI32(-1);  // pg-text NULL
  frame.WriteU8('D');
  frame.WriteI32(0);   // an empty INTEGER text
  ByteReader in(frame.data());
  auto ended = client::DecodeMessages(&in, WireProtocol::kPgText, t.get());
  EXPECT_EQ(ended.status().code(), StatusCode::kParseError);
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_TRUE(t->column(0)->IsNull(0));
}

TEST(TextCellTest, CsvRecordsSpanQuotedNewlinesAndCountPhysicalLines) {
  Schema schema;
  schema.AddField("v", TypeId::kVarchar);
  schema.AddField("n", TypeId::kInt32);
  std::string path = TempPath("multiline.csv");
  WriteFile(path,
            "v,n\r\n\"a,b\",1\r\n\r\n\"two\nlines\",2\n\"x\"\"y\r\n\",3\n"
            "\"end\",4");
  auto back = io::ReadCsv(path, schema);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const Table& t = *back.ValueOrDie();
  ASSERT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.column(0)->str_data()[0], "a,b");
  EXPECT_EQ(t.column(0)->str_data()[1], "two\nlines");
  EXPECT_EQ(t.column(0)->str_data()[2], "x\"y\r\n");
  EXPECT_EQ(t.column(0)->str_data()[3], "end");
  EXPECT_EQ(t.column(1)->i32_data()[3], 4);

  // A bad field after a quoted newline is reported on its physical line.
  WriteFile(path, "v,n\n\"two\nlines\",1\nok,zz\n");
  auto bad = io::ReadCsv(path, schema);
  std::remove(path.c_str());
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
  WriteFile(path, "v,n\n\"two\nlines\",1\nshort\n");
  auto ragged = io::ReadCsv(path, schema);
  std::remove(path.c_str());
  ASSERT_FALSE(ragged.ok());
  EXPECT_NE(ragged.status().message().find("line 4 "), std::string::npos)
      << ragged.status().ToString();
}

TEST(TextCellTest, FormatNumberCellIsShortestRoundTripWithinItsBound) {
  auto d = Column::FromDouble({-2.2250738585072014e-308,
                               -1.7976931348623157e308, -0.0, kNaN, -kInf,
                               std::numeric_limits<double>::denorm_min(),
                               0.1 + 0.2, 1e-300});
  auto l = Column::FromInt64({INT64_MIN, INT64_MAX, 0});
  auto i = Column::FromInt32({INT32_MIN, INT32_MAX, -1});
  for (const ColumnPtr& col : {d, l, i}) {
    for (size_t r = 0; r < col->size(); ++r) {
      char text[kMaxNumberCellBytes];
      char* end = FormatNumberCell(*col, r, text);
      std::string_view view(text, static_cast<size_t>(end - text));
      ASSERT_GT(view.size(), 0u);
      ASSERT_LE(view.size(), kMaxNumberCellBytes);
      auto back = Column::Make(col->type());
      ASSERT_TRUE(AppendTextCell(back.get(), view).ok()) << view;
      Value want = col->GetValue(r).ValueOrDie();
      if (col->type() == TypeId::kDouble) {
        EXPECT_EQ(view, FormatDouble(want.double_value()));
      }
      Schema schema;
      schema.AddField("x", col->type());
      auto want_table = Table::Make(schema);
      ASSERT_TRUE(want_table->AppendRow({want}).ok());
      auto got_table = Table::Make(schema);
      ASSERT_TRUE(got_table->column(0)->AppendColumn(*back).ok());
      ExpectSameCells(*want_table, *got_table);
    }
  }
  EXPECT_EQ(std::string_view("-2.2250738585072014e-308").size(),
            kMaxNumberCellBytes);
}

}  // namespace
}  // namespace mlcs
