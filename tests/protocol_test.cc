#include "client/protocol.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace mlcs::client {
namespace {

TablePtr MixedTable() {
  Schema s;
  s.AddField("i", TypeId::kInt32);
  s.AddField("l", TypeId::kInt64);
  s.AddField("d", TypeId::kDouble);
  s.AddField("b", TypeId::kBool);
  s.AddField("v", TypeId::kVarchar);
  s.AddField("blob", TypeId::kBlob);
  auto t = Table::Make(std::move(s));
  EXPECT_TRUE(t->AppendRow({Value::Int32(-1), Value::Int64(1LL << 40),
                            Value::Double(2.5), Value::Bool(true),
                            Value::Varchar("hello"),
                            Value::Blob(std::string("\x01\x02", 2))})
                  .ok());
  EXPECT_TRUE(
      t->AppendRow({Value::MakeNull(TypeId::kInt32),
                    Value::MakeNull(TypeId::kInt64),
                    Value::MakeNull(TypeId::kDouble),
                    Value::MakeNull(TypeId::kBool),
                    Value::MakeNull(TypeId::kVarchar),
                    Value::MakeNull(TypeId::kBlob)})
          .ok());
  return t;
}

class ProtocolRoundTripTest : public ::testing::TestWithParam<WireProtocol> {
};

/// Property: encode → decode is the identity for every protocol. (Note the
/// pg-text protocol is lossless here because FormatDouble is shortest-
/// round-trip, like PostgreSQL's extra_float_digits=3.)
TEST_P(ProtocolRoundTripTest, MixedTableRoundTrips) {
  WireProtocol protocol = GetParam();
  auto t = MixedTable();
  ByteWriter out;
  EncodeHeader(t->schema(), &out);
  ASSERT_TRUE(EncodeRows(*t, protocol, 0, t->num_rows(), &out).ok());
  EncodeEnd(&out);
  ByteReader in(out.data());
  auto back = DecodeResultSet(&in, protocol).ValueOrDie();
  EXPECT_TRUE(t->Equals(*back));
}

TEST_P(ProtocolRoundTripTest, RandomizedNumericRoundTrip) {
  WireProtocol protocol = GetParam();
  Schema s;
  s.AddField("x", TypeId::kInt64);
  s.AddField("y", TypeId::kDouble);
  auto t = Table::Make(std::move(s));
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    if (rng.NextDouble() < 0.02) {
      ASSERT_TRUE(t->AppendRow({Value::MakeNull(TypeId::kInt64),
                                Value::MakeNull(TypeId::kDouble)})
                      .ok());
    } else {
      ASSERT_TRUE(
          t->AppendRow({Value::Int64(static_cast<int64_t>(rng.NextU64())),
                        Value::Double(rng.NextGaussian())})
              .ok());
    }
  }
  ByteWriter out;
  EncodeHeader(t->schema(), &out);
  ASSERT_TRUE(EncodeRows(*t, protocol, 0, t->num_rows(), &out).ok());
  EncodeEnd(&out);
  ByteReader in(out.data());
  auto back = DecodeResultSet(&in, protocol).ValueOrDie();
  EXPECT_TRUE(t->Equals(*back));
}

INSTANTIATE_TEST_SUITE_P(Protocols, ProtocolRoundTripTest,
                         ::testing::Values(WireProtocol::kPgText,
                                           WireProtocol::kMyBinary,
                                           WireProtocol::kColumnar));

TEST(ProtocolTest, TextIsLargerThanBinaryForWideInts) {
  Schema s;
  s.AddField("x", TypeId::kInt64);
  auto t = Table::Make(std::move(s));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        t->AppendRow({Value::Int64(1234567890123456789LL)}).ok());
  }
  ByteWriter text, binary;
  ASSERT_TRUE(EncodeRows(*t, WireProtocol::kPgText, 0, 1000, &text).ok());
  ASSERT_TRUE(
      EncodeRows(*t, WireProtocol::kMyBinary, 0, 1000, &binary).ok());
  EXPECT_GT(text.size(), binary.size());
}

/// The columnar block drops the per-row marker and per-row NULL bitmap, so
/// for all-valid fixed-width data it beats the mysql-style binary rows.
TEST(ProtocolTest, ColumnarIsSmallerThanBinaryRows) {
  Schema s;
  s.AddField("x", TypeId::kInt64);
  s.AddField("y", TypeId::kDouble);
  auto t = Table::Make(std::move(s));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        t->AppendRow({Value::Int64(i), Value::Double(i * 0.5)}).ok());
  }
  ByteWriter binary, columnar;
  ASSERT_TRUE(
      EncodeRows(*t, WireProtocol::kMyBinary, 0, 1000, &binary).ok());
  ASSERT_TRUE(
      EncodeRows(*t, WireProtocol::kColumnar, 0, 1000, &columnar).ok());
  EXPECT_LT(columnar.size(), binary.size());
}

TEST(ProtocolTest, ColumnarPartialRangeRoundTrips) {
  auto t = MixedTable();
  ByteWriter out;
  EncodeHeader(t->schema(), &out);
  ASSERT_TRUE(EncodeRows(*t, WireProtocol::kColumnar, 1, 1, &out).ok());
  EncodeEnd(&out);
  ByteReader in(out.data());
  auto back = DecodeResultSet(&in, WireProtocol::kColumnar).ValueOrDie();
  EXPECT_EQ(back->num_rows(), 1u);
  EXPECT_TRUE(back->GetValue(0, 0).ValueOrDie().is_null());
}

/// Two columnar blocks appended to one result set decode correctly even
/// when the first block introduces NULLs (the bulk fast path must detect
/// the column already carries a validity vector).
TEST(ProtocolTest, ColumnarMultipleBlocksWithNulls) {
  auto t = MixedTable();
  ByteWriter out;
  EncodeHeader(t->schema(), &out);
  ASSERT_TRUE(EncodeRows(*t, WireProtocol::kColumnar, 1, 1, &out).ok());
  ASSERT_TRUE(EncodeRows(*t, WireProtocol::kColumnar, 0, 1, &out).ok());
  EncodeEnd(&out);
  ByteReader in(out.data());
  auto back = DecodeResultSet(&in, WireProtocol::kColumnar).ValueOrDie();
  ASSERT_EQ(back->num_rows(), 2u);
  EXPECT_TRUE(back->GetValue(0, 0).ValueOrDie().is_null());
  EXPECT_EQ(back->GetValue(1, 0).ValueOrDie(), Value::Int32(-1));
}

TEST(ProtocolTest, ColumnarTruncatedBlockRejected) {
  Schema s;
  s.AddField("x", TypeId::kInt64);
  auto t = Table::Make(std::move(s));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int64(i)}).ok());
  }
  ByteWriter out;
  EncodeHeader(t->schema(), &out);
  ASSERT_TRUE(EncodeRows(*t, WireProtocol::kColumnar, 0, 100, &out).ok());
  ByteReader in(out.data().data(), out.size() / 2);
  EXPECT_FALSE(DecodeResultSet(&in, WireProtocol::kColumnar).ok());
}

/// A block header may declare an absurd row count; the decoder must reject
/// it before sizing any buffer from the wire value.
TEST(ProtocolTest, ColumnarOversizedBlockCountRejected) {
  ByteWriter out;
  out.WriteU16(1);
  out.WriteString("x");
  out.WriteU8(static_cast<uint8_t>(TypeId::kInt64));
  out.WriteU8('B');
  out.WriteU32(0xFFFFFFFFu);  // declared rows far beyond the payload
  out.WriteU8(0);             // no nulls
  ByteReader in(out.data());
  EXPECT_FALSE(DecodeResultSet(&in, WireProtocol::kColumnar).ok());
}

TEST(ProtocolTest, PartialRangeEncoding) {
  auto t = MixedTable();
  ByteWriter out;
  EncodeHeader(t->schema(), &out);
  ASSERT_TRUE(EncodeRows(*t, WireProtocol::kMyBinary, 1, 1, &out).ok());
  EncodeEnd(&out);
  ByteReader in(out.data());
  auto back = DecodeResultSet(&in, WireProtocol::kMyBinary).ValueOrDie();
  EXPECT_EQ(back->num_rows(), 1u);
  EXPECT_TRUE(back->GetValue(0, 0).ValueOrDie().is_null());
}

TEST(ProtocolTest, RangeOverflowRejected) {
  auto t = MixedTable();
  ByteWriter out;
  EXPECT_FALSE(EncodeRows(*t, WireProtocol::kPgText, 1, 5, &out).ok());
}

TEST(ProtocolTest, CorruptStreamRejected) {
  ByteWriter out;
  out.WriteU16(1);
  out.WriteString("x");
  out.WriteU8(static_cast<uint8_t>(TypeId::kInt32));
  out.WriteU8('Z');  // bogus marker
  ByteReader in(out.data());
  EXPECT_FALSE(DecodeResultSet(&in, WireProtocol::kPgText).ok());
}

TEST(ProtocolTest, TruncatedStreamRejected) {
  auto t = MixedTable();
  ByteWriter out;
  EncodeHeader(t->schema(), &out);
  ASSERT_TRUE(EncodeRows(*t, WireProtocol::kPgText, 0, 2, &out).ok());
  // No end marker and half the bytes.
  ByteReader in(out.data().data(), out.size() / 2);
  EXPECT_FALSE(DecodeResultSet(&in, WireProtocol::kPgText).ok());
}

/// The streaming decoder: messages split over frames append to one table,
/// and only the frame carrying the end marker reports it.
TEST_P(ProtocolRoundTripTest, MessagesDecodeFrameByFrame) {
  WireProtocol protocol = GetParam();
  auto t = MixedTable();
  ByteWriter header;
  EncodeHeader(t->schema(), &header);
  ByteWriter first;
  ASSERT_TRUE(EncodeRows(*t, protocol, 0, 1, &first).ok());
  ByteWriter last;
  ASSERT_TRUE(EncodeRows(*t, protocol, 1, 1, &last).ok());
  EncodeEnd(&last);

  ByteReader header_in(header.data());
  auto back = Table::Make(DecodeHeader(&header_in).ValueOrDie());
  ByteReader first_in(first.data());
  EXPECT_FALSE(DecodeMessages(&first_in, protocol, back.get()).ValueOrDie());
  EXPECT_EQ(back->num_rows(), 1u);
  ByteReader last_in(last.data());
  EXPECT_TRUE(DecodeMessages(&last_in, protocol, back.get()).ValueOrDie());
  EXPECT_TRUE(last_in.AtEnd());
  EXPECT_TRUE(t->Equals(*back));
}

TEST(ProtocolTest, ResultSetWithoutEndMarkerRejected) {
  auto t = MixedTable();
  ByteWriter out;
  EncodeHeader(t->schema(), &out);
  ASSERT_TRUE(EncodeRows(*t, WireProtocol::kMyBinary, 0, 2, &out).ok());
  ByteReader in(out.data());
  EXPECT_FALSE(DecodeResultSet(&in, WireProtocol::kMyBinary).ok());
}

TEST(ProtocolTest, QueryRequestRoundTrips) {
  ByteWriter out;
  EncodeQueryRequest(WireProtocol::kColumnar, "SELECT 1", &out);
  EXPECT_EQ(out.size(), 1u + 8u);  // protocol byte, then the bare SQL
  ByteReader in(out.data());
  QueryRequest back = DecodeQueryRequest(&in).ValueOrDie();
  EXPECT_EQ(back.protocol, WireProtocol::kColumnar);
  EXPECT_EQ(back.sql, "SELECT 1");
  EXPECT_TRUE(in.AtEnd());
}

TEST(ProtocolTest, QueryRequestWithUnknownProtocolRejected) {
  const uint8_t body[] = {0x7F, 'x'};
  ByteReader in(body, sizeof(body));
  auto decoded = DecodeQueryRequest(&in);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("bad protocol"),
            std::string::npos);
  ByteReader empty(body, 0);
  EXPECT_FALSE(DecodeQueryRequest(&empty).ok());
}

}  // namespace
}  // namespace mlcs::client
