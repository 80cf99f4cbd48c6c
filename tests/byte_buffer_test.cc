#include "common/byte_buffer.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace mlcs {
namespace {

TEST(ByteBufferTest, PrimitiveRoundTrip) {
  ByteWriter w;
  w.WriteU8(0xAB);
  w.WriteU16(0x1234);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFULL);
  w.WriteI32(-42);
  w.WriteI64(-1LL << 40);
  w.WriteDouble(3.14159);
  w.WriteBool(true);
  w.WriteBool(false);

  ByteReader r(w.data());
  EXPECT_EQ(r.ReadU8().ValueOrDie(), 0xAB);
  EXPECT_EQ(r.ReadU16().ValueOrDie(), 0x1234);
  EXPECT_EQ(r.ReadU32().ValueOrDie(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64().ValueOrDie(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.ReadI32().ValueOrDie(), -42);
  EXPECT_EQ(r.ReadI64().ValueOrDie(), -1LL << 40);
  EXPECT_DOUBLE_EQ(r.ReadDouble().ValueOrDie(), 3.14159);
  EXPECT_TRUE(r.ReadBool().ValueOrDie());
  EXPECT_FALSE(r.ReadBool().ValueOrDie());
  EXPECT_TRUE(r.AtEnd());
}

/// The frame idiom: reserve a length prefix, fill it in last, then reuse
/// the writer for the next frame without giving back its buffer.
TEST(ByteBufferTest, PatchedPrefixAndClearKeepsCapacity) {
  ByteWriter w;
  w.WriteU32(0);
  w.WriteString("abc");
  w.PatchU32(0, static_cast<uint32_t>(w.size() - sizeof(uint32_t)));
  ByteReader r(w.data());
  EXPECT_EQ(r.ReadU32().ValueOrDie(), 7u);
  EXPECT_EQ(r.ReadString().ValueOrDie(), "abc");
  EXPECT_TRUE(r.AtEnd());

  // Truncate cuts the tail back off and keeps what came before.
  w.WriteU8(0xEE);
  w.Truncate(w.size() - 1);
  EXPECT_EQ(w.size(), 11u);

  size_t capacity = w.data().capacity();
  w.Clear();
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(w.data().capacity(), capacity);
}

TEST(ByteBufferTest, StringRoundTrip) {
  ByteWriter w;
  w.WriteString("");
  w.WriteString("hello");
  std::string binary("\x00\x01\xFFzzz", 6);
  w.WriteString(binary);

  ByteReader r(w.data());
  EXPECT_EQ(r.ReadString().ValueOrDie(), "");
  EXPECT_EQ(r.ReadString().ValueOrDie(), "hello");
  EXPECT_EQ(r.ReadString().ValueOrDie(), binary);
}

TEST(ByteBufferTest, TruncatedReadsReportOutOfRange) {
  ByteWriter w;
  w.WriteU32(7);
  ByteReader r(w.data());
  ASSERT_TRUE(r.Skip(2).ok());
  auto res = r.ReadU32();
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kOutOfRange);
}

TEST(ByteBufferTest, TruncatedStringBodyReported) {
  ByteWriter w;
  w.WriteU32(100);  // claims 100 bytes follow
  w.WriteRaw("abc", 3);
  ByteReader r(w.data());
  auto res = r.ReadString();
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kOutOfRange);
}

TEST(ByteBufferTest, VarintKnownEncodings) {
  ByteWriter w;
  w.WriteVarint(0);
  w.WriteVarint(127);
  w.WriteVarint(128);
  w.WriteVarint(300);
  EXPECT_EQ(w.size(), 1u + 1u + 2u + 2u);
  ByteReader r(w.data());
  EXPECT_EQ(r.ReadVarint().ValueOrDie(), 0u);
  EXPECT_EQ(r.ReadVarint().ValueOrDie(), 127u);
  EXPECT_EQ(r.ReadVarint().ValueOrDie(), 128u);
  EXPECT_EQ(r.ReadVarint().ValueOrDie(), 300u);
}

/// Property: varint round-trips arbitrary 64-bit values.
TEST(ByteBufferTest, VarintRandomRoundTrip) {
  Rng rng(123);
  ByteWriter w;
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    // Mix magnitudes: shift a random value by a random amount.
    uint64_t v = rng.NextU64() >> (rng.NextBounded(64));
    values.push_back(v);
    w.WriteVarint(v);
  }
  ByteReader r(w.data());
  for (uint64_t expected : values) {
    EXPECT_EQ(r.ReadVarint().ValueOrDie(), expected);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteBufferTest, TakeStringMovesAndClears) {
  ByteWriter w;
  w.WriteRaw("abc", 3);
  std::string s = w.TakeString();
  EXPECT_EQ(s, "abc");
  EXPECT_EQ(w.size(), 0u);
}

TEST(ByteBufferTest, ReadCountBoundsTheCountByTheRemainingInput) {
  ByteWriter w;
  w.WriteVarint(3);
  for (int i = 0; i < 3; ++i) w.WriteI32(i);
  w.WriteVarint(4);  // claims one more element than follows
  for (int i = 0; i < 3; ++i) w.WriteI32(i);
  std::string bytes = w.TakeString();
  ByteReader r(bytes);
  EXPECT_EQ(r.ReadCount(4, "value").ValueOrDie(), 3u);
  ASSERT_TRUE(r.Skip(12).ok());
  auto over = r.ReadCount(4, "value");
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kParseError);
  // Zero-byte elements count as one byte each.
  ByteWriter z;
  z.WriteVarint(2);
  std::string two = z.TakeString();
  ByteReader zr(two);
  EXPECT_FALSE(zr.ReadCount(0, "flag").ok());
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

}  // namespace
}  // namespace mlcs
