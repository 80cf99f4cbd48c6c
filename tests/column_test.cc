#include "storage/column.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/byte_buffer.h"
#include "common/random.h"

namespace mlcs {
namespace {

TEST(ColumnTest, AppendAndRead) {
  Column col(TypeId::kInt32);
  col.AppendInt32(1);
  col.AppendInt32(2);
  col.AppendInt32(3);
  EXPECT_EQ(col.size(), 3u);
  EXPECT_EQ(col.GetValue(1).ValueOrDie(), Value::Int32(2));
  EXPECT_FALSE(col.has_nulls());
}

TEST(ColumnTest, OutOfRangeGet) {
  Column col(TypeId::kInt32);
  auto r = col.GetValue(0);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(ColumnTest, NullsTracked) {
  Column col(TypeId::kDouble);
  col.AppendDouble(1.5);
  col.AppendNull();
  col.AppendDouble(2.5);
  EXPECT_TRUE(col.has_nulls());
  EXPECT_EQ(col.null_count(), 1u);
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_TRUE(col.GetValue(1).ValueOrDie().is_null());
}

TEST(ColumnTest, AppendValueCoercesLosslessly) {
  Column col(TypeId::kInt64);
  ASSERT_TRUE(col.AppendValue(Value::Int32(7)).ok());
  EXPECT_EQ(col.GetValue(0).ValueOrDie(), Value::Int64(7));
  // Incompatible append fails.
  Column blob_col(TypeId::kBlob);
  EXPECT_FALSE(blob_col.AppendValue(Value::Int32(1)).ok());
}

TEST(ColumnTest, ValidityStaysAlignedAfterMixedAppends) {
  Column col(TypeId::kInt32);
  col.AppendInt32(1);           // no validity vector yet
  col.AppendNull();             // forces validity for rows 0..1
  ASSERT_TRUE(col.AppendValue(Value::Int32(3)).ok());
  EXPECT_EQ(col.size(), 3u);
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_FALSE(col.IsNull(2));
  EXPECT_EQ(col.GetValue(2).ValueOrDie(), Value::Int32(3));
}

TEST(ColumnTest, ConstantBroadcast) {
  ColumnPtr col = Column::Constant(Value::Double(2.5), 4);
  EXPECT_EQ(col->size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(col->GetValue(i).ValueOrDie(), Value::Double(2.5));
  }
  ColumnPtr nulls = Column::Constant(Value::MakeNull(TypeId::kVarchar), 3);
  EXPECT_EQ(nulls->null_count(), 3u);
}

TEST(ColumnTest, FromTypedVectorsZeroCopySemantics) {
  ColumnPtr c1 = Column::FromInt32({1, 2, 3});
  EXPECT_EQ(c1->type(), TypeId::kInt32);
  EXPECT_EQ(c1->size(), 3u);
  ColumnPtr c2 = Column::FromDouble({0.5});
  EXPECT_EQ(c2->type(), TypeId::kDouble);
  ColumnPtr c3 = Column::FromStrings({"a", "b"}, TypeId::kBlob);
  EXPECT_EQ(c3->type(), TypeId::kBlob);
  ColumnPtr c4 = Column::FromBool({1, 0, 1});
  EXPECT_EQ(c4->type(), TypeId::kBool);
  ColumnPtr c5 = Column::FromInt64({10});
  EXPECT_EQ(c5->type(), TypeId::kInt64);
}

TEST(ColumnTest, CastIntToDouble) {
  ColumnPtr col = Column::FromInt32({1, 2, 3});
  ColumnPtr cast = col->CastTo(TypeId::kDouble).ValueOrDie();
  EXPECT_EQ(cast->type(), TypeId::kDouble);
  EXPECT_DOUBLE_EQ(cast->f64_data()[2], 3.0);
}

TEST(ColumnTest, CastPreservesNulls) {
  Column col(TypeId::kInt32);
  col.AppendInt32(1);
  col.AppendNull();
  ColumnPtr cast = col.CastTo(TypeId::kInt64).ValueOrDie();
  EXPECT_TRUE(cast->IsNull(1));
  EXPECT_EQ(cast->null_count(), 1u);
}

TEST(ColumnTest, CastOverflowFails) {
  ColumnPtr col = Column::FromInt64({1LL << 40});
  EXPECT_FALSE(col->CastTo(TypeId::kInt32).ok());
}

TEST(ColumnTest, TakeGathers) {
  ColumnPtr col = Column::FromInt32({10, 20, 30, 40});
  ColumnPtr taken = col->Take({3, 1, 1});
  ASSERT_EQ(taken->size(), 3u);
  EXPECT_EQ(taken->i32_data()[0], 40);
  EXPECT_EQ(taken->i32_data()[1], 20);
  EXPECT_EQ(taken->i32_data()[2], 20);
}

TEST(ColumnTest, TakeCarriesNulls) {
  Column col(TypeId::kVarchar);
  col.AppendString("a");
  col.AppendNull();
  col.AppendString("c");
  ColumnPtr taken = col.Take({1, 2});
  EXPECT_TRUE(taken->IsNull(0));
  EXPECT_FALSE(taken->IsNull(1));
  EXPECT_EQ(taken->null_count(), 1u);
}

TEST(ColumnTest, SliceIsContiguousTake) {
  ColumnPtr col = Column::FromDouble({0.0, 1.0, 2.0, 3.0, 4.0});
  ColumnPtr slice = col->Slice(1, 3);
  ASSERT_EQ(slice->size(), 3u);
  EXPECT_DOUBLE_EQ(slice->f64_data()[0], 1.0);
  EXPECT_DOUBLE_EQ(slice->f64_data()[2], 3.0);
}

TEST(ColumnTest, AppendColumnConcatenatesWithNulls) {
  Column a(TypeId::kInt32);
  a.AppendInt32(1);
  Column b(TypeId::kInt32);
  b.AppendNull();
  b.AppendInt32(3);
  ASSERT_TRUE(a.AppendColumn(b).ok());
  EXPECT_EQ(a.size(), 3u);
  EXPECT_FALSE(a.IsNull(0));
  EXPECT_TRUE(a.IsNull(1));
  EXPECT_EQ(a.GetValue(2).ValueOrDie(), Value::Int32(3));
  Column c(TypeId::kDouble);
  EXPECT_FALSE(a.AppendColumn(c).ok());
}

TEST(ColumnTest, ToDoubleVector) {
  Column col(TypeId::kInt32);
  col.AppendInt32(4);
  col.AppendNull();
  auto vec = col.ToDoubleVector().ValueOrDie();
  ASSERT_EQ(vec.size(), 2u);
  EXPECT_DOUBLE_EQ(vec[0], 4.0);
  EXPECT_TRUE(std::isnan(vec[1]));
  Column s(TypeId::kVarchar);
  EXPECT_FALSE(s.ToDoubleVector().ok());
}

TEST(ColumnTest, EqualsIgnoresNullPayloadGarbage) {
  Column a(TypeId::kInt32);
  a.AppendInt32(1);
  a.AppendNull();
  Column b(TypeId::kInt32);
  b.AppendInt32(1);
  b.AppendNull();
  EXPECT_TRUE(a.Equals(b));
  Column c(TypeId::kInt32);
  c.AppendInt32(1);
  c.AppendInt32(0);
  EXPECT_FALSE(a.Equals(c));
}

/// The serialized tag byte is the bare type byte (0–5). Any other byte is a
/// ParseError: the retired dictionary tags 0x80 + type and run-length tags
/// 0xA0 + type included.
TEST(ColumnTest, DeserializeRejectsUnknownTags) {
  ColumnPtr col = Column::Make(TypeId::kInt32);
  for (int32_t i = 0; i < 300; ++i) {
    if (i % 13 == 4) {
      col->AppendNull();
    } else {
      col->AppendInt32((i * 7) % 8);
    }
  }
  ByteWriter writer;
  col->Serialize(&writer);
  std::vector<uint8_t> bytes = writer.data();
  ASSERT_EQ(bytes[0], static_cast<uint8_t>(TypeId::kInt32));
  for (uint8_t tag : {0x80, 0x81, 0x82, 0x83, 0x84, 0x85, 0xA1, 0xA0, 0xA5,
                      0x06, 0x7F, 0x86, 0xC1, 0xFF}) {
    bytes[0] = tag;
    ByteReader reader(bytes);
    auto back = Column::Deserialize(&reader);
    ASSERT_FALSE(back.ok()) << "tag " << int{tag};
    EXPECT_EQ(back.status().code(), StatusCode::kParseError)
        << "tag " << int{tag};
  }
}

/// A row count beyond the input is a ParseError before anything is
/// allocated, and a chain of retired dictionary tags fails on its first.
TEST(ColumnTest, DeserializeBoundsRowCounts) {
  ByteWriter writer;
  writer.WriteU8(static_cast<uint8_t>(TypeId::kInt32));
  writer.WriteVarint(uint64_t{1} << 40);
  writer.WriteBool(true);
  ByteReader reader(writer.data());
  auto back = Column::Deserialize(&reader);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kParseError);

  // A million levels of the retired dictionary tag, three bytes a level.
  std::vector<uint8_t> chain;
  for (int level = 0; level < (1 << 20); ++level) {
    chain.insert(chain.end(), {0x81, 0x00, 0x00});
  }
  ByteReader chain_reader(chain);
  auto nested = Column::Deserialize(&chain_reader);
  ASSERT_FALSE(nested.ok());
  EXPECT_EQ(nested.status().code(), StatusCode::kParseError);
  EXPECT_EQ(chain_reader.position(), 1u);
}

class ColumnRoundTripTest : public ::testing::TestWithParam<TypeId> {};

/// Property: random columns of every type survive serialize → deserialize.
TEST_P(ColumnRoundTripTest, SerializationRoundTrip) {
  TypeId type = GetParam();
  Rng rng(static_cast<uint64_t>(type) + 100);
  Column col(type);
  for (int i = 0; i < 500; ++i) {
    if (rng.NextDouble() < 0.1) {
      col.AppendNull();
      continue;
    }
    switch (type) {
      case TypeId::kBool:
        col.AppendBool(rng.NextBounded(2) == 1);
        break;
      case TypeId::kInt32:
        col.AppendInt32(static_cast<int32_t>(rng.NextU64()));
        break;
      case TypeId::kInt64:
        col.AppendInt64(static_cast<int64_t>(rng.NextU64()));
        break;
      case TypeId::kDouble:
        col.AppendDouble(rng.NextGaussian());
        break;
      case TypeId::kVarchar:
      case TypeId::kBlob: {
        std::string s;
        size_t len = rng.NextBounded(20);
        for (size_t j = 0; j < len; ++j) {
          s.push_back(static_cast<char>(rng.NextBounded(256)));
        }
        col.AppendString(std::move(s));
        break;
      }
    }
  }
  ByteWriter w;
  col.Serialize(&w);
  ByteReader r(w.data());
  ColumnPtr back = Column::Deserialize(&r).ValueOrDie();
  EXPECT_TRUE(col.Equals(*back));
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(AllTypes, ColumnRoundTripTest,
                         ::testing::Values(TypeId::kBool, TypeId::kInt32,
                                           TypeId::kInt64, TypeId::kDouble,
                                           TypeId::kVarchar, TypeId::kBlob));

}  // namespace
}  // namespace mlcs
