#include "io/npy.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sys/stat.h>

#include "common/random.h"

namespace mlcs::io {
namespace {

std::string TempDirFor(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  mkdir(dir.c_str(), 0755);
  return dir;
}

class NpyTypeTest : public ::testing::TestWithParam<TypeId> {};

TEST_P(NpyTypeTest, RoundTrip) {
  TypeId type = GetParam();
  Rng rng(static_cast<uint64_t>(type) + 7);
  Column col(type);
  for (int i = 0; i < 1000; ++i) {
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
      default:
        break;
    }
  }
  std::string path = testing::TempDir() + "/col.npy";
  ASSERT_TRUE(WriteNpy(col, path).ok());
  auto back = ReadNpy(path).ValueOrDie();
  EXPECT_TRUE(col.Equals(*back));
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(NumericTypes, NpyTypeTest,
                         ::testing::Values(TypeId::kBool, TypeId::kInt32,
                                           TypeId::kInt64, TypeId::kDouble));

TEST(NpyTest, HeaderIsNumpyV1Compatible) {
  Column col(TypeId::kInt32);
  col.AppendInt32(42);
  std::string path = testing::TempDir() + "/hdr.npy";
  ASSERT_TRUE(WriteNpy(col, path).ok());
  FILE* f = fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char magic[8];
  ASSERT_EQ(fread(magic, 1, 8, f), 8u);
  EXPECT_EQ(memcmp(magic, "\x93NUMPY\x01\x00", 8), 0);
  uint16_t hlen;
  ASSERT_EQ(fread(&hlen, 2, 1, f), 1u);
  // Total header (10 + hlen) must be 64-aligned, per the npy spec.
  EXPECT_EQ((10 + hlen) % 64, 0);
  std::string header(hlen, '\0');
  ASSERT_EQ(fread(header.data(), 1, hlen, f), hlen);
  EXPECT_NE(header.find("'descr': '<i4'"), std::string::npos);
  EXPECT_NE(header.find("'shape': (1,)"), std::string::npos);
  EXPECT_EQ(header.back(), '\n');
  fclose(f);
  std::remove(path.c_str());
}

TEST(NpyTest, VarcharAndNullsRejected) {
  Column s(TypeId::kVarchar);
  s.AppendString("x");
  EXPECT_FALSE(WriteNpy(s, testing::TempDir() + "/s.npy").ok());
  Column n(TypeId::kInt32);
  n.AppendNull();
  EXPECT_FALSE(WriteNpy(n, testing::TempDir() + "/n.npy").ok());
}

TEST(NpyTest, GarbageRejected) {
  std::string path = testing::TempDir() + "/garbage.npy";
  FILE* f = fopen(path.c_str(), "wb");
  fputs("not numpy", f);
  fclose(f);
  EXPECT_FALSE(ReadNpy(path).ok());
  std::remove(path.c_str());
}

TEST(NpyTest, ShapeBeyondTheFileRejected) {
  // A 144-byte file whose header claims 4e12 doubles (32 TB): the reader
  // must refuse before sizing a buffer from the shape.
  std::string header =
      "{'descr': '<f8', 'fortran_order': False, 'shape': (4000000000000,), }";
  header.append(128 - 10 - 1 - header.size(), ' ');
  header.push_back('\n');
  std::string path = testing::TempDir() + "/huge_shape.npy";
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fwrite("\x93NUMPY\x01\x00", 1, 8, f);
  uint16_t hlen = static_cast<uint16_t>(header.size());
  fwrite(&hlen, 2, 1, f);
  fwrite(header.data(), 1, header.size(), f);
  const double data[2] = {1.0, 2.0};
  fwrite(data, sizeof(double), 2, f);
  fclose(f);
  auto col = ReadNpy(path);
  EXPECT_FALSE(col.ok());
  std::remove(path.c_str());
}

TEST(NpyTest, TableDirRoundTrip) {
  std::string dir = TempDirFor("npy_table");
  Schema s;
  s.AddField("a", TypeId::kInt32);
  s.AddField("b", TypeId::kDouble);
  auto t = Table::Make(std::move(s));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        t->AppendRow({Value::Int32(i), Value::Double(i * 0.5)}).ok());
  }
  ASSERT_TRUE(SaveTableAsNpyDir(*t, dir).ok());
  auto back = LoadTableFromNpyDir(dir).ValueOrDie();
  EXPECT_TRUE(t->Equals(*back));
}

TEST(NpyTest, MissingManifestReported) {
  EXPECT_FALSE(LoadTableFromNpyDir("/no/such/dir").ok());
}

}  // namespace
}  // namespace mlcs::io
