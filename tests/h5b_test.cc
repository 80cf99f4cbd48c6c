#include "io/h5b.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/random.h"

namespace mlcs::io {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TablePtr RandomTable(size_t rows, uint64_t seed) {
  Schema s;
  s.AddField("i", TypeId::kInt32);
  s.AddField("d", TypeId::kDouble);
  s.AddField("s", TypeId::kVarchar);
  auto t = Table::Make(std::move(s));
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    if (rng.NextDouble() < 0.05) {
      EXPECT_TRUE(t->AppendRow({Value::MakeNull(TypeId::kInt32),
                                Value::Double(rng.NextGaussian()),
                                Value::Varchar("null-ish")})
                      .ok());
    } else {
      EXPECT_TRUE(
          t->AppendRow({Value::Int32(static_cast<int32_t>(rng.NextU64())),
                        Value::Double(rng.NextGaussian()),
                        Value::Varchar(std::to_string(r))})
              .ok());
    }
  }
  return t;
}

class H5bChunkTest : public ::testing::TestWithParam<size_t> {};

/// Property: round-trip across chunk sizes smaller, equal and larger than
/// the table (exercises partial final chunks).
TEST_P(H5bChunkTest, RoundTripAcrossChunkSizes) {
  auto t = RandomTable(1000, GetParam());
  H5bOptions opt;
  opt.chunk_rows = GetParam();
  std::string path = TempPath("chunks_" + std::to_string(GetParam()) +
                              ".h5b");
  ASSERT_TRUE(WriteH5b(*t, path, opt).ok());
  auto back = ReadH5b(path).ValueOrDie();
  EXPECT_TRUE(t->Equals(*back));
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, H5bChunkTest,
                         ::testing::Values(1, 7, 100, 1000, 4096));

TEST(H5bTest, EmptyTableRoundTrip) {
  Schema s;
  s.AddField("x", TypeId::kInt64);
  Table t(std::move(s));
  std::string path = TempPath("empty.h5b");
  ASSERT_TRUE(WriteH5b(t, path).ok());
  auto back = ReadH5b(path).ValueOrDie();
  EXPECT_EQ(back->num_rows(), 0u);
  EXPECT_EQ(back->schema().field(0).name, "x");
  std::remove(path.c_str());
}

TEST(H5bTest, GarbageRejected) {
  std::string path = TempPath("garbage.h5b");
  FILE* f = fopen(path.c_str(), "wb");
  fputs("not h5b at all", f);
  fclose(f);
  EXPECT_FALSE(ReadH5b(path).ok());
  std::remove(path.c_str());
}

TEST(H5bTest, TruncatedFileRejected) {
  auto t = RandomTable(500, 3);
  std::string path = TempPath("trunc.h5b");
  ASSERT_TRUE(WriteH5b(*t, path).ok());
  // Truncate to half.
  FILE* f = fopen(path.c_str(), "rb");
  fseek(f, 0, SEEK_END);
  long size = ftell(f);
  fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  EXPECT_FALSE(ReadH5b(path).ok());
  std::remove(path.c_str());
}

TEST(H5bTest, ChunkLengthBeyondTheFileRejected) {
  auto t = RandomTable(20, 5);
  std::string path = TempPath("huge_chunk.h5b");
  ASSERT_TRUE(WriteH5b(*t, path).ok());
  // One chunk: the file ends with its u64 length prefix and body. Find the
  // prefix and inflate it to 16 GiB; the reader must refuse before sizing
  // a buffer from it.
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  fseek(f, 0, SEEK_END);
  long size = ftell(f);
  long prefix_at = -1;
  for (long p = 0; p + 8 <= size; ++p) {
    uint64_t len = 0;
    fseek(f, p, SEEK_SET);
    ASSERT_EQ(fread(&len, sizeof(len), 1, f), 1u);
    if (len == static_cast<uint64_t>(size - p - 8)) {
      prefix_at = p;
      break;
    }
  }
  ASSERT_GE(prefix_at, 0);
  uint64_t huge = uint64_t{1} << 34;
  fseek(f, prefix_at, SEEK_SET);
  fwrite(&huge, sizeof(huge), 1, f);
  fclose(f);
  EXPECT_FALSE(ReadH5b(path).ok());
  std::remove(path.c_str());
}

TEST(H5bTest, ZeroChunkRowsRejected) {
  auto t = RandomTable(10, 4);
  H5bOptions opt;
  opt.chunk_rows = 0;
  EXPECT_FALSE(WriteH5b(*t, TempPath("zero.h5b"), opt).ok());
}

TEST(H5bTest, MissingFileReported) {
  EXPECT_FALSE(ReadH5b("/no/such/file.h5b").ok());
  EXPECT_FALSE(H5bChunkReader::Open("/no/such/file.h5b").ok());
}

TEST(H5bChunkReaderTest, StreamsChunksMatchingFullRead) {
  auto t = RandomTable(1234, 9);
  H5bOptions opt;
  opt.chunk_rows = 100;
  std::string path = TempPath("stream.h5b");
  ASSERT_TRUE(WriteH5b(*t, path, opt).ok());

  auto reader = H5bChunkReader::Open(path).ValueOrDie();
  EXPECT_EQ(reader.total_rows(), 1234u);
  EXPECT_EQ(reader.schema(), t->schema());
  auto rebuilt = Table::Make(reader.schema());
  size_t chunks = 0;
  while (reader.HasNext()) {
    auto chunk = reader.NextChunk().ValueOrDie();
    EXPECT_LE(chunk->num_rows(), 100u);
    ASSERT_TRUE(rebuilt->AppendTable(*chunk).ok());
    ++chunks;
  }
  EXPECT_EQ(chunks, 13u);  // ceil(1234 / 100)
  EXPECT_TRUE(t->Equals(*rebuilt));
  EXPECT_EQ(reader.rows_read(), 1234u);
  // Reading past the end errors instead of looping.
  EXPECT_FALSE(reader.NextChunk().ok());
  std::remove(path.c_str());
}

TEST(H5bChunkReaderTest, IncrementalAggregationMatchesFullScan) {
  // The out-of-core usage pattern: fold an aggregate over chunks without
  // ever materializing the whole table.
  auto t = RandomTable(5000, 12);
  std::string path = TempPath("ooc.h5b");
  H5bOptions opt;
  opt.chunk_rows = 512;
  ASSERT_TRUE(WriteH5b(*t, path, opt).ok());

  double full_sum = 0;
  const auto& d = t->column(1)->f64_data();
  for (double v : d) full_sum += v;

  auto reader = H5bChunkReader::Open(path).ValueOrDie();
  double streamed_sum = 0;
  while (reader.HasNext()) {
    auto chunk = reader.NextChunk().ValueOrDie();
    for (double v : chunk->column(1)->f64_data()) streamed_sum += v;
  }
  EXPECT_NEAR(streamed_sum, full_sum, 1e-9 * std::abs(full_sum) + 1e-9);
  std::remove(path.c_str());
}

TEST(H5bChunkReaderTest, MoveTransfersOwnership) {
  auto t = RandomTable(50, 2);
  std::string path = TempPath("move.h5b");
  ASSERT_TRUE(WriteH5b(*t, path).ok());
  auto a = H5bChunkReader::Open(path).ValueOrDie();
  H5bChunkReader b = std::move(a);
  EXPECT_TRUE(b.HasNext());
  EXPECT_TRUE(b.NextChunk().ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mlcs::io
