/// Block storage + buffer pool (DESIGN.md §12): .blk round-trips, zone-map
/// skip semantics, LRU eviction under a byte budget, pin correctness, and
/// torn-write recovery.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "bufpool/block_format.h"
#include "bufpool/buffer_pool.h"
#include "bufpool/stored_table.h"
#include "bufpool/zone_map.h"
#include "common/byte_buffer.h"
#include "common/file_util.h"
#include "obs/metrics.h"
#include "sql/database.h"
#include "storage/table.h"

namespace mlcs::bufpool {
namespace {

std::string TempDirFor(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  MLCS_CHECK_OK(MakeDirs(dir));
  return dir;
}

/// rows of (id INT64, score DOUBLE, tag VARCHAR with nulls every 5th row).
TablePtr MakeTestTable(size_t rows, int64_t id_base = 0) {
  Schema schema;
  schema.AddField("id", TypeId::kInt64);
  schema.AddField("score", TypeId::kDouble);
  schema.AddField("tag", TypeId::kVarchar);
  auto table = Table::Make(std::move(schema));
  for (size_t i = 0; i < rows; ++i) {
    int64_t id = id_base + static_cast<int64_t>(i);
    table->column(0)->AppendInt64(id);
    table->column(1)->AppendDouble(static_cast<double>(id) + 0.5);
    if (i % 5 == 0) {
      table->column(2)->AppendNull();
    } else {
      table->column(2)->AppendString("tag" + std::to_string(id));
    }
  }
  return table;
}

ZonePredicate Pred(const std::string& col, ZoneOp op, Value literal) {
  ZonePredicate p;
  p.column = col;
  p.op = op;
  p.literal = std::move(literal);
  return p;
}

/// Builds "prefix<i>" keys (avoids a GCC 12 -Wrestrict false positive in
/// inlined string operator+).
std::string Key(const char* prefix, int i) {
  std::string out(prefix);
  out += std::to_string(i);
  return out;
}

/// Truncates a file to `keep` bytes (torn-write simulation).
void Truncate(const std::string& path, long keep) {
  auto bytes = ReadFileBytes(path).ValueOrDie();
  ASSERT_LT(static_cast<size_t>(keep), bytes.size());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, static_cast<size_t>(keep), f),
            static_cast<size_t>(keep));
  std::fclose(f);
}

/// -- Block format -----------------------------------------------------------

TEST(BlockFormatTest, RoundTripsAllColumnTypes) {
  std::string dir = TempDirFor("blk_roundtrip");
  Schema schema;
  schema.AddField("b", TypeId::kBool);
  schema.AddField("i32", TypeId::kInt32);
  schema.AddField("i64", TypeId::kInt64);
  schema.AddField("d", TypeId::kDouble);
  schema.AddField("s", TypeId::kVarchar);
  schema.AddField("blob", TypeId::kBlob);
  auto table = Table::Make(std::move(schema));
  ASSERT_TRUE(table
                  ->AppendRow({Value::Bool(true), Value::Int32(-7),
                               Value::Int64(1) , Value::Double(2.5),
                               Value::Varchar("hello"),
                               Value::Blob(std::string("\x00\x01\xff", 3))})
                  .ok());
  ASSERT_TRUE(table
                  ->AppendRow({Value::MakeNull(TypeId::kBool),
                               Value::MakeNull(TypeId::kInt32),
                               Value::MakeNull(TypeId::kInt64),
                               Value::MakeNull(TypeId::kDouble),
                               Value::MakeNull(TypeId::kVarchar),
                               Value::MakeNull(TypeId::kBlob)})
                  .ok());
  std::string path = dir + "/block_0000.blk";
  ASSERT_TRUE(WriteBlockFile(*table, path).ok());

  BlockMeta meta = ReadBlockMeta(path).ValueOrDie();
  EXPECT_EQ(meta.rows, 2u);
  ASSERT_EQ(meta.columns.size(), 6u);
  EXPECT_EQ(meta.columns[2].name, "i64");
  EXPECT_EQ(meta.columns[2].type, TypeId::kInt64);
  for (size_t c = 0; c < meta.columns.size(); ++c) {
    ColumnPtr col = ReadColumnChunk(meta, c).ValueOrDie();
    EXPECT_TRUE(col->Equals(*table->column(c))) << "column " << c;
  }
  // Every column has exactly one null; BLOB columns carry no min/max.
  EXPECT_EQ(meta.columns[0].zone.null_count, 1u);
  EXPECT_FALSE(meta.columns[5].zone.has_minmax);
  EXPECT_TRUE(meta.columns[2].zone.has_minmax);
  EXPECT_EQ(meta.columns[2].zone.min, Value::Int64(1));
  EXPECT_EQ(meta.columns[2].zone.max, Value::Int64(1));
}

TEST(BlockFormatTest, RejectsWrongMagicAndTruncation) {
  std::string dir = TempDirFor("blk_torn");
  std::string path = dir + "/block_0000.blk";
  TablePtr table = MakeTestTable(64);
  ASSERT_TRUE(WriteBlockFile(*table, path).ok());
  BlockMeta good = ReadBlockMeta(path).ValueOrDie();

  // Truncated mid-payload: header still parses, the chunk read fails
  // cleanly (torn-write guard), no crash.
  uint64_t last = good.columns.back().payload_offset;
  Truncate(path, static_cast<long>(last + 4));
  BlockMeta reread = ReadBlockMeta(path).ValueOrDie();
  Result<ColumnPtr> chunk =
      ReadColumnChunk(reread, reread.columns.size() - 1);
  EXPECT_FALSE(chunk.ok());

  // Truncated mid-header: meta read itself fails cleanly.
  Truncate(path, 6);
  EXPECT_FALSE(ReadBlockMeta(path).ok());

  // Not a block file at all.
  const char junk[] = "definitely not a block";
  ASSERT_TRUE(AtomicWriteFile(path, junk, sizeof(junk)).ok());
  EXPECT_FALSE(ReadBlockMeta(path).ok());
}

TEST(BlockFormatTest, RejectsAColumnCountBeyondTheHeader) {
  // A 12-byte header that claims 2^20 columns: the count must be checked
  // against the header bytes before it sizes the column list.
  ByteWriter header;
  header.WriteVarint(0);        // rows
  header.WriteVarint(1u << 20);  // columns
  header.WriteU64(0);
  ByteWriter file;
  file.WriteU32(kBlockMagic);
  file.WriteU16(kBlockFormatVersion);
  file.WriteU32(static_cast<uint32_t>(header.size()));
  file.WriteRaw(header.data().data(), header.size());
  std::string path = TempDirFor("blk_count") + "/block_0000.blk";
  ASSERT_TRUE(AtomicWriteFile(path, file.data().data(), file.size()).ok());
  Result<BlockMeta> meta = ReadBlockMeta(path);
  EXPECT_FALSE(meta.ok());
}

/// -- Zone maps --------------------------------------------------------------

TEST(ZoneMapTest, ComputeSummarizesMinMaxAndNulls) {
  auto col = Column::FromInt64({5, -3, 9, 5});
  col->SetNull(1);
  ZoneMap zone = ComputeZoneMap(*col);
  EXPECT_EQ(zone.null_count, 1u);
  ASSERT_TRUE(zone.has_minmax);
  EXPECT_EQ(zone.min, Value::Int64(5));
  EXPECT_EQ(zone.max, Value::Int64(9));
}

TEST(ZoneMapTest, AdmitSemantics) {
  ZoneMap zone;
  zone.has_minmax = true;
  zone.min = Value::Int64(10);
  zone.max = Value::Int64(20);

  EXPECT_TRUE(ZoneAdmits(zone, 4, ZoneOp::kEq, Value::Int64(15)));
  EXPECT_FALSE(ZoneAdmits(zone, 4, ZoneOp::kEq, Value::Int64(25)));
  EXPECT_FALSE(ZoneAdmits(zone, 4, ZoneOp::kLt, Value::Int64(10)));
  EXPECT_TRUE(ZoneAdmits(zone, 4, ZoneOp::kLe, Value::Int64(10)));
  EXPECT_FALSE(ZoneAdmits(zone, 4, ZoneOp::kGt, Value::Int64(20)));
  EXPECT_TRUE(ZoneAdmits(zone, 4, ZoneOp::kGe, Value::Int64(20)));
  // kNe is only refutable when the whole block is one constant.
  EXPECT_TRUE(ZoneAdmits(zone, 4, ZoneOp::kNe, Value::Int64(15)));
  ZoneMap constant = zone;
  constant.max = Value::Int64(10);
  EXPECT_FALSE(ZoneAdmits(constant, 4, ZoneOp::kNe, Value::Int64(10)));
  EXPECT_TRUE(ZoneAdmits(constant, 4, ZoneOp::kNe, Value::Int64(11)));

  // NULL literal: `x <op> NULL` is never TRUE — admits nothing.
  EXPECT_FALSE(ZoneAdmits(zone, 4, ZoneOp::kEq,
                          Value::MakeNull(TypeId::kInt64)));
  // All-null block: no non-null row can match anything.
  ZoneMap all_null;
  all_null.null_count = 4;
  EXPECT_FALSE(ZoneAdmits(all_null, 4, ZoneOp::kEq, Value::Int64(10)));
  // Unsummarized (BLOB / NaN-bearing) blocks fail open.
  ZoneMap no_minmax;
  no_minmax.null_count = 1;
  EXPECT_TRUE(ZoneAdmits(no_minmax, 4, ZoneOp::kEq, Value::Int64(10)));
  // Type-mismatched literal fails open.
  EXPECT_TRUE(ZoneAdmits(zone, 4, ZoneOp::kEq, Value::Varchar("ten")));
  // NaN literal fails open (comparisons are unprovable from min/max).
  ZoneMap dzone;
  dzone.has_minmax = true;
  dzone.min = Value::Double(1.0);
  dzone.max = Value::Double(2.0);
  EXPECT_TRUE(ZoneAdmits(dzone, 4, ZoneOp::kEq,
                         Value::Double(std::nan(""))));
  // Int literal against a double zone works within the exact range.
  EXPECT_FALSE(ZoneAdmits(dzone, 4, ZoneOp::kGt, Value::Int64(2)));
  EXPECT_TRUE(ZoneAdmits(dzone, 4, ZoneOp::kGe, Value::Int64(2)));
  // Strings compare lexicographically.
  ZoneMap szone;
  szone.has_minmax = true;
  szone.min = Value::Varchar("banana");
  szone.max = Value::Varchar("cherry");
  EXPECT_FALSE(ZoneAdmits(szone, 4, ZoneOp::kEq, Value::Varchar("apple")));
  EXPECT_TRUE(ZoneAdmits(szone, 4, ZoneOp::kEq, Value::Varchar("carrot")));

  // NaN in the column data leaves the block unsummarized (fails open).
  auto nan_col = Column::FromDouble({1.0, std::nan(""), 3.0});
  EXPECT_FALSE(ComputeZoneMap(*nan_col).has_minmax);
}

/// -- StoredTable ------------------------------------------------------------

TEST(StoredTableTest, WriteOpenScanRoundTrip) {
  std::string dir = TempDirFor("stored_roundtrip");
  TablePtr table = MakeTestTable(100);
  ASSERT_TRUE(StoredTable::Write(*table, dir, /*block_rows=*/16).ok());

  BufferPool pool;
  auto stored = StoredTable::Open(dir, &pool).ValueOrDie();
  EXPECT_EQ(stored->num_rows(), 100u);
  EXPECT_EQ(stored->num_blocks(), 7u);  // ceil(100 / 16)
  TablePtr back = stored->Materialize().ValueOrDie();
  EXPECT_TRUE(table->Equals(*back));

  // Projection keeps stored field names and order-of-request.
  TablePtr proj =
      stored->Scan(std::vector<std::string>{"tag", "id"}, {}).ValueOrDie();
  EXPECT_EQ(proj->num_columns(), 2u);
  EXPECT_EQ(proj->schema().field(0).name, "tag");
  EXPECT_EQ(proj->schema().field(1).name, "id");
  EXPECT_TRUE(proj->column(1)->Equals(*table->column(0)));
}

TEST(StoredTableTest, ZonePredicatesSkipBlocks) {
  std::string dir = TempDirFor("stored_skip");
  TablePtr table = MakeTestTable(100);  // ids 0..99, 16 per block
  ASSERT_TRUE(StoredTable::Write(*table, dir, /*block_rows=*/16).ok());
  BufferPool pool;
  auto stored = StoredTable::Open(dir, &pool).ValueOrDie();

  StoredTable::ScanCounters counters;
  TablePtr narrow =
      stored
          ->Scan(std::nullopt, {Pred("id", ZoneOp::kLt, Value::Int64(16))},
                 &counters)
          .ValueOrDie();
  EXPECT_EQ(counters.blocks_total, 7u);
  EXPECT_EQ(counters.blocks_read, 1u);
  EXPECT_EQ(counters.blocks_skipped, 6u);
  EXPECT_EQ(narrow->num_rows(), 16u);
  EXPECT_GT(counters.bytes_materialized, 0u);

  // Conjuncts AND: a contradictory pair skips everything.
  StoredTable::ScanCounters none;
  TablePtr empty =
      stored
          ->Scan(std::nullopt,
                 {Pred("id", ZoneOp::kLt, Value::Int64(10)),
                  Pred("id", ZoneOp::kGt, Value::Int64(50))},
                 &none)
          .ValueOrDie();
  EXPECT_EQ(none.blocks_skipped, 7u);
  EXPECT_EQ(empty->num_rows(), 0u);
  EXPECT_EQ(none.bytes_materialized, 0u);

  // Unknown predicate column is ignored (fail open), results unchanged.
  TablePtr all =
      stored->Scan(std::nullopt,
                   {Pred("no_such_col", ZoneOp::kEq, Value::Int64(1))})
          .ValueOrDie();
  EXPECT_EQ(all->num_rows(), 100u);

  // The global kill switch turns skipping off.
  SetZoneMapSkippingEnabled(false);
  StoredTable::ScanCounters unskipped;
  (void)stored
      ->Scan(std::nullopt, {Pred("id", ZoneOp::kLt, Value::Int64(16))},
             &unskipped)
      .ValueOrDie();
  SetZoneMapSkippingEnabled(true);
  EXPECT_EQ(unskipped.blocks_skipped, 0u);
  EXPECT_EQ(unskipped.blocks_read, 7u);
}

TEST(StoredTableTest, SmallerResaveUnlinksStaleBlocks) {
  std::string dir = TempDirFor("stored_resave");
  ASSERT_TRUE(StoredTable::Write(*MakeTestTable(100), dir, 16).ok());
  EXPECT_TRUE(FileExists(dir + "/block_0006.blk"));
  ASSERT_TRUE(StoredTable::Write(*MakeTestTable(20), dir, 16).ok());
  EXPECT_FALSE(FileExists(dir + "/block_0002.blk"));
  BufferPool pool;
  auto stored = StoredTable::Open(dir, &pool).ValueOrDie();
  EXPECT_EQ(stored->num_rows(), 20u);
  EXPECT_EQ(stored->num_blocks(), 2u);
}

TEST(StoredTableTest, ResaveNeverHitsChunksCachedFromThePriorSave) {
  std::string dir = TempDirFor("stored_resave_cache");
  BufferPool pool(1 << 20);
  ASSERT_TRUE(StoredTable::Write(*MakeTestTable(40, /*id_base=*/0), dir, 16)
                  .ok());
  uint64_t first_generation;
  {
    auto stored = StoredTable::Open(dir, &pool).ValueOrDie();
    first_generation = stored->generation();
    EXPECT_GT(first_generation, 0u);
    TablePtr before = stored->Materialize().ValueOrDie();  // fills the pool
    EXPECT_EQ(before->column(0)->i64_data()[0], 0);
  }
  // Rewrite the same block paths with different data. The pool still
  // holds chunks from the first save, but the new generation's keys must
  // miss them — scans after reopen see only post-save data.
  TablePtr rewritten = MakeTestTable(40, /*id_base=*/1000);
  ASSERT_TRUE(StoredTable::Write(*rewritten, dir, 16).ok());
  auto stored = StoredTable::Open(dir, &pool).ValueOrDie();
  EXPECT_GT(stored->generation(), first_generation);
  StoredTable::ScanCounters counters;
  TablePtr after = stored->Scan(std::nullopt, {}, &counters).ValueOrDie();
  EXPECT_EQ(counters.pool_hits, 0u);
  EXPECT_TRUE(after->Equals(*rewritten));
}

TEST(StoredTableTest, TornManifestOrBlockFailsOpenCleanly) {
  std::string dir = TempDirFor("stored_torn");
  TablePtr table = MakeTestTable(40);
  ASSERT_TRUE(StoredTable::Write(*table, dir, 16).ok());

  // A block whose payloads were torn off: Open still succeeds (headers
  // intact), the scan errors cleanly when it reaches the torn payload.
  {
    BlockMeta meta = ReadBlockMeta(dir + "/block_0001.blk").ValueOrDie();
    Truncate(dir + "/block_0001.blk",
             static_cast<long>(meta.columns[1].payload_offset));
    BufferPool pool;
    auto stored = StoredTable::Open(dir, &pool).ValueOrDie();
    EXPECT_FALSE(stored->Materialize().ok());
  }
  // A block torn inside its *header* fails at Open with a parse error.
  Truncate(dir + "/block_0001.blk", 8);
  {
    BufferPool pool;
    EXPECT_FALSE(StoredTable::Open(dir, &pool).ok());
  }
  // A torn manifest fails at Open.
  ASSERT_TRUE(StoredTable::Write(*table, dir, 16).ok());
  Truncate(dir + "/manifest.mlm", 9);
  {
    BufferPool pool;
    EXPECT_FALSE(StoredTable::Open(dir, &pool).ok());
  }
}

/// A block file whose column tag is the retired dictionary tag 0x80 + type
/// attaches (attach reads block headers only) and fails the scan that reads
/// the payload with a ParseError.
TEST(StoredTableTest, BlockFileWithRetiredTagFailsTheScan) {
  Database db;
  ASSERT_TRUE(db.Run("CREATE TABLE t (x INTEGER);").ok());
  auto t = db.catalog().GetTable("t").ValueOrDie();
  for (int32_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int32(i % 3)}).ok());
  }
  std::string dir = TempDirFor("stored_retired_tag");
  MLCS_CHECK_OK(db.SaveTo(dir));
  std::string block = dir + "/t/block_0000.blk";
  BlockMeta meta = ReadBlockMeta(block).ValueOrDie();
  std::vector<uint8_t> bytes = ReadFileBytes(block).ValueOrDie();
  uint8_t& tag = bytes[meta.columns[0].payload_offset];
  ASSERT_EQ(tag, static_cast<uint8_t>(TypeId::kInt32));
  tag = 0x80 | static_cast<uint8_t>(TypeId::kInt32);
  MLCS_CHECK_OK(AtomicWriteFile(block, bytes.data(), bytes.size()));

  Database loaded;
  MLCS_CHECK_OK(loaded.LoadFrom(dir));
  auto r = loaded.Query("SELECT x FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError)
      << r.status().ToString();
}

TEST(StoredTableTest, StreamingScanBoundsPinnedBytes) {
  // A 16-block scan must never hold more than one block's chunks pinned:
  // the high-water mark stays near one chunk, far under the total bytes
  // materialized, and everything is unpinned at the end.
  auto table = Table::Make([] {
    Schema s;
    s.AddField("x", TypeId::kInt64);
    s.AddField("y", TypeId::kInt64);
    return s;
  }());
  for (int64_t i = 0; i < 4096; ++i) {
    table->column(0)->AppendInt64(i);
    table->column(1)->AppendInt64(i * 3);
  }
  std::string dir = TempDirFor("stored_stream");
  MLCS_CHECK_OK(StoredTable::Write(*table, dir, 256));
  BufferPool pool(64u << 20);
  auto stored = StoredTable::Open(dir, &pool).ValueOrDie();
  ASSERT_EQ(stored->num_blocks(), 16u);

  obs::Gauge* hw = obs::MetricsRegistry::Global().GetGauge(
      "mlcs.bufpool.pinned_bytes_hw");
  hw->Set(0);
  StoredTable::ScanCounters counters;
  auto r = stored->Scan(std::nullopt, {}, &counters);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(pool.pinned_bytes(), 0u);
  int64_t high_water = hw->Value();
  EXPECT_GT(high_water, 0);
  // 16 blocks were materialized; a streaming scan's pin footprint is ~1/16
  // of that (one chunk pinned at a time). Allow 4x slack for per-chunk
  // overhead variance.
  EXPECT_LT(static_cast<uint64_t>(high_water),
            counters.bytes_materialized / 4);
}

/// -- BufferPool -------------------------------------------------------------

BufferPool::ChunkLoader LoaderOf(int64_t tag, int* calls = nullptr) {
  return [tag, calls]() -> Result<ColumnPtr> {
    if (calls != nullptr) ++*calls;
    // 128 int64 values ≈ 1 KiB payload.
    std::vector<int64_t> data(128, tag);
    return Column::FromInt64(std::move(data));
  };
}

TEST(BufferPoolTest, HitsAndMissesAndClear) {
  BufferPool pool(1 << 20);
  int calls = 0;
  {
    PinnedChunk first = pool.Fetch("k1", LoaderOf(1, &calls)).ValueOrDie();
    EXPECT_FALSE(first.hit());
    EXPECT_EQ(calls, 1);
  }
  {
    PinnedChunk again = pool.Fetch("k1", LoaderOf(1, &calls)).ValueOrDie();
    EXPECT_TRUE(again.hit());
    EXPECT_EQ(calls, 1);  // loader not re-run
    EXPECT_EQ(again.column()->i64_data()[0], 1);
  }
  EXPECT_TRUE(pool.Contains("k1"));
  pool.Clear();
  EXPECT_FALSE(pool.Contains("k1"));
  EXPECT_EQ(pool.bytes_cached(), 0u);
}

TEST(BufferPoolTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  // Budget fits ~3 of the ~1 KiB chunks.
  BufferPool pool(3 * 1100);
  for (int i = 0; i < 3; ++i) {
    (void)pool.Fetch(Key("k", i), LoaderOf(i)).ValueOrDie();
  }
  EXPECT_EQ(pool.entry_count(), 3u);
  // Touch k0 so k1 becomes the LRU entry.
  (void)pool.Fetch("k0", LoaderOf(0)).ValueOrDie();
  // A fourth insert evicts exactly the LRU entry: k1.
  (void)pool.Fetch("k3", LoaderOf(3)).ValueOrDie();
  EXPECT_EQ(pool.entry_count(), 3u);
  EXPECT_FALSE(pool.Contains("k1"));
  EXPECT_TRUE(pool.Contains("k0"));
  EXPECT_TRUE(pool.Contains("k2"));
  EXPECT_TRUE(pool.Contains("k3"));
  std::vector<std::string> order = pool.KeysMruToLru();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "k3");
  EXPECT_EQ(order[1], "k0");
  EXPECT_EQ(order[2], "k2");
}

TEST(BufferPoolTest, PinnedEntriesSurviveEviction) {
  BufferPool pool(2 * 1100);
  PinnedChunk pinned = pool.Fetch("hot", LoaderOf(42)).ValueOrDie();
  // Overflow the budget while "hot" stays pinned: it must survive even
  // though it becomes least-recently-used, and the pool may run over
  // budget while pins outstand.
  for (int i = 0; i < 5; ++i) {
    (void)pool.Fetch(Key("cold", i), LoaderOf(i)).ValueOrDie();
  }
  EXPECT_TRUE(pool.Contains("hot"));
  EXPECT_EQ(pinned.column()->i64_data()[0], 42);
  // Clear() must also respect pins.
  pool.Clear();
  EXPECT_TRUE(pool.Contains("hot"));
  // After unpinning, pressure can finally evict it.
  { PinnedChunk dropped = std::move(pinned); }
  for (int i = 0; i < 5; ++i) {
    (void)pool.Fetch(Key("new", i), LoaderOf(i)).ValueOrDie();
  }
  EXPECT_FALSE(pool.Contains("hot"));
  EXPECT_LE(pool.bytes_cached(), pool.byte_budget());
}

TEST(BufferPoolTest, LoaderErrorsPropagateAndCacheNothing) {
  BufferPool pool(1 << 20);
  Result<PinnedChunk> bad = pool.Fetch(
      "err", []() -> Result<ColumnPtr> { return Status::IoError("boom"); });
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(pool.Contains("err"));
  // The key is retryable after a failed load.
  PinnedChunk ok = pool.Fetch("err", LoaderOf(7)).ValueOrDie();
  EXPECT_EQ(ok.column()->i64_data()[0], 7);
}

TEST(BufferPoolTest, PinnedChunkMayOutliveThePool) {
  auto pool = std::make_unique<BufferPool>(1 << 20);
  PinnedChunk chunk = pool->Fetch("k", LoaderOf(9)).ValueOrDie();
  pool.reset();  // private pool torn down with the pin still outstanding
  EXPECT_EQ(chunk.column()->i64_data()[0], 9);
  // `chunk` destructs after the pool: the unpin must be a no-op, not a
  // use-after-free (ASan would flag it).
}

TEST(BufferPoolTest, GlobalPoolIsSharedAndBudgeted) {
  BufferPool& a = BufferPool::Global();
  BufferPool& b = BufferPool::Global();
  EXPECT_EQ(&a, &b);
  EXPECT_GT(a.byte_budget(), 0u);
}

}  // namespace
}  // namespace mlcs::bufpool
