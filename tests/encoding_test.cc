/// Compressed execution (DESIGN.md §13): dictionary round-trips,
/// auto-detect policy edges (all-NULL, single-value, >64k-distinct spill),
/// encoded serialization + block-file persistence, rejection of unknown
/// column tags, decoded-value zone maps over unsorted dictionaries,
/// operate-on-code kernel parity, and the streaming-scan pinned-bytes
/// high-water contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bufpool/block_format.h"
#include "bufpool/buffer_pool.h"
#include "bufpool/stored_table.h"
#include "bufpool/zone_map.h"
#include "common/byte_buffer.h"
#include "common/file_util.h"
#include "common/random.h"
#include "exec/aggregate.h"
#include "exec/kernels.h"
#include "obs/metrics.h"
#include "sql/database.h"
#include "storage/encoding.h"
#include "storage/table.h"

namespace mlcs {
namespace {

std::string TempDirFor(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  MLCS_CHECK_OK(MakeDirs(dir));
  return dir;
}

/// Low-cardinality int32 column (voter-shaped: `rows` rows, 8 distinct),
/// with a null every 13th row.
ColumnPtr MakeCategorical(size_t rows) {
  auto col = Column::Make(TypeId::kInt32);
  for (size_t i = 0; i < rows; ++i) {
    if (i % 13 == 4) {
      col->AppendNull();
    } else {
      col->AppendInt32(static_cast<int32_t>((i * 7) % 8));
    }
  }
  return col;
}

TEST(EncodingTest, DictionaryRoundTrip) {
  ColumnPtr plain = MakeCategorical(512);
  ColumnPtr encoded = EncodeColumn(plain);
  ASSERT_EQ(encoded->encoding(), ColumnEncoding::kDict);
  EXPECT_TRUE(encoded->dict_sorted());
  EXPECT_EQ(encoded->size(), plain->size());
  EXPECT_TRUE(encoded->Equals(*plain));
  ColumnPtr decoded = encoded->Decode();
  EXPECT_EQ(decoded->encoding(), ColumnEncoding::kPlain);
  EXPECT_TRUE(decoded->Equals(*plain));
  // Codes beat the plain payload on bytes — that is the point.
  EXPECT_LT(encoded->ByteSize(), plain->ByteSize());
}

TEST(EncodingTest, PolicyLeavesSmallAndHighCardinalityAlone) {
  // Below min_rows: untouched even though perfectly encodable.
  auto tiny = Column::Make(TypeId::kInt32);
  for (int i = 0; i < 8; ++i) tiny->AppendInt32(1);
  EXPECT_EQ(EncodeColumn(tiny).get(), tiny.get());
  // All-distinct: no dictionary.
  auto distinct = Column::Make(TypeId::kInt32);
  for (int i = 0; i < 512; ++i) distinct->AppendInt32(i);
  EXPECT_EQ(EncodeColumn(distinct).get(), distinct.get());
  // DOUBLE never encodes.
  auto dbl = Column::Make(TypeId::kDouble);
  for (int i = 0; i < 512; ++i) dbl->AppendDouble(1.0);
  EXPECT_FALSE(EncodeColumn(dbl)->is_encoded());
}

TEST(EncodingTest, RandomTwoValuedColumnsPickTheSmallestEncoding) {
  // An INT32 column codes in one byte a row; a BOOL column (no
  // dictionary) stays plain.
  for (uint64_t seed : {1u, 2u, 42u}) {
    for (size_t rows : {64u, 1000u, 100000u}) {
      Rng rng(seed);
      std::vector<int32_t> ints(rows);
      std::vector<uint8_t> bools(rows);
      for (size_t i = 0; i < rows; ++i) {
        ints[i] = static_cast<int32_t>(rng.NextBounded(2));
        bools[i] = static_cast<uint8_t>(rng.NextBounded(2));
      }
      ColumnPtr plain_ints = Column::FromInt32(ints);
      ColumnPtr encoded = EncodeColumn(plain_ints);
      EXPECT_EQ(encoded->encoding(), ColumnEncoding::kDict)
          << "seed " << seed << " rows " << rows;
      EXPECT_LT(encoded->ByteSize(), plain_ints->ByteSize());
      ColumnPtr plain_bools = Column::FromBool(bools);
      EXPECT_EQ(EncodeColumn(plain_bools).get(), plain_bools.get())
          << "seed " << seed << " rows " << rows;
    }
  }
  // A precinct-sorted column (abl-compress: 2751 precincts in 50000 rows)
  // codes in two bytes a row against a 2751-entry dictionary.
  std::vector<int32_t> sorted(50000);
  for (size_t i = 0; i < sorted.size(); ++i) {
    sorted[i] = static_cast<int32_t>(i * 2751 / sorted.size());
  }
  ColumnPtr precinct = EncodeColumn(Column::FromInt32(sorted));
  ASSERT_EQ(precinct->encoding(), ColumnEncoding::kDict);
  EXPECT_EQ(precinct->dict()->size(), 2751u);
  EXPECT_EQ(precinct->ByteSize(),
            sorted.size() * sizeof(uint16_t) + 2751 * sizeof(int32_t));
}

TEST(EncodingTest, Over64kDistinctSpillsToPlain) {
  // One more distinct value than the 2^16 dictionary cap: must stay plain
  // even though every value repeats (fraction threshold satisfied).
  constexpr size_t kDistinct = (1u << 16) + 1;
  auto col = Column::Make(TypeId::kInt32);
  for (size_t rep = 0; rep < 4; ++rep) {
    for (size_t i = 0; i < kDistinct; ++i) {
      col->AppendInt32(static_cast<int32_t>((i * 2654435761u) % kDistinct));
    }
  }
  ColumnPtr out = EncodeColumn(col);
  EXPECT_FALSE(out->is_encoded());
}

TEST(EncodingTest, AllNullAndSingleValueColumns) {
  auto all_null = Column::Make(TypeId::kVarchar);
  for (int i = 0; i < 256; ++i) all_null->AppendNull();
  ColumnPtr enc_null = EncodeColumn(all_null);
  EXPECT_TRUE(enc_null->Equals(*all_null));
  EXPECT_TRUE(enc_null->Decode()->Equals(*all_null));
  EXPECT_EQ(enc_null->Decode()->null_count(), 256u);

  auto single = Column::Make(TypeId::kVarchar);
  for (int i = 0; i < 256; ++i) single->AppendString("only");
  ColumnPtr enc_single = EncodeColumn(single);
  ASSERT_TRUE(enc_single->is_encoded());
  EXPECT_TRUE(enc_single->Equals(*single));
  EXPECT_TRUE(enc_single->Decode()->Equals(*single));
}

TEST(EncodingTest, SerializeRoundTripsBothEncodings) {
  std::vector<ColumnPtr> inputs = {
      MakeCategorical(300),
      EncodeColumn(MakeCategorical(300)),
  };
  ASSERT_EQ(inputs[0]->encoding(), ColumnEncoding::kPlain);
  ASSERT_EQ(inputs[1]->encoding(), ColumnEncoding::kDict);
  for (const ColumnPtr& col : inputs) {
    ByteWriter writer;
    col->Serialize(&writer);
    ByteReader reader(writer.data());
    auto back = Column::Deserialize(&reader);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.ValueOrDie()->encoding(), col->encoding());
    EXPECT_TRUE(back.ValueOrDie()->Equals(*col));
  }
}

/// The serialized tag byte is a plain type (0–5) or 0x80 + type. Any other
/// byte is a ParseError, the retired run-length tag 0xA0 + type included.
TEST(EncodingTest, DeserializeRejectsUnknownTags) {
  ByteWriter writer;
  EncodeColumn(MakeCategorical(300))->Serialize(&writer);
  std::vector<uint8_t> bytes = writer.data();
  ASSERT_EQ(bytes[0], 0x80 | static_cast<uint8_t>(TypeId::kInt32));
  for (uint8_t tag : {0xA1, 0xA0, 0xA5, 0x06, 0x7F, 0x86, 0xC1, 0xFF}) {
    bytes[0] = tag;
    ByteReader reader(bytes);
    auto back = Column::Deserialize(&reader);
    ASSERT_FALSE(back.ok()) << "tag " << int{tag};
    EXPECT_EQ(back.status().code(), StatusCode::kParseError)
        << "tag " << int{tag};
  }
}

/// A row count beyond the input, or a dictionary whose own dictionary is
/// encoded, is a ParseError before anything is allocated or recursed.
TEST(EncodingTest, DeserializeBoundsRowCountsAndNesting) {
  for (uint8_t tag : {0x01, 0x81}) {
    ByteWriter writer;
    writer.WriteU8(tag);
    writer.WriteVarint(uint64_t{1} << 40);
    writer.WriteBool(true);
    ByteReader reader(writer.data());
    auto back = Column::Deserialize(&reader);
    ASSERT_FALSE(back.ok()) << "tag " << int{tag};
    EXPECT_EQ(back.status().code(), StatusCode::kParseError);
  }
  // A million nested dictionary tags, three bytes a level.
  std::vector<uint8_t> chain;
  for (int level = 0; level < (1 << 20); ++level) {
    chain.insert(chain.end(), {0x81, 0x00, 0x00});
  }
  ByteReader reader(chain);
  auto back = Column::Deserialize(&reader);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kParseError);
}

TEST(EncodingTest, BlockFileWithRetiredTagFailsTheScan) {
  Database db;
  ASSERT_TRUE(db.Run("CREATE TABLE t (x INTEGER);").ok());
  auto t = db.catalog().GetTable("t").ValueOrDie();
  for (int32_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int32(i % 3)}).ok());
  }
  std::string dir = TempDirFor("enc_retired_tag");
  MLCS_CHECK_OK(db.SaveTo(dir));
  // Patch the first block's column tag from dictionary to run-length.
  std::string block = dir + "/t/block_0000.blk";
  bufpool::BlockMeta meta = bufpool::ReadBlockMeta(block).ValueOrDie();
  std::vector<uint8_t> bytes = ReadFileBytes(block).ValueOrDie();
  uint8_t& tag = bytes[meta.columns[0].payload_offset];
  ASSERT_EQ(tag, 0x80 | static_cast<uint8_t>(TypeId::kInt32));
  tag = 0xA0 | static_cast<uint8_t>(TypeId::kInt32);
  MLCS_CHECK_OK(AtomicWriteFile(block, bytes.data(), bytes.size()));

  // Attaching reads block headers only; the scan reads the payload.
  Database loaded;
  MLCS_CHECK_OK(loaded.LoadFrom(dir));
  auto r = loaded.Query("SELECT x FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError)
      << r.status().ToString();
}

TEST(EncodingTest, AppendColumnMergesCompatibleEncodings) {
  ColumnPtr a = EncodeColumn(MakeCategorical(256));
  ASSERT_EQ(a->encoding(), ColumnEncoding::kDict);
  // Accumulator pattern used by block scans: empty plain adopts, equal
  // dictionaries merge codes.
  auto acc = Column::Make(TypeId::kInt32);
  MLCS_CHECK_OK(acc->AppendColumn(*a));
  MLCS_CHECK_OK(acc->AppendColumn(*a));
  EXPECT_EQ(acc->encoding(), ColumnEncoding::kDict);
  EXPECT_EQ(acc->size(), 512u);
  ColumnPtr twice = a->Decode();
  MLCS_CHECK_OK(twice->AppendColumn(*a->Decode()));
  EXPECT_TRUE(acc->Equals(*twice));
  // Growing the accumulator must not have grown the source.
  EXPECT_EQ(a->size(), 256u);
}

TEST(EncodingTest, TakeAndSlicePreserveLogicalContents) {
  ColumnPtr dict = EncodeColumn(MakeCategorical(256));
  ASSERT_EQ(dict->encoding(), ColumnEncoding::kDict);
  std::vector<uint32_t> idx = {0, 255, 17, 17, 100};
  ColumnPtr taken = dict->Take(idx);
  EXPECT_EQ(taken->encoding(), ColumnEncoding::kDict);
  EXPECT_TRUE(taken->Equals(*dict->Decode()->Take(idx)));
  ColumnPtr sliced = dict->Slice(30, 70);
  EXPECT_EQ(sliced->encoding(), ColumnEncoding::kDict);
  EXPECT_TRUE(sliced->Equals(*dict->Decode()->Slice(30, 70)));
}

/// -- Operate-on-code kernel parity ----------------------------------------

TEST(EncodingTest, KernelsMatchPlainOnEncodedInputs) {
  ColumnPtr dict = EncodeColumn(MakeCategorical(400));
  ASSERT_EQ(dict->encoding(), ColumnEncoding::kDict);
  ColumnPtr plain = dict->Decode();
  ColumnPtr lit = Column::Constant(Value::Int64(3), 1);
  for (exec::BinOpKind op :
       {exec::BinOpKind::kEq, exec::BinOpKind::kNe, exec::BinOpKind::kLt,
        exec::BinOpKind::kAdd, exec::BinOpKind::kMul}) {
    auto enc = exec::BinaryKernel(op, *dict, *lit);
    auto ref = exec::BinaryKernel(op, *plain, *lit);
    ASSERT_TRUE(enc.ok() && ref.ok());
    EXPECT_TRUE(enc.ValueOrDie()->Equals(*ref.ValueOrDie()));
  }
}

/// -- Operate-on-code sites -------------------------------------------------
///
/// Each site that bumps mlcs.encode.code_path_hits has a test that runs its
/// shape, checks the result against the plain input's, and requires the
/// counter to rise: the test fails if the site stops firing.

/// 640 rows of a dictionary-shaped key `k` (INTEGER) and a column `p`
/// (INTEGER, 40 distinct) that is always left plain. `encoded` encodes `k`.
TablePtr GroupTable(bool encoded) {
  Schema schema;
  schema.AddField("k", TypeId::kInt32);
  schema.AddField("p", TypeId::kInt32);
  std::vector<ColumnPtr> cols = {MakeCategorical(640),
                                 Column::Make(TypeId::kInt32)};
  for (size_t i = 0; i < 640; ++i) {
    cols[1]->AppendInt32(static_cast<int32_t>((i * 11) % 40));
  }
  if (encoded) cols[0] = EncodeColumn(cols[0]);
  return std::make_shared<Table>(std::move(schema), std::move(cols));
}

TEST(EncodingTest, DictionaryKeyGroupsThroughCodeTable) {
  TablePtr encoded = GroupTable(true);
  ASSERT_EQ(encoded->column(0)->encoding(), ColumnEncoding::kDict);
  std::vector<exec::AggSpec> aggs = {{exec::AggOp::kCountStar, "", "n"},
                                     {exec::AggOp::kMax, "p", "mp"}};
  uint64_t before = EncodeCodePathHits();
  auto got = exec::HashGroupBy(*encoded, {"k"}, aggs);
  EXPECT_GT(EncodeCodePathHits(), before);
  auto want = exec::HashGroupBy(*GroupTable(false), {"k"}, aggs);
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_TRUE(got.ValueOrDie()->Equals(*want.ValueOrDie()));
}

TEST(EncodingTest, BinaryKernelComputesPerDictionaryEntry) {
  ColumnPtr dict = EncodeColumn(MakeCategorical(400));
  ASSERT_EQ(dict->encoding(), ColumnEncoding::kDict);
  ColumnPtr lit = Column::Constant(Value::Int64(3), 1);
  uint64_t before = EncodeCodePathHits();
  auto got = exec::BinaryKernel(exec::BinOpKind::kAdd, *dict, *lit);
  EXPECT_GT(EncodeCodePathHits(), before);
  auto want = exec::BinaryKernel(exec::BinOpKind::kAdd, *dict->Decode(), *lit);
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_TRUE(got.ValueOrDie()->Equals(*want.ValueOrDie()));
}

TEST(EncodingTest, HashMixesOneWordPerDictionaryEntry) {
  ColumnPtr dict = EncodeColumn(MakeCategorical(400));
  ASSERT_EQ(dict->encoding(), ColumnEncoding::kDict);
  ColumnPtr plain = dict->Decode();
  std::vector<uint64_t> got(400, exec::kHashSeed), want = got;
  uint64_t before = EncodeCodePathHits();
  exec::HashCombineColumn(*dict, &got);
  EXPECT_GT(EncodeCodePathHits(), before);
  exec::HashCombineColumn(*plain, &want);
  for (size_t i = 0; i < 400; ++i) {
    if (!plain->IsNull(i)) {
      EXPECT_EQ(got[i], want[i]) << i;
    }
  }
}

TEST(EncodingTest, CountStarOnPlainTableTouchesNoCodePath) {
  Database db;
  ASSERT_TRUE(db.Run("CREATE TABLE t (x INTEGER);").ok());
  auto t = db.catalog().GetTable("t").ValueOrDie();
  for (int32_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int32(i % 3)}).ok());
  }
  ASSERT_FALSE(t->column(0)->is_encoded());
  uint64_t before = EncodeCodePathHits();
  auto r = db.Query("SELECT COUNT(*) AS n FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie()->GetValue(0, 0).ValueOrDie(), Value::Int64(300));
  // No rows left to count is still one row holding 0.
  auto none = db.Query("SELECT COUNT(*) AS n FROM t WHERE x > 5");
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  ASSERT_EQ(none.ValueOrDie()->num_rows(), 1u);
  EXPECT_EQ(none.ValueOrDie()->GetValue(0, 0).ValueOrDie(), Value::Int64(0));
  EXPECT_EQ(EncodeCodePathHits(), before);
}

/// -- Persistence + zone maps ----------------------------------------------

TEST(EncodingTest, BlockFilesPersistEncodedAndScanBothModes) {
  Schema schema;
  schema.AddField("cat", TypeId::kInt32);
  schema.AddField("run", TypeId::kInt64);
  auto table = Table::Make(schema);
  for (size_t i = 0; i < 640; ++i) {
    table->column(0)->AppendInt32(static_cast<int32_t>(i % 8));
    table->column(1)->AppendInt64(static_cast<int64_t>(i / 64));
  }
  TablePtr encoded = EncodeTable(table);
  ASSERT_TRUE(encoded->column(0)->is_encoded());
  std::string dir = TempDirFor("enc_blocks");
  MLCS_CHECK_OK(bufpool::StoredTable::Write(*encoded, dir, 128));

  bufpool::BufferPool pool(1 << 20);
  auto stored = bufpool::StoredTable::Open(dir, &pool).ValueOrDie();
  auto scanned = stored->Scan(std::nullopt, {}).ValueOrDie();
  EXPECT_TRUE(scanned->column(0)->is_encoded());
  EXPECT_TRUE(scanned->column(1)->is_encoded());
  EXPECT_TRUE(scanned->Equals(*table));

  // Encoding disabled: the same blocks execute plain end-to-end.
  SetEncodingEnabled(false);
  pool.Clear();
  auto plain_scan = stored->Scan(std::nullopt, {}).ValueOrDie();
  SetEncodingEnabled(true);
  EXPECT_FALSE(plain_scan->column(0)->is_encoded());
  EXPECT_FALSE(plain_scan->column(1)->is_encoded());
  EXPECT_TRUE(plain_scan->Equals(*table));

  // Materialize is the promotion path: always plain.
  auto promoted = stored->Materialize().ValueOrDie();
  EXPECT_FALSE(promoted->column(0)->is_encoded());
  EXPECT_TRUE(promoted->Equals(*table));
}

TEST(EncodingTest, ZoneMapsUseDecodedValuesForUnsortedDictionaries) {
  // Dictionary deliberately NOT in value order: code order ≠ value order,
  // so a zone over codes would claim min="zebra", max="mango" and admit or
  // refute the wrong blocks.
  auto dict = Column::Make(TypeId::kVarchar);
  dict->AppendString("zebra");
  dict->AppendString("apple");
  dict->AppendString("mango");
  std::vector<uint32_t> codes;
  for (int i = 0; i < 96; ++i) codes.push_back(static_cast<uint32_t>(i % 3));
  ColumnPtr col =
      Column::MakeDictionary(TypeId::kVarchar, codes, dict).ValueOrDie();
  ASSERT_FALSE(col->dict_sorted());

  bufpool::ZoneMap zone = bufpool::ComputeZoneMap(*col);
  ASSERT_TRUE(zone.has_minmax);
  EXPECT_EQ(zone.min, Value::Varchar("apple"));
  EXPECT_EQ(zone.max, Value::Varchar("zebra"));

  // End-to-end: an equality probe inside the decoded range must not skip
  // the block; one outside it must.
  Schema schema;
  schema.AddField("fruit", TypeId::kVarchar);
  auto table = std::make_shared<Table>(schema, std::vector<ColumnPtr>{col});
  std::string dir = TempDirFor("enc_zone");
  MLCS_CHECK_OK(bufpool::StoredTable::Write(*table, dir, 96));
  auto stored = bufpool::StoredTable::Open(dir).ValueOrDie();
  bufpool::ZonePredicate hit;
  hit.column = "fruit";
  hit.op = bufpool::ZoneOp::kEq;
  hit.literal = Value::Varchar("apple");
  bufpool::StoredTable::ScanCounters counters;
  auto r = stored->Scan(std::nullopt, {hit}, &counters);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(counters.blocks_skipped, 0u);
  EXPECT_EQ(r.ValueOrDie()->num_rows(), 96u);
  bufpool::ZonePredicate miss = hit;
  miss.literal = Value::Varchar("zzz");
  counters = {};
  r = stored->Scan(std::nullopt, {miss}, &counters);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(counters.blocks_skipped, 1u);
  EXPECT_EQ(r.ValueOrDie()->num_rows(), 0u);
}

TEST(EncodingTest, StreamingScanBoundsPinnedBytes) {
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
    table->column(0)->AppendInt64(i);  // all-distinct: stays plain
    table->column(1)->AppendInt64(i * 3);
  }
  std::string dir = TempDirFor("enc_stream");
  MLCS_CHECK_OK(bufpool::StoredTable::Write(*table, dir, 256));
  bufpool::BufferPool pool(64u << 20);
  auto stored = bufpool::StoredTable::Open(dir, &pool).ValueOrDie();
  ASSERT_EQ(stored->num_blocks(), 16u);

  obs::Gauge* hw = obs::MetricsRegistry::Global().GetGauge(
      "mlcs.bufpool.pinned_bytes_hw");
  hw->Set(0);
  bufpool::StoredTable::ScanCounters counters;
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

TEST(EncodingTest, MetricsCountEncodedColumnsAndDecodes) {
  uint64_t cols_before = EncodeColumnsEncoded();
  uint64_t bytes_before = EncodeEncodedBytes();
  ColumnPtr enc = EncodeColumn(MakeCategorical(256));
  ASSERT_TRUE(enc->is_encoded());
  EXPECT_EQ(EncodeColumnsEncoded(), cols_before + 1);
  EXPECT_GT(EncodeEncodedBytes(), bytes_before);
  uint64_t dec_before = EncodeDecodeEvents();
  (void)enc->Decode();
  EXPECT_GT(EncodeDecodeEvents(), dec_before);
}

}  // namespace
}  // namespace mlcs
