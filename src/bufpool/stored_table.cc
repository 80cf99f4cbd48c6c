#include "bufpool/stored_table.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "common/byte_buffer.h"
#include "common/file_util.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace mlcs::bufpool {

namespace {

constexpr uint32_t kManifestMagic = 0x4D4C4D31;  // "1MLM" on disk (LE)
// v2 adds the save generation (v1 manifests load with generation 0).
constexpr uint16_t kManifestVersion = 2;

/// Registry series for blocks proven irrelevant by zone maps; cached so
/// scans never take the registry lock.
obs::Counter* BlocksSkippedCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "mlcs.bufpool.blocks_skipped");
  return counter;
}

std::string BlockPath(const std::string& dir, size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "block_%04zu.blk", index);
  return dir + "/" + name;
}

std::string ManifestPath(const std::string& dir) {
  return dir + "/manifest.mlm";
}

/// Best-effort read of the save generation recorded in `dir`'s current
/// manifest; 0 when there is none or it predates generations (v1).
uint64_t CurrentManifestGeneration(const std::string& dir) {
  Result<std::vector<uint8_t>> read = ReadFileBytes(ManifestPath(dir));
  if (!read.ok()) return 0;
  const std::vector<uint8_t>& bytes = read.ValueOrDie();
  ByteReader reader(bytes);
  Result<uint32_t> magic = reader.ReadU32();
  if (!magic.ok() || magic.ValueOrDie() != kManifestMagic) return 0;
  Result<uint16_t> version = reader.ReadU16();
  if (!version.ok() || version.ValueOrDie() < 2) return 0;
  Result<uint64_t> generation = reader.ReadU64();
  return generation.ok() ? generation.ValueOrDie() : 0;
}

/// Issues a generation strictly greater than both `prev_on_disk` and every
/// generation this process has handed out before. Buffer-pool chunk keys
/// embed the generation, so a rewrite of the same block paths can never
/// alias chunks cached from an earlier save — even if the directory (and
/// its manifest) was wiped out from under us between saves.
uint64_t NextSaveGeneration(uint64_t prev_on_disk) {
  static std::atomic<uint64_t> process_floor{0};
  uint64_t prev = process_floor.load(std::memory_order_relaxed);
  uint64_t next;
  do {
    next = std::max(prev, prev_on_disk) + 1;
  } while (!process_floor.compare_exchange_weak(prev, next,
                                                std::memory_order_relaxed));
  return next;
}

/// A predicate resolved against the stored schema.
struct ResolvedPredicate {
  size_t col_idx = 0;
  ZoneOp op = ZoneOp::kEq;
  const Value* literal = nullptr;
};

/// True when the zone maps prove no row of `block` can satisfy every
/// predicate (any single refuted conjunct suffices — conjuncts AND).
bool CanSkipBlock(const BlockMeta& block,
                  const std::vector<ResolvedPredicate>& predicates) {
  for (const ResolvedPredicate& p : predicates) {
    if (p.col_idx >= block.columns.size()) continue;  // fail open
    if (!ZoneAdmits(block.columns[p.col_idx].zone, block.rows, p.op,
                    *p.literal)) {
      return true;
    }
  }
  return false;
}

/// The predicates on columns of `schema`, or none when zone-map skipping
/// is off; predicates on unknown columns are dropped (fail open).
std::vector<ResolvedPredicate> ResolvePredicates(
    const Schema& schema, const std::vector<ZonePredicate>& predicates) {
  std::vector<ResolvedPredicate> resolved;
  if (!ZoneMapSkippingEnabled()) return resolved;
  resolved.reserve(predicates.size());
  for (const ZonePredicate& p : predicates) {
    std::optional<size_t> idx = schema.FieldIndex(p.column);
    if (!idx.has_value()) continue;
    resolved.push_back(ResolvedPredicate{*idx, p.op, &p.literal});
  }
  return resolved;
}

}  // namespace

Status StoredTable::Write(const Table& table, const std::string& dir,
                          size_t block_rows) {
  if (block_rows == 0) {
    return Status::InvalidArgument("StoredTable: block_rows must be > 0");
  }
  MLCS_RETURN_IF_ERROR(table.Validate());
  MLCS_RETURN_IF_ERROR(MakeDirs(dir));
  size_t rows = table.num_rows();
  size_t num_blocks = (rows + block_rows - 1) / block_rows;
  std::vector<uint64_t> block_row_counts;
  block_row_counts.reserve(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) {
    size_t offset = b * block_rows;
    size_t length = std::min(block_rows, rows - offset);
    TablePtr slice = table.SliceRows(offset, length);
    MLCS_RETURN_IF_ERROR(WriteBlockFile(*slice, BlockPath(dir, b)));
    block_row_counts.push_back(length);
  }
  ByteWriter manifest;
  manifest.WriteU32(kManifestMagic);
  manifest.WriteU16(kManifestVersion);
  manifest.WriteU64(NextSaveGeneration(CurrentManifestGeneration(dir)));
  table.schema().Serialize(&manifest);
  manifest.WriteVarint(block_rows);
  manifest.WriteVarint(num_blocks);
  for (uint64_t count : block_row_counts) manifest.WriteVarint(count);
  // Manifest last: a crash before this line leaves the old manifest (if
  // any) still pointing at fully-written old blocks.
  MLCS_RETURN_IF_ERROR(AtomicWriteFile(
      ManifestPath(dir), manifest.data().data(), manifest.size()));
  // A previous, larger save may have left higher-numbered blocks behind.
  for (size_t b = num_blocks; RemoveFileIfExists(BlockPath(dir, b)); ++b) {
  }
  return Status::OK();
}

Result<std::shared_ptr<StoredTable>> StoredTable::Open(
    const std::string& dir, BufferPool* pool) {
  MLCS_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                        ReadFileBytes(ManifestPath(dir)));
  ByteReader reader(bytes);
  MLCS_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kManifestMagic) {
    std::string path = ManifestPath(dir);
    return Status::ParseError("'" + path +
                              "' is not an mlcs table manifest");
  }
  MLCS_ASSIGN_OR_RETURN(uint16_t version, reader.ReadU16());
  if (version < 1 || version > kManifestVersion) {
    return Status::ParseError("unsupported manifest version " +
                              std::to_string(version));
  }
  auto stored = std::shared_ptr<StoredTable>(new StoredTable());
  stored->dir_ = dir;
  stored->pool_ = pool != nullptr ? pool : &BufferPool::Global();
  if (version >= 2) {
    MLCS_ASSIGN_OR_RETURN(stored->generation_, reader.ReadU64());
  }
  MLCS_ASSIGN_OR_RETURN(stored->schema_, Schema::Deserialize(&reader));
  MLCS_ASSIGN_OR_RETURN(uint64_t block_rows, reader.ReadVarint());
  (void)block_rows;
  MLCS_ASSIGN_OR_RETURN(uint64_t num_blocks, reader.ReadVarint());
  if (num_blocks > (1u << 24)) {
    return Status::ParseError("implausible block count in '" + dir + "'");
  }
  stored->blocks_.reserve(num_blocks);
  for (uint64_t b = 0; b < num_blocks; ++b) {
    MLCS_ASSIGN_OR_RETURN(uint64_t expected_rows, reader.ReadVarint());
    MLCS_ASSIGN_OR_RETURN(BlockMeta meta,
                          ReadBlockMeta(BlockPath(dir, b)));
    if (meta.rows != expected_rows ||
        meta.columns.size() != stored->schema_.num_fields()) {
      return Status::ParseError(
          "'" + meta.path + "' disagrees with the manifest (torn save?)");
    }
    stored->num_rows_ += meta.rows;
    stored->blocks_.push_back(std::move(meta));
  }
  return stored;
}

Result<std::vector<size_t>> StoredTable::ResolveProjection(
    const std::optional<std::vector<std::string>>& columns) const {
  // Mirrors SelectColumns: output order is request order, names stay as
  // stored.
  std::vector<size_t> indices;
  if (columns.has_value()) {
    indices.reserve(columns->size());
    for (const std::string& name : *columns) {
      MLCS_ASSIGN_OR_RETURN(size_t idx, schema_.RequireFieldIndex(name));
      indices.push_back(idx);
    }
  } else {
    indices.reserve(schema_.num_fields());
    for (size_t i = 0; i < schema_.num_fields(); ++i) indices.push_back(i);
  }
  return indices;
}

Status StoredTable::ScanBlocks(
    const std::optional<std::vector<std::string>>& columns,
    const std::vector<ZonePredicate>& predicates, ScanCounters* counters,
    const BlockEmit& emit) const {
  MLCS_ASSIGN_OR_RETURN(std::vector<size_t> indices,
                        ResolveProjection(columns));
  Schema out_schema;
  for (size_t idx : indices) {
    const Field& field = schema_.field(idx);
    out_schema.AddField(field.name, field.type);
  }
  std::vector<ResolvedPredicate> resolved =
      ResolvePredicates(schema_, predicates);
  ScanCounters local;
  ScanCounters& c = counters != nullptr ? *counters : local;
  for (const BlockMeta& block : blocks_) {
    ++c.blocks_total;
    if (!resolved.empty() && CanSkipBlock(block, resolved)) {
      ++c.blocks_skipped;
      BlocksSkippedCounter()->Add(1);
      continue;
    }
    ++c.blocks_read;
    std::vector<ColumnPtr> block_columns;
    block_columns.reserve(indices.size());
    for (size_t col_idx : indices) {
      // The save generation is part of the key: a rewrite of this block
      // path (SaveTo over an open directory) must miss, not serve chunks
      // cached from the previous save.
      std::string key = block.path;
      key += '@';
      key += std::to_string(generation_);
      key += '#';
      key += std::to_string(col_idx);
      MLCS_ASSIGN_OR_RETURN(
          PinnedChunk chunk,
          pool_->Fetch(key, [&block, col_idx]() {
            return ReadColumnChunk(block, col_idx);
          }));
      chunk.hit() ? ++c.pool_hits : ++c.pool_misses;
      // The ColumnPtr outlives the pin (eviction only drops the pool's
      // reference), so blocks are shared with the cache copy-free; the
      // pin itself releases at end of scope — one pinned chunk at a time.
      ColumnPtr col = chunk.column();
      c.bytes_materialized += col->ByteSize();
      block_columns.push_back(std::move(col));
    }
    MLCS_RETURN_IF_ERROR(emit(
        std::make_shared<Table>(out_schema, std::move(block_columns))));
  }
  return Status::OK();
}

Result<TablePtr> StoredTable::Scan(
    const std::optional<std::vector<std::string>>& columns,
    const std::vector<ZonePredicate>& predicates,
    ScanCounters* counters) const {
  MLCS_ASSIGN_OR_RETURN(std::vector<size_t> indices,
                        ResolveProjection(columns));
  // Each output column is reserved once for the rows of the blocks that
  // survive skipping.
  uint64_t rows = 0;
  std::vector<ResolvedPredicate> resolved =
      ResolvePredicates(schema_, predicates);
  for (const BlockMeta& block : blocks_) {
    if (!CanSkipBlock(block, resolved)) rows += block.rows;
  }
  Schema out_schema;
  std::vector<ColumnPtr> out_columns;
  out_columns.reserve(indices.size());
  for (size_t idx : indices) {
    const Field& field = schema_.field(idx);
    out_schema.AddField(field.name, field.type);
    out_columns.push_back(Column::Make(field.type));
    out_columns.back()->Reserve(rows);
  }
  MLCS_RETURN_IF_ERROR(ScanBlocks(
      columns, predicates, counters, [&out_columns](const TablePtr& block) {
        for (size_t j = 0; j < out_columns.size(); ++j) {
          MLCS_RETURN_IF_ERROR(
              out_columns[j]->AppendColumn(*block->column(j)));
        }
        return Status::OK();
      }));
  return std::make_shared<Table>(std::move(out_schema),
                                 std::move(out_columns));
}

Result<TablePtr> StoredTable::Materialize() const {
  return Scan(std::nullopt, {});
}

}  // namespace mlcs::bufpool
