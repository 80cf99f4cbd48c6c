#ifndef MLCS_BUFPOOL_STORED_TABLE_H_
#define MLCS_BUFPOOL_STORED_TABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bufpool/block_format.h"
#include "bufpool/buffer_pool.h"
#include "bufpool/zone_map.h"
#include "common/result.h"
#include "storage/table.h"
#include "types/schema.h"

namespace mlcs::bufpool {

/// A table persisted as a directory of fixed-capacity row-group block
/// files plus a manifest:
///
///   <dir>/manifest.mlm    magic "1MLM", version, save generation, schema,
///                         block capacity, per-block row counts
///                         (crash-safe writes)
///   <dir>/block_NNNN.blk  row groups (block_format.h)
///
/// Open() reads the manifest and every block *header* — zone maps and
/// payload extents land in memory, payload bytes stay on disk — after
/// which the object is immutable, so concurrent scans need no lock of
/// their own; all shared mutable state lives in the BufferPool.
class StoredTable {
 public:
  static constexpr size_t kDefaultBlockRows = 4096;

  /// Flushes `table` into `dir` (created if missing): one .blk per
  /// `block_rows` rows, then the manifest. Every file goes through
  /// AtomicWriteFile, and the manifest is written last, so a crash
  /// mid-save leaves the previous manifest pointing at fully-written
  /// blocks. Stale higher-numbered blocks from an earlier, larger save
  /// are unlinked.
  static Status Write(const Table& table, const std::string& dir,
                      size_t block_rows = kDefaultBlockRows);

  /// Opens a directory Write produced. `pool` defaults to
  /// BufferPool::Global().
  static Result<std::shared_ptr<StoredTable>> Open(
      const std::string& dir, BufferPool* pool = nullptr);

  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return num_rows_; }
  size_t num_blocks() const { return blocks_.size(); }
  const std::string& dir() const { return dir_; }
  /// Save generation from the manifest (strictly increasing per Write to
  /// the same dir); part of every buffer-pool chunk key so a rewrite of
  /// the same block paths never hits chunks cached from an earlier save.
  uint64_t generation() const { return generation_; }

  /// Per-scan observability, surfaced through Catalog::ScanOptions into
  /// EXPLAIN ANALYZE. Process-wide totals live on the metrics registry
  /// (mlcs.bufpool.*).
  struct ScanCounters {
    uint64_t blocks_total = 0;
    uint64_t blocks_read = 0;
    uint64_t blocks_skipped = 0;
    uint64_t pool_hits = 0;
    uint64_t pool_misses = 0;
    /// Chunk bytes actually handed to the query (skipped blocks excluded)
    /// — what Catalog adds to ScanBytesTouched for stored scans.
    uint64_t bytes_materialized = 0;
  };

  /// Receives one block's worth of rows. Returning a non-OK status aborts
  /// the scan and propagates the status to the ScanBlocks caller.
  using BlockEmit = std::function<Status(const TablePtr&)>;

  /// Streaming scan: pins each surviving block's chunks, hands the block
  /// to `emit` as a self-contained table, and unpins before moving to the
  /// next block — peak pool pin footprint is one block's projected
  /// columns, not the whole table (asserted against
  /// mlcs.bufpool.pinned_bytes_hw in tests). Emitted columns are shared
  /// with the buffer pool cache — callers must treat them as immutable.
  Status ScanBlocks(const std::optional<std::vector<std::string>>& columns,
                    const std::vector<ZonePredicate>& predicates,
                    ScanCounters* counters, const BlockEmit& emit) const;

  /// Materializes the requested columns (nullopt → all, in schema order),
  /// skipping any block whose zone maps prove no row can satisfy some
  /// predicate. Block payloads are fetched through the buffer pool.
  Result<TablePtr> Scan(const std::optional<std::vector<std::string>>& columns,
                        const std::vector<ZonePredicate>& predicates,
                        ScanCounters* counters = nullptr) const;

  /// Full materialization (catalog promotion on first write access).
  Result<TablePtr> Materialize() const;

 private:
  StoredTable() = default;

  Result<std::vector<size_t>> ResolveProjection(
      const std::optional<std::vector<std::string>>& columns) const;

  // Immutable after Open (no mutex by design; see class comment).
  std::string dir_;
  Schema schema_;
  uint64_t generation_ = 0;
  uint64_t num_rows_ = 0;
  std::vector<BlockMeta> blocks_;
  BufferPool* pool_ = nullptr;
};

}  // namespace mlcs::bufpool

#endif  // MLCS_BUFPOOL_STORED_TABLE_H_
