#ifndef MLCS_STORAGE_ENCODING_H_
#define MLCS_STORAGE_ENCODING_H_

#include <cstddef>
#include <cstdint>

#include "storage/column.h"
#include "storage/table.h"

namespace mlcs {

/// Auto-detect thresholds for EncodeColumn/EncodeTable (DESIGN.md §13).
/// A column is considered, in order: RLE when its run count is a small
/// fraction of its rows (sorted / precinct-like data); dictionary when a
/// low-cardinality INT32/INT64/VARCHAR column's distinct count is both
/// under the hard cap and a small fraction of its rows (voter-shaped
/// categorical data); plain otherwise. Tiny columns are never encoded.
struct EncodingPolicy {
  /// Hard dictionary cap — more distinct values spill to plain (codes
  /// would need >2 bytes and the dictionary stops paying for itself).
  size_t max_dict_size = 1u << 16;
  /// distinct / non-null rows must be ≤ this for dictionary encoding.
  double max_dict_fraction = 0.5;
  /// runs / rows must be ≤ this for RLE.
  double max_run_fraction = 0.5;
  /// Columns with fewer rows than this stay plain.
  size_t min_rows = 64;
};

/// Encodes one column per `policy`. Returns the input pointer unchanged
/// when no encoding is profitable (or the column is already encoded);
/// otherwise a freshly built encoded column with identical logical
/// contents. Never fails — an unencodable column is simply returned as-is.
ColumnPtr EncodeColumn(const ColumnPtr& column, const EncodingPolicy& policy);

/// Applies EncodeColumn to every column. Returns the input table pointer
/// when nothing changed (also when encoding is disabled, see
/// EncodingEnabled()); otherwise a new Table sharing the untouched columns.
TablePtr EncodeTable(const TablePtr& table,
                     const EncodingPolicy& policy = EncodingPolicy());

/// Decodes every encoded column. Returns the input pointer when all
/// columns are already plain. This is the decode boundary queries pass
/// through before results reach raw-accessor consumers (wire protocols,
/// UDF argument vectors, ML ingestion).
TablePtr DecodeTable(const TablePtr& table);

/// Process-wide toggle for producing encoded columns (default on). When
/// off, EncodeTable is a no-op and block scans decode any encoded
/// chunks they read, so previously-saved encoded tables still execute
/// plain end-to-end: that is the bit-identical parity axis the property
/// sweep and bench/ablation_compression flip.
bool EncodingEnabled();
void SetEncodingEnabled(bool enabled);

/// mlcs.encode.* registry series (cached pointers; safe on hot paths).
/// Readable snapshots for tests and the ablation bench.
uint64_t EncodeColumnsEncoded();   ///< columns EncodeColumn compressed
uint64_t EncodeEncodedBytes();     ///< ByteSize of columns as encoded
uint64_t EncodeDecodeEvents();     ///< Column::Decode fallback count
uint64_t EncodeCodePathHits();     ///< kernel operate-on-code fast paths

/// Internal hot-path hooks (Column::Decode and the exec fast paths bump
/// these; exposed here so those layers need no obs dependency of their own).
void CountDecodeEvent();
void CountCodePathHit();

}  // namespace mlcs

#endif  // MLCS_STORAGE_ENCODING_H_
