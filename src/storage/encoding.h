#ifndef MLCS_STORAGE_ENCODING_H_
#define MLCS_STORAGE_ENCODING_H_

#include <cstddef>
#include <cstdint>

#include "storage/column.h"
#include "storage/table.h"

namespace mlcs {

/// Encodes one column as a dictionary when that takes fewer bytes than
/// plain (DESIGN.md §13; a tie stays plain). Columns under 64 rows, BOOL,
/// DOUBLE and BLOB stay plain, and more than 2^16 distinct values rule a
/// dictionary out. Returns the input pointer
/// unchanged when plain is kept (or the column is already encoded);
/// otherwise a freshly built encoded column with identical logical
/// contents. Never fails — an unencodable column is simply returned as-is.
ColumnPtr EncodeColumn(const ColumnPtr& column);

/// Applies EncodeColumn to every column. Returns the input table pointer
/// when nothing changed (also when encoding is disabled, see
/// EncodingEnabled()); otherwise a new Table sharing the untouched columns.
TablePtr EncodeTable(const TablePtr& table);

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
