#ifndef MLCS_STORAGE_TEXT_CELL_H_
#define MLCS_STORAGE_TEXT_CELL_H_

#include <cstddef>
#include <string_view>

#include "common/status.h"
#include "storage/column.h"

namespace mlcs {

/// Text cells: the one parser and the one number formatter behind every
/// place a value travels as text — CSV fields (io/csv.h) and pg-text wire
/// cells (client/protocol.h). Both work in place: the parser reads a view
/// into the caller's buffer, the formatter writes into the caller's.

/// Parses `text` as one non-NULL value of `col`'s type and appends it.
///  - INTEGER / BIGINT: std::from_chars over the whole text after trimming
///    ASCII whitespace; INTEGER is range-checked (kOutOfRange).
///  - DOUBLE: std::from_chars over the trimmed text, so FormatNumberCell's
///    shortest round-trip form (including inf, -inf, nan) reads back
///    bit-identical.
///  - BOOL: the trimmed text is t, true, f or false in any case.
///  - VARCHAR / BLOB: the text as is, untrimmed.
/// Anything else, the empty text included, is a kParseError: callers map
/// their own NULL spelling (CSV's empty field, pg-text's length -1) first.
Status AppendTextCell(Column* col, std::string_view text);

/// Most bytes FormatNumberCell writes: a DOUBLE's shortest round-trip
/// form is at most 24 ("-2.2250738585072014e-308"), a BIGINT at most 20.
inline constexpr size_t kMaxNumberCellBytes = 24;

/// Writes non-NULL row `row` of a plain INTEGER, BIGINT or DOUBLE column as
/// text at `out`, which has room for kMaxNumberCellBytes, and returns the
/// end of what it wrote. std::to_chars: decimal integers, and for DOUBLE
/// the shortest text that reads back bit-identical.
char* FormatNumberCell(const Column& col, size_t row, char* out);

}  // namespace mlcs

#endif  // MLCS_STORAGE_TEXT_CELL_H_
