#ifndef MLCS_IO_CSV_H_
#define MLCS_IO_CSV_H_

#include <string>

#include "common/result.h"
#include "storage/table.h"

namespace mlcs::io {

struct CsvOptions {
  char delimiter = ',';
  bool has_header = true;
};

/// Writes a table as delimited text. Numbers go through FormatNumberCell
/// (storage/text_cell.h), BOOL as true/false, NULL as an empty field.
/// VARCHAR fields containing the delimiter, quotes or newlines are quoted
/// with '"' ('""' escapes). BLOB columns are NotImplemented.
Status WriteCsv(const Table& table, const std::string& path,
                const CsvOptions& options = {});

/// Reads a CSV with a known schema — the paper's "optimized parser"
/// baseline: no type sniffing, one pass over the file read whole. Each
/// record is split into views of that buffer; only a quoted field holding
/// '""' is copied. A quoted field may span the delimiter and newlines, and
/// "\r\n" ends a record like "\n". The field count is checked before any
/// field is parsed; each field then goes through AppendTextCell
/// (storage/text_cell.h). An empty field is NULL, except in a VARCHAR
/// column, where it is the empty string. Blank lines are skipped.
Result<TablePtr> ReadCsv(const std::string& path, const Schema& schema,
                         const CsvOptions& options = {});

}  // namespace mlcs::io

#endif  // MLCS_IO_CSV_H_
