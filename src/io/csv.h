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

/// Writes a table as delimited text. VARCHAR fields containing the
/// delimiter, quotes or newlines are quoted with '"' ('""' escapes).
Status WriteCsv(const Table& table, const std::string& path,
                const CsvOptions& options = {});

/// Reads a CSV with a known schema (the fast path the paper's "optimized
/// parser" baseline uses: std::from_chars per field, no type sniffing).
Result<TablePtr> ReadCsv(const std::string& path, const Schema& schema,
                         const CsvOptions& options = {});

}  // namespace mlcs::io

#endif  // MLCS_IO_CSV_H_
