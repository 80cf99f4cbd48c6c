#ifndef MLCS_CLIENT_SQLITE_LIKE_H_
#define MLCS_CLIENT_SQLITE_LIKE_H_

#include <string>

#include "common/result.h"
#include "sql/database.h"

namespace mlcs::client {

/// SQLite-style in-process row-at-a-time cursor: no socket, but every cell
/// is fetched through a per-row step + per-cell typed accessor, boxing one
/// Value at a time — the conversion overhead the paper's SQLite bar pays
/// even without network transfer.
class RowCursor {
 public:
  RowCursor() = default;

  /// Executes the query eagerly (as this engine is operator-at-a-time) and
  /// positions the cursor before the first row.
  Status Prepare(Database* db, const std::string& sql);

  /// Advances; false once past the last row.
  [[nodiscard]] bool Step();

  size_t num_columns() const;
  const Schema& schema() const { return result_->schema(); }

  /// Typed accessors for the current row (SQLite's sqlite3_column_*).
  Result<int64_t> ColumnInt(size_t col) const;
  Result<double> ColumnDouble(size_t col) const;
  Result<std::string> ColumnText(size_t col) const;
  Result<bool> ColumnIsNull(size_t col) const;
  Result<Value> ColumnValue(size_t col) const;

 private:
  friend Result<TablePtr> FetchAllRowAtATime(Database* db,
                                             const std::string& sql);

  /// The current row's value in column `col`, unchecked: requires a Step()
  /// that returned true and col < num_columns().
  Value Cell(size_t col) const {
    return result_->column(col)->ValueAt(stepped_ - 1);
  }

  TablePtr result_;
  /// Rows Step() has moved onto; the current row is stepped_ - 1.
  size_t stepped_ = 0;
  /// Whether the last Step() landed on a row.
  bool on_row_ = false;
};

/// Fetches an entire result set through the row-at-a-time cursor into a
/// fresh columnar table — models `cursor.fetchall()` + per-cell conversion
/// in the paper's SQLite pipeline: each cell is boxed into one Value, the
/// modelled cost, and appended to its column.
Result<TablePtr> FetchAllRowAtATime(Database* db, const std::string& sql);

}  // namespace mlcs::client

#endif  // MLCS_CLIENT_SQLITE_LIKE_H_
