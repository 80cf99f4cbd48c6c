#include "client/sqlite_like.h"

namespace mlcs::client {

Status RowCursor::Prepare(Database* db, const std::string& sql) {
  MLCS_ASSIGN_OR_RETURN(result_, db->Query(sql));
  stepped_ = 0;
  on_row_ = false;
  return Status::OK();
}

bool RowCursor::Step() {
  on_row_ = result_ != nullptr && stepped_ < result_->num_rows();
  stepped_ += on_row_ ? 1 : 0;
  return on_row_;
}

size_t RowCursor::num_columns() const {
  return result_ == nullptr ? 0 : result_->num_columns();
}

Result<Value> RowCursor::ColumnValue(size_t col) const {
  if (!on_row_) {
    return Status::InvalidArgument("cursor is not positioned on a row");
  }
  if (col >= num_columns()) {
    return Status::OutOfRange("column " + std::to_string(col) +
                              " out of range (" +
                              std::to_string(num_columns()) + " columns)");
  }
  return Cell(col);
}

Result<int64_t> RowCursor::ColumnInt(size_t col) const {
  MLCS_ASSIGN_OR_RETURN(Value v, ColumnValue(col));
  return v.AsInt64();
}

Result<double> RowCursor::ColumnDouble(size_t col) const {
  MLCS_ASSIGN_OR_RETURN(Value v, ColumnValue(col));
  return v.AsDouble();
}

Result<std::string> RowCursor::ColumnText(size_t col) const {
  MLCS_ASSIGN_OR_RETURN(Value v, ColumnValue(col));
  return v.AsString();
}

Result<bool> RowCursor::ColumnIsNull(size_t col) const {
  MLCS_ASSIGN_OR_RETURN(Value v, ColumnValue(col));
  return v.is_null();
}

Result<TablePtr> FetchAllRowAtATime(Database* db, const std::string& sql) {
  RowCursor cursor;
  MLCS_RETURN_IF_ERROR(cursor.Prepare(db, sql));
  auto out = Table::Make(cursor.schema());
  // The result and `out` share one schema, so every column index is in
  // range and every value appends without a cast.
  while (cursor.Step()) {
    for (size_t c = 0; c < out->num_columns(); ++c) {
      MLCS_RETURN_IF_ERROR(out->column(c)->AppendValue(cursor.Cell(c)));
    }
  }
  return out;
}

}  // namespace mlcs::client
