#ifndef MLCS_DATAFRAME_DATAFRAME_H_
#define MLCS_DATAFRAME_DATAFRAME_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/aggregate.h"
#include "ml/matrix.h"
#include "storage/table.h"

namespace mlcs::dataframe {

/// A client-side columnar frame — the pandas analogue the paper's external
/// baselines use for the preprocessing joins/aggregations that the
/// in-database pipeline does in SQL. Backed by the same Table/Column
/// machinery (so load comparisons measure I/O and protocol cost, not
/// container overhead) but living entirely "outside the database".
class DataFrame {
 public:
  DataFrame() : table_(std::make_shared<Table>(Schema{})) {}
  explicit DataFrame(TablePtr table) : table_(std::move(table)) {}

  const TablePtr& table() const { return table_; }
  size_t num_rows() const { return table_->num_rows(); }
  size_t num_columns() const { return table_->num_columns(); }
  const Schema& schema() const { return table_->schema(); }

  Result<ColumnPtr> Column(const std::string& name) const {
    return table_->ColumnByName(name);
  }

  Status AddColumn(std::string name, ColumnPtr column) {
    return table_->AddColumn(std::move(name), std::move(column));
  }

  /// Inner join on equally-named key columns (hash join under the hood).
  Result<DataFrame> Merge(const DataFrame& other,
                          const std::vector<std::string>& on) const;

  /// Group-by aggregation, pandas `df.groupby(keys).agg(...)` analogue.
  Result<DataFrame> GroupBy(const std::vector<std::string>& keys,
                            const std::vector<exec::AggSpec>& aggs) const;

  /// Rows where `predicate` (a BOOL column) is true.
  Result<DataFrame> Filter(const mlcs::Column& predicate) const;

  /// Row-range head/slice.
  DataFrame Head(size_t n) const;
  DataFrame SliceRows(size_t offset, size_t length) const;
  DataFrame TakeRows(const std::vector<uint32_t>& indices) const;

  /// Feature matrix of numeric columns, copied into owned doubles (pandas'
  /// `df.values`).
  Result<ml::Matrix> ToMatrix(const std::vector<std::string>& features) const;
  /// Int32 labels from a column.
  Result<ml::Labels> LabelColumn(const std::string& name) const;

  std::string ToString(size_t max_rows = 10) const {
    return table_->ToString(max_rows);
  }

 private:
  TablePtr table_;
};

}  // namespace mlcs::dataframe

#endif  // MLCS_DATAFRAME_DATAFRAME_H_
