#include "dataframe/dataframe.h"

#include "exec/filter.h"
#include "exec/hash_join.h"

namespace mlcs::dataframe {

Result<DataFrame> DataFrame::Merge(const DataFrame& other,
                                   const std::vector<std::string>& on) const {
  // The DataFrame API embeds the operators by design (no SQL plan here).
  MLCS_ASSIGN_OR_RETURN(
      TablePtr joined,
      exec::HashJoin(*table_, *other.table_,  // lint:allow(exec-operator-call)
                     on, on));
  return DataFrame(std::move(joined));
}

Result<DataFrame> DataFrame::GroupBy(
    const std::vector<std::string>& keys,
    const std::vector<exec::AggSpec>& aggs) const {
  MLCS_ASSIGN_OR_RETURN(
      TablePtr out,
      exec::HashGroupBy(*table_, keys,  // lint:allow(exec-operator-call)
                        aggs));
  return DataFrame(std::move(out));
}

Result<DataFrame> DataFrame::Filter(const mlcs::Column& predicate) const {
  MLCS_ASSIGN_OR_RETURN(
      TablePtr out,
      exec::FilterTable(*table_,  // lint:allow(exec-operator-call)
                        predicate));
  return DataFrame(std::move(out));
}

DataFrame DataFrame::Head(size_t n) const {
  return SliceRows(0, std::min(n, num_rows()));
}

DataFrame DataFrame::SliceRows(size_t offset, size_t length) const {
  return DataFrame(table_->SliceRows(offset, length));
}

DataFrame DataFrame::TakeRows(const std::vector<uint32_t>& indices) const {
  return DataFrame(table_->TakeRows(indices));
}

Result<ml::Matrix> DataFrame::ToMatrix(
    const std::vector<std::string>& features) const {
  std::vector<ColumnPtr> columns;
  columns.reserve(features.size());
  for (const auto& name : features) {
    MLCS_ASSIGN_OR_RETURN(ColumnPtr col, table_->ColumnByName(name));
    columns.push_back(std::move(col));
  }
  return ml::Matrix::CopyColumns(columns);
}

Result<ml::Labels> DataFrame::LabelColumn(const std::string& name) const {
  MLCS_ASSIGN_OR_RETURN(ColumnPtr col, table_->ColumnByName(name));
  MLCS_ASSIGN_OR_RETURN(ColumnPtr as_int, col->CastTo(TypeId::kInt32));
  return ml::Labels(as_int->i32_data());
}

}  // namespace mlcs::dataframe
