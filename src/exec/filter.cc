#include "exec/filter.h"

#include <algorithm>

namespace mlcs::exec {

namespace {

/// Serial true-row scan over [begin, end); indices are absolute. Branchless
/// compress-store: the index is written unconditionally and the cursor
/// advances by the predicate bit, so the loop body carries no
/// data-dependent branch (the selectivity-proof selection idiom).
void ScanTrueRows(const Column& predicate, size_t begin, size_t end,
                  std::vector<uint32_t>* out) {
  const uint8_t* data = predicate.bool_data().data();
  const uint8_t* valid = predicate.validity_data();
  size_t base = out->size();
  out->resize(base + (end - begin));
  uint32_t* dst = out->data() + base;
  size_t count = 0;
  if (valid == nullptr) {
    for (size_t i = begin; i < end; ++i) {
      dst[count] = static_cast<uint32_t>(i);
      count += data[i] != 0;
    }
  } else {
    for (size_t i = begin; i < end; ++i) {
      dst[count] = static_cast<uint32_t>(i);
      count += static_cast<size_t>((data[i] != 0) & (valid[i] != 0));
    }
  }
  out->resize(base + count);
}

}  // namespace

Result<std::vector<uint32_t>> SelectionIndices(const Column& predicate,
                                               size_t num_rows,
                                               const MorselPolicy& policy) {
  if (predicate.type() != TypeId::kBool) {
    return Status::TypeMismatch("filter predicate must be BOOLEAN, got " +
                                std::string(TypeIdToString(predicate.type())));
  }
  std::vector<uint32_t> indices;
  if (predicate.size() == 1) {
    // Broadcast scalar predicate.
    bool keep = !predicate.IsNull(0) && predicate.bool_data()[0] != 0;
    if (keep) {
      indices.resize(num_rows);
      for (size_t i = 0; i < num_rows; ++i) {
        indices[i] = static_cast<uint32_t>(i);
      }
    }
    return indices;
  }
  if (predicate.size() != num_rows) {
    return Status::InvalidArgument("predicate length " +
                                   std::to_string(predicate.size()) +
                                   " does not match row count " +
                                   std::to_string(num_rows));
  }
  if (!ShouldParallelize(policy, num_rows)) {
    indices.reserve(num_rows / 2);
    ScanTrueRows(predicate, 0, num_rows, &indices);
    return indices;
  }
  // Morsel-parallel scan into per-morsel locals; splicing them in morsel
  // order reproduces the serial vector exactly.
  std::vector<std::vector<uint32_t>> parts(NumMorsels(policy, num_rows));
  MLCS_RETURN_IF_ERROR(ParallelMorsels(
      policy, num_rows, [&](size_t m, size_t begin, size_t end) -> Status {
        parts[m].reserve((end - begin) / 2);
        ScanTrueRows(predicate, begin, end, &parts[m]);
        return Status::OK();
      }));
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  indices.reserve(total);
  for (const auto& p : parts) {
    indices.insert(indices.end(), p.begin(), p.end());
  }
  return indices;
}

Result<TablePtr> GatherRows(const Table& input,
                            const std::vector<uint32_t>& indices,
                            const MorselPolicy& policy) {
  size_t ncols = input.num_columns();
  if (ncols == 0 || !ShouldParallelize(policy, indices.size())) {
    return input.TakeRows(indices);
  }
  size_t morsels = NumMorsels(policy, indices.size());
  size_t width = std::max<size_t>(1, policy.morsel_rows);
  // One gather task per (column, index-morsel); each column's pieces splice
  // back in morsel order into a pre-reserved output column.
  std::vector<std::vector<ColumnPtr>> parts(
      ncols, std::vector<ColumnPtr>(morsels));
  MLCS_RETURN_IF_ERROR(ParallelItems(
      policy, ncols * morsels, [&](size_t item) -> Status {
        size_t c = item / morsels;
        size_t m = item % morsels;
        size_t begin = m * width;
        size_t end = std::min(indices.size(), begin + width);
        parts[c][m] = input.column(c)->Take(indices.data() + begin,
                                            end - begin);
        return Status::OK();
      }));
  std::vector<ColumnPtr> cols(ncols);
  MLCS_RETURN_IF_ERROR(
      ParallelItems(policy, ncols, [&](size_t c) -> Status {
        ColumnPtr out = Column::Make(input.column(c)->type());
        out->Reserve(indices.size());
        for (const ColumnPtr& part : parts[c]) {
          MLCS_RETURN_IF_ERROR(out->AppendColumn(*part));
        }
        cols[c] = std::move(out);
        return Status::OK();
      }));
  return std::make_shared<Table>(input.schema(), std::move(cols));
}

Result<TablePtr> FilterTable(const Table& input, const Column& predicate,
                             const MorselPolicy& policy) {
  MLCS_ASSIGN_OR_RETURN(std::vector<uint32_t> indices,
                        SelectionIndices(predicate, input.num_rows(), policy));
  return GatherRows(input, indices, policy);
}

}  // namespace mlcs::exec
