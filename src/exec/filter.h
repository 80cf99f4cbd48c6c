#ifndef MLCS_EXEC_FILTER_H_
#define MLCS_EXEC_FILTER_H_

#include <cstdint>
#include <vector>

#include "common/parallel_for.h"
#include "common/result.h"
#include "storage/table.h"

namespace mlcs::exec {

/// Selection-vector filter: keeps rows where `predicate` is true (NULL and
/// false rows are dropped, SQL semantics). `predicate` must be a BOOL
/// column of the table's length, or length 1 (broadcast keep-all/none).
/// Long inputs build the selection vector and gather morsel-parallel on
/// the policy's pool; output row order is always input order.
Result<TablePtr> FilterTable(const Table& input, const Column& predicate,
                             const MorselPolicy& policy = {});

/// Extracts the indices of true rows (shared by FilterTable and callers
/// that want the selection vector itself). Parallel path scans each morsel
/// into a local vector, then splices the locals at exact prefix offsets —
/// one sized allocation, no reallocation, and the same vector the serial
/// scan produces.
Result<std::vector<uint32_t>> SelectionIndices(const Column& predicate,
                                               size_t num_rows,
                                               const MorselPolicy& policy = {});

/// Gathers `indices` rows out of every column of `input`, parallel over
/// (column × index-morsel) work items. Shared by FilterTable and SortTable.
Result<TablePtr> GatherRows(const Table& input,
                            const std::vector<uint32_t>& indices,
                            const MorselPolicy& policy = {});

}  // namespace mlcs::exec

#endif  // MLCS_EXEC_FILTER_H_
