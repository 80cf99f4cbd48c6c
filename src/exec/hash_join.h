#ifndef MLCS_EXEC_HASH_JOIN_H_
#define MLCS_EXEC_HASH_JOIN_H_

#include <vector>

#include "common/parallel_for.h"
#include "common/result.h"
#include "storage/table.h"

namespace mlcs::exec {

enum class JoinType { kInner, kLeft };

/// Equi-join of two tables on one or more key column pairs
/// (left_keys[i] = right_keys[i]). Builds a hash table on the right input,
/// probes with the left (so put the smaller relation on the right — in the
/// voter pipeline that is the 2 751-row precincts table).
///
/// Output schema: all left columns followed by all right columns; right
/// column names that collide with a left name get a "_r" suffix. For
/// kLeft, unmatched left rows appear once with NULL right columns.
/// NULL keys never match (SQL semantics). When the probe emits every left
/// row exactly once and in order (unique build keys that every probe row
/// matches, or a LEFT join over unique build keys), the output shares the
/// left input's columns instead of gathering copies.
///
/// Parallel plan on the policy's pool: morsel-parallel key hashing, a
/// hash-partitioned build (one task per partition, partition chosen by the
/// hash's high bits), a morsel-parallel probe whose per-morsel match lists
/// splice in morsel order, and per-column output materialization. Matches
/// for one probe row are emitted in ascending right-row order, so output
/// is bit-identical at every thread count.
Result<TablePtr> HashJoin(const Table& left, const Table& right,
                          const std::vector<std::string>& left_keys,
                          const std::vector<std::string>& right_keys,
                          JoinType type = JoinType::kInner,
                          const MorselPolicy& policy = {});

}  // namespace mlcs::exec

#endif  // MLCS_EXEC_HASH_JOIN_H_
