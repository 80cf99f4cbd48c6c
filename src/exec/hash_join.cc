#include "exec/hash_join.h"

#include <cstdint>
#include <unordered_map>

#include "exec/kernels.h"

namespace mlcs::exec {

namespace {

inline constexpr uint32_t kChainEnd = UINT32_MAX;

/// Row hashes for the given key columns of a table, computed morsel-parallel
/// (each morsel owns a disjoint slice of the hash vector).
Result<std::vector<uint64_t>> KeyHashes(
    const Table& table, const std::vector<std::string>& keys,
    std::vector<ColumnPtr>* key_cols, const MorselPolicy& policy) {
  std::vector<uint64_t> hashes(table.num_rows(), kHashSeed);
  for (const auto& key : keys) {
    MLCS_ASSIGN_OR_RETURN(ColumnPtr col, table.ColumnByName(key));
    key_cols->push_back(std::move(col));
  }
  MLCS_RETURN_IF_ERROR(ParallelMorsels(
      policy, table.num_rows(),
      [&](size_t, size_t begin, size_t end) -> Status {
        for (const auto& col : *key_cols) {
          HashCombineColumnRange(*col, begin, end, &hashes);
        }
        return Status::OK();
      }));
  return hashes;
}

bool KeysEqual(const std::vector<ColumnPtr>& left_cols, size_t li,
               const std::vector<ColumnPtr>& right_cols, size_t ri) {
  for (size_t k = 0; k < left_cols.size(); ++k) {
    if (!CellEquals(*left_cols[k], li, *right_cols[k], ri)) return false;
  }
  return true;
}

bool AnyKeyNull(const std::vector<ColumnPtr>& cols, size_t row) {
  for (const auto& c : cols) {
    if (c->IsNull(row)) return true;
  }
  return false;
}

/// Partition index from the hash's high byte. The maps below bucket by the
/// low bits (modulo bucket count), so high-bit partitioning keeps per-map
/// chains as well distributed as a single global map's.
inline size_t PartitionOf(uint64_t hash, size_t num_partitions) {
  return (hash >> 56) & (num_partitions - 1);
}

}  // namespace

Result<TablePtr> HashJoin(const Table& left, const Table& right,
                          const std::vector<std::string>& left_keys,
                          const std::vector<std::string>& right_keys,
                          JoinType type, const MorselPolicy& policy) {
  if (left_keys.size() != right_keys.size() || left_keys.empty()) {
    return Status::InvalidArgument(
        "join requires equal, non-empty key lists");
  }
  std::vector<ColumnPtr> lcols, rcols;
  MLCS_ASSIGN_OR_RETURN(std::vector<uint64_t> lhash,
                        KeyHashes(left, left_keys, &lcols, policy));
  MLCS_ASSIGN_OR_RETURN(std::vector<uint64_t> rhash,
                        KeyHashes(right, right_keys, &rcols, policy));
  for (size_t k = 0; k < lcols.size(); ++k) {
    if (lcols[k]->type() != rcols[k]->type()) {
      return Status::TypeMismatch(
          "join key type mismatch on '" + left_keys[k] + "': " +
          TypeIdToString(lcols[k]->type()) + " vs " +
          TypeIdToString(rcols[k]->type()));
    }
  }

  // Build: hash-partitioned chained table over right rows. `first[p]` maps a
  // hash to the lowest right row with that hash; `next` threads the rest in
  // ascending row order (rows are inserted descending with push-front).
  // Every row of one hash lands in one partition, so chain order — and
  // therefore match order — does not depend on the partition count.
  size_t right_rows = right.num_rows();
  size_t partitions = 1;
  if (ShouldParallelize(policy, right_rows)) {
    while (partitions < policy.threads() && partitions < 16) {
      partitions <<= 1;
    }
  }
  std::vector<uint32_t> next(right_rows, kChainEnd);
  std::vector<std::unordered_map<uint64_t, uint32_t>> first(partitions);
  MLCS_RETURN_IF_ERROR(ParallelItems(
      policy, partitions, [&](size_t p) -> Status {
        auto& map = first[p];
        map.reserve(right_rows / partitions + 1);
        for (size_t r = right_rows; r-- > 0;) {
          if (PartitionOf(rhash[r], partitions) != p) continue;
          if (AnyKeyNull(rcols, r)) continue;  // NULL keys never match
          auto [it, inserted] =
              map.try_emplace(rhash[r], static_cast<uint32_t>(r));
          if (!inserted) {
            next[r] = it->second;
            it->second = static_cast<uint32_t>(r);
          }
        }
        return Status::OK();
      }));

  // Probe: per-morsel match lists, spliced in morsel order.
  size_t left_rows = left.num_rows();
  struct ProbeOut {
    std::vector<uint32_t> l;
    std::vector<int64_t> r;
  };
  std::vector<ProbeOut> probe_parts(NumMorsels(policy, left_rows));
  MLCS_RETURN_IF_ERROR(ParallelMorsels(
      policy, left_rows, [&](size_t m, size_t begin, size_t end) -> Status {
        ProbeOut& out = probe_parts[m];
        out.l.reserve(end - begin);
        out.r.reserve(end - begin);
        for (size_t l = begin; l < end; ++l) {
          bool matched = false;
          if (!AnyKeyNull(lcols, l)) {
            const auto& map = first[PartitionOf(lhash[l], partitions)];
            auto it = map.find(lhash[l]);
            if (it != map.end()) {
              for (uint32_t r = it->second; r != kChainEnd; r = next[r]) {
                if (KeysEqual(lcols, l, rcols, r)) {
                  out.l.push_back(static_cast<uint32_t>(l));
                  out.r.push_back(r);
                  matched = true;
                }
              }
            }
          }
          if (!matched && type == JoinType::kLeft) {
            out.l.push_back(static_cast<uint32_t>(l));
            out.r.push_back(-1);
          }
        }
        return Status::OK();
      }));
  size_t total = 0;
  for (const auto& p : probe_parts) total += p.l.size();
  std::vector<uint32_t> out_left;
  std::vector<int64_t> out_right;
  out_left.reserve(total);
  out_right.reserve(total);
  for (const auto& p : probe_parts) {
    out_left.insert(out_left.end(), p.l.begin(), p.l.end());
    out_right.insert(out_right.end(), p.r.begin(), p.r.end());
  }

  // Identity probe (every left row emitted exactly once, in order — e.g. a
  // fact table joined to a dimension on its unique key): the left columns
  // pass through shared instead of being gathered into copies.
  bool left_identity = out_left.size() == left_rows;
  for (size_t i = 0; left_identity && i < left_rows; ++i) {
    left_identity = out_left[i] == i;
  }

  // Materialize output columns, one gather task per column.
  Schema schema;
  for (size_t c = 0; c < left.num_columns(); ++c) {
    schema.AddField(left.schema().field(c).name, left.schema().field(c).type);
  }
  for (size_t c = 0; c < right.num_columns(); ++c) {
    std::string name = right.schema().field(c).name;
    if (schema.FieldIndex(name).has_value()) name += "_r";
    schema.AddField(std::move(name), right.schema().field(c).type);
  }
  size_t ncols = left.num_columns() + right.num_columns();
  std::vector<ColumnPtr> columns(ncols);
  MLCS_RETURN_IF_ERROR(ParallelItems(
      policy, ncols, [&](size_t c) -> Status {
        if (c < left.num_columns()) {
          columns[c] = left_identity ? left.column(c)
                                     : left.column(c)->Take(out_left);
        } else {
          columns[c] =
              TakeOrNull(*right.column(c - left.num_columns()), out_right);
        }
        return Status::OK();
      }));
  auto out = std::make_shared<Table>(std::move(schema), std::move(columns));
  MLCS_RETURN_IF_ERROR(out->Validate());
  return out;
}

}  // namespace mlcs::exec
