#include "exec/aggregate.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/string_util.h"
#include "exec/kernels.h"

namespace mlcs::exec {

Result<AggOp> AggOpFromName(std::string_view name, bool is_star) {
  if (EqualsIgnoreCase(name, "count")) {
    return is_star ? AggOp::kCountStar : AggOp::kCount;
  }
  if (is_star) {
    return Status::InvalidArgument("only COUNT supports '*'");
  }
  if (EqualsIgnoreCase(name, "sum")) return AggOp::kSum;
  if (EqualsIgnoreCase(name, "stddev") ||
      EqualsIgnoreCase(name, "stddev_pop")) {
    return AggOp::kStdDev;
  }
  if (EqualsIgnoreCase(name, "avg")) return AggOp::kAvg;
  if (EqualsIgnoreCase(name, "min")) return AggOp::kMin;
  if (EqualsIgnoreCase(name, "max")) return AggOp::kMax;
  return Status::NotFound("unknown aggregate function '" + std::string(name) +
                          "'");
}

const char* AggOpToString(AggOp op) {
  switch (op) {
    case AggOp::kCountStar:
      return "COUNT(*)";
    case AggOp::kCount:
      return "COUNT";
    case AggOp::kSum:
      return "SUM";
    case AggOp::kAvg:
      return "AVG";
    case AggOp::kMin:
      return "MIN";
    case AggOp::kMax:
      return "MAX";
    case AggOp::kStdDev:
      return "STDDEV";
  }
  return "?";
}

namespace {

/// Per-group accumulator, generic across the numeric aggregate ops. Kept
/// free of std::string members on purpose: the morsel-parallel pass
/// allocates one accumulator per (aggregate, local group, morsel), so this
/// struct being trivially destructible is what keeps small-group morsels
/// cheap. VARCHAR MIN/MAX state lives in the side-car StrState, allocated
/// only for string aggregates.
struct Accumulator {
  int64_t count = 0;        // non-null inputs seen (or rows for COUNT(*))
  double sum = 0;           // numeric running sum
  double sum_sq = 0;        // running sum of squares (STDDEV)
  int64_t isum = 0;         // integer running sum (exact SUM for int types)
  double dmin = std::numeric_limits<double>::infinity();
  double dmax = -std::numeric_limits<double>::infinity();
  bool has_value = false;
};

struct StrState {
  std::string smin, smax;  // valid iff the matching Accumulator.has_value
};

TypeId OutputTypeFor(AggOp op, TypeId input) {
  switch (op) {
    case AggOp::kCountStar:
    case AggOp::kCount:
      return TypeId::kInt64;
    case AggOp::kSum:
      return input == TypeId::kDouble ? TypeId::kDouble : TypeId::kInt64;
    case AggOp::kAvg:
    case AggOp::kStdDev:
      return TypeId::kDouble;
    case AggOp::kMin:
    case AggOp::kMax:
      return input;
  }
  return TypeId::kDouble;
}

/// Folds a morsel-local accumulator into the group's global one. Addition
/// order is (morsel asc, local group asc), fixed by the merge loop, so the
/// folded doubles do not depend on the thread count.
void MergeInto(Accumulator* g, const Accumulator& l) {
  g->count += l.count;
  g->sum += l.sum;
  g->sum_sq += l.sum_sq;
  g->isum += l.isum;
  if (l.has_value) {
    if (l.dmin < g->dmin) g->dmin = l.dmin;
    if (l.dmax > g->dmax) g->dmax = l.dmax;
    g->has_value = true;
  }
}

/// String side-car merge; `g_had_value` is the global has_value from before
/// the numeric merge folded this local in.
void MergeStrInto(StrState* g, bool g_had_value, const StrState& l) {
  if (!g_had_value || l.smin < g->smin) g->smin = l.smin;
  if (!g_had_value || l.smax > g->smax) g->smax = l.smax;
}

/// Hash-to-group-id resolution shared by the morsel-local pass and the
/// global merge. Representatives are absolute input rows, so CellEquals
/// works identically for both. Open addressing over a flat slot array —
/// a node-based map here costs one malloc per group per morsel, which at
/// 16K-row morsels dominated the whole operator.
struct GroupSet {
  struct Slot {
    uint64_t hash = 0;
    uint32_t gid = UINT32_MAX;  // UINT32_MAX = empty
  };
  std::vector<Slot> slots;
  std::vector<uint32_t> rep;  // gid → first input row
  size_t mask = 0;

  uint32_t Resolve(uint64_t hash, size_t row,
                   const std::vector<ColumnPtr>& key_cols) {
    if (slots.empty() || rep.size() * 2 >= slots.size()) Grow();
    size_t slot = hash & mask;
    while (slots[slot].gid != UINT32_MAX) {
      if (slots[slot].hash == hash) {
        size_t r = rep[slots[slot].gid];
        bool equal = true;
        for (const auto& col : key_cols) {
          if (!CellEquals(*col, row, *col, r)) {
            equal = false;
            break;
          }
        }
        if (equal) return slots[slot].gid;
      }
      slot = (slot + 1) & mask;
    }
    uint32_t gid = static_cast<uint32_t>(rep.size());
    rep.push_back(static_cast<uint32_t>(row));
    slots[slot] = {hash, gid};
    return gid;
  }

 private:
  void Grow() {
    size_t cap = slots.empty() ? 64 : slots.size() * 2;
    std::vector<Slot> old = std::move(slots);
    slots.assign(cap, Slot{});
    mask = cap - 1;
    for (const Slot& s : old) {
      if (s.gid == UINT32_MAX) continue;
      size_t slot = s.hash & mask;
      while (slots[slot].gid != UINT32_MAX) slot = (slot + 1) & mask;
      slots[slot] = s;
    }
  }
};

/// Pre-extracted aggregate input (the double view is materialized once,
/// outside the morsel loop).
struct AggInput {
  const Column* col = nullptr;
  bool is_string = false;
  std::vector<double> numeric;
  const std::vector<int32_t>* i32 = nullptr;
  const std::vector<int64_t>* i64 = nullptr;
};

/// Aggregation morsels are 16× the policy width. Each morsel pays for a
/// local group table plus a per-group merge, so the efficient grain is
/// coarser than for element-wise operators; at the default 16K policy this
/// gives 256K-row grains, where the measured single-thread overhead vs one
/// big morsel is ~0. Still a pure function of the policy width — never of
/// the thread count — so results stay identical at every parallelism.
constexpr size_t kAggMorselScale = 16;

}  // namespace

Result<TablePtr> HashGroupBy(const Table& input,
                             const std::vector<std::string>& group_keys,
                             const std::vector<AggSpec>& aggregates,
                             const MorselPolicy& base_policy) {
  MorselPolicy policy = base_policy;
  size_t base_rows = std::max<size_t>(1, base_policy.morsel_rows);
  policy.morsel_rows = base_rows < SIZE_MAX / kAggMorselScale
                           ? base_rows * kAggMorselScale
                           : SIZE_MAX;
  size_t n = input.num_rows();

  // COUNT(*) alone with no grouping is the row count: no column is read.
  bool count_only =
      group_keys.empty() && !aggregates.empty() &&
      std::all_of(aggregates.begin(), aggregates.end(), [](const AggSpec& a) {
        return a.op == AggOp::kCountStar;
      });
  if (count_only) {
    Schema schema;
    std::vector<ColumnPtr> out_cols;
    for (const AggSpec& spec : aggregates) {
      schema.AddField(spec.output_name, TypeId::kInt64);
      out_cols.push_back(Column::FromInt64({static_cast<int64_t>(n)}));
    }
    return std::make_shared<Table>(std::move(schema), std::move(out_cols));
  }

  std::vector<ColumnPtr> key_cols;
  for (const auto& key : group_keys) {
    MLCS_ASSIGN_OR_RETURN(ColumnPtr col, input.ColumnByName(key));
    key_cols.push_back(std::move(col));
  }

  // Hash the keys morsel-parallel.
  std::vector<uint64_t> hashes;
  if (!group_keys.empty()) {
    hashes.assign(n, kHashSeed);
    MLCS_RETURN_IF_ERROR(ParallelMorsels(
        policy, n, [&](size_t, size_t begin, size_t end) -> Status {
          for (const auto& col : key_cols) {
            HashCombineColumnRange(*col, begin, end, &hashes);
          }
          return Status::OK();
        }));
  }

  // Resolve aggregate input columns.
  std::vector<ColumnPtr> agg_cols(aggregates.size());
  for (size_t a = 0; a < aggregates.size(); ++a) {
    if (aggregates[a].op == AggOp::kCountStar) continue;
    MLCS_ASSIGN_OR_RETURN(agg_cols[a],
                          input.ColumnByName(aggregates[a].input_column));
    TypeId t = agg_cols[a]->type();
    bool numeric_needed = aggregates[a].op == AggOp::kSum ||
                          aggregates[a].op == AggOp::kAvg ||
                          aggregates[a].op == AggOp::kStdDev;
    if (numeric_needed && !IsNumericType(t)) {
      return Status::TypeMismatch(std::string(AggOpToString(aggregates[a].op)) +
                                  " requires a numeric column, got " +
                                  TypeIdToString(t));
    }
    if ((aggregates[a].op == AggOp::kMin || aggregates[a].op == AggOp::kMax) &&
        t == TypeId::kBlob) {
      return Status::TypeMismatch("MIN/MAX not supported on BLOB");
    }
  }

  // Materialize the double view of each numeric aggregate input up front,
  // one task per aggregate (ToDoubleVector is an O(n) copy).
  std::vector<AggInput> agg_inputs(aggregates.size());
  MLCS_RETURN_IF_ERROR(ParallelItems(
      policy, aggregates.size(), [&](size_t a) -> Status {
        if (aggregates[a].op == AggOp::kCountStar) return Status::OK();
        AggInput& in = agg_inputs[a];
        const Column& col = *agg_cols[a];
        in.col = &col;
        in.is_string = col.type() == TypeId::kVarchar;
        if (!in.is_string) {
          MLCS_ASSIGN_OR_RETURN(in.numeric, col.ToDoubleVector());
        }
        if (col.type() == TypeId::kInt32) in.i32 = &col.i32_data();
        if (col.type() == TypeId::kInt64) in.i64 = &col.i64_data();
        return Status::OK();
      }));

  // Morsel-local aggregation. This ALWAYS goes through per-morsel partials
  // (even on one thread): boundaries are fixed, so the double-precision
  // accumulation order is the same at every thread count.
  struct LocalGroups {
    GroupSet groups;
    std::vector<std::vector<Accumulator>> accs;  // [aggregate][local gid]
    std::vector<std::vector<StrState>> strs;     // only for string aggs
  };
  bool any_string = false;
  for (const AggInput& in : agg_inputs) any_string |= in.is_string;
  std::vector<LocalGroups> locals(NumMorsels(policy, n));
  MLCS_RETURN_IF_ERROR(ParallelMorsels(
      policy, n, [&](size_t m, size_t begin, size_t end) -> Status {
        LocalGroups& lg = locals[m];
        std::vector<uint32_t> lgid(end - begin, 0);
        if (group_keys.empty()) {
          lg.groups.rep.push_back(static_cast<uint32_t>(begin));
        } else {
          for (size_t row = begin; row < end; ++row) {
            lgid[row - begin] = lg.groups.Resolve(hashes[row], row, key_cols);
          }
        }
        size_t local_groups = lg.groups.rep.size();
        lg.accs.assign(aggregates.size(),
                       std::vector<Accumulator>(local_groups));
        if (any_string) lg.strs.resize(aggregates.size());
        for (size_t a = 0; a < aggregates.size(); ++a) {
          auto& acc = lg.accs[a];
          if (aggregates[a].op == AggOp::kCountStar) {
            for (size_t row = begin; row < end; ++row) {
              ++acc[lgid[row - begin]].count;
            }
            continue;
          }
          const AggInput& in = agg_inputs[a];
          const Column& col = *in.col;
          if (in.is_string) {
            auto& str = lg.strs[a];
            str.resize(local_groups);
            for (size_t row = begin; row < end; ++row) {
              if (col.IsNull(row)) continue;
              Accumulator& g = acc[lgid[row - begin]];
              StrState& gs = str[lgid[row - begin]];
              ++g.count;
              g.has_value = true;
              const std::string& s = col.str_data()[row];
              if (g.count == 1 || s < gs.smin) gs.smin = s;
              if (g.count == 1 || s > gs.smax) gs.smax = s;
            }
            continue;
          }
          for (size_t row = begin; row < end; ++row) {
            if (col.IsNull(row)) continue;
            Accumulator& g = acc[lgid[row - begin]];
            ++g.count;
            g.has_value = true;
            double v = in.numeric[row];
            g.sum += v;
            g.sum_sq += v * v;
            if (in.i32 != nullptr) g.isum += (*in.i32)[row];
            if (in.i64 != nullptr) g.isum += (*in.i64)[row];
            if (col.type() == TypeId::kBool) g.isum += col.bool_data()[row];
            if (v < g.dmin) g.dmin = v;
            if (v > g.dmax) g.dmax = v;
          }
        }
        return Status::OK();
      }));

  // Serial merge in (morsel asc, local gid asc) order. Globals are created
  // in that order, which is exactly the serial first-seen group order, and
  // each global representative is the group's overall first row.
  GroupSet global;
  std::vector<std::vector<Accumulator>> accs(aggregates.size());
  std::vector<std::vector<StrState>> strs(aggregates.size());
  if (group_keys.empty()) {
    global.rep.push_back(0);
    for (auto& v : accs) v.resize(1);
    for (auto& v : strs) v.resize(1);
  }
  for (const LocalGroups& lg : locals) {
    for (size_t l = 0; l < lg.groups.rep.size(); ++l) {
      uint32_t gid = 0;
      if (!group_keys.empty()) {
        uint32_t rrow = lg.groups.rep[l];
        gid = global.Resolve(hashes[rrow], rrow, key_cols);
        for (auto& v : accs) {
          if (v.size() < global.rep.size()) v.resize(global.rep.size());
        }
        if (any_string) {
          for (auto& v : strs) {
            if (v.size() < global.rep.size()) v.resize(global.rep.size());
          }
        }
      }
      for (size_t a = 0; a < aggregates.size(); ++a) {
        const Accumulator& local_acc = lg.accs[a][l];
        Accumulator* global_acc = &accs[a][gid];
        bool had_value = global_acc->has_value;
        MergeInto(global_acc, local_acc);
        if (agg_inputs[a].is_string && local_acc.has_value) {
          MergeStrInto(&strs[a][gid], had_value, lg.strs[a][l]);
        }
      }
    }
  }
  size_t num_groups = global.rep.size();
  const std::vector<uint32_t>& representative_row = global.rep;

  // Emit output table: key columns then aggregate columns.
  Schema schema;
  std::vector<ColumnPtr> out_cols;
  if (!group_keys.empty()) {
    for (size_t k = 0; k < key_cols.size(); ++k) {
      schema.AddField(group_keys[k], key_cols[k]->type());
      out_cols.push_back(key_cols[k]->Take(representative_row));
    }
  }
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const AggSpec& spec = aggregates[a];
    TypeId input_type =
        spec.op == AggOp::kCountStar ? TypeId::kInt64 : agg_cols[a]->type();
    TypeId out_type = OutputTypeFor(spec.op, input_type);
    ColumnPtr col = Column::Make(out_type);
    col->Reserve(num_groups);
    for (size_t g = 0; g < num_groups; ++g) {
      const Accumulator& acc = accs[a][g];
      switch (spec.op) {
        case AggOp::kCountStar:
        case AggOp::kCount:
          col->AppendInt64(acc.count);
          break;
        case AggOp::kSum:
          if (!acc.has_value) {
            col->AppendNull();
          } else if (out_type == TypeId::kInt64) {
            col->AppendInt64(acc.isum);
          } else {
            col->AppendDouble(acc.sum);
          }
          break;
        case AggOp::kAvg:
          if (!acc.has_value) {
            col->AppendNull();
          } else {
            col->AppendDouble(acc.sum / static_cast<double>(acc.count));
          }
          break;
        case AggOp::kStdDev:
          if (!acc.has_value) {
            col->AppendNull();
          } else {
            double n = static_cast<double>(acc.count);
            double mean = acc.sum / n;
            double var = acc.sum_sq / n - mean * mean;
            col->AppendDouble(std::sqrt(std::max(0.0, var)));
          }
          break;
        case AggOp::kMin:
        case AggOp::kMax: {
          if (!acc.has_value) {
            col->AppendNull();
            break;
          }
          bool is_min = spec.op == AggOp::kMin;
          if (input_type == TypeId::kVarchar) {
            const StrState& str = strs[a][g];
            col->AppendString(is_min ? str.smin : str.smax);
          } else {
            double v = is_min ? acc.dmin : acc.dmax;
            switch (out_type) {
              case TypeId::kBool:
                col->AppendBool(v != 0);
                break;
              case TypeId::kInt32:
                col->AppendInt32(static_cast<int32_t>(v));
                break;
              case TypeId::kInt64:
                col->AppendInt64(static_cast<int64_t>(v));
                break;
              default:
                col->AppendDouble(v);
                break;
            }
          }
          break;
        }
      }
    }
    schema.AddField(spec.output_name, out_type);
    out_cols.push_back(std::move(col));
  }
  auto out = std::make_shared<Table>(std::move(schema), std::move(out_cols));
  MLCS_RETURN_IF_ERROR(out->Validate());
  return out;
}

}  // namespace mlcs::exec
