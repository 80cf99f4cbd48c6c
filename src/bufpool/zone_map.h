#ifndef MLCS_BUFPOOL_ZONE_MAP_H_
#define MLCS_BUFPOOL_ZONE_MAP_H_

#include <cstdint>
#include <string>

#include "storage/column.h"
#include "types/value.h"

namespace mlcs::bufpool {

/// Comparison shapes the planner can prove against a block's min/max
/// summary. Deliberately decoupled from exec::BinOpKind so the storage
/// layer never depends on the execution engine's operator enum.
enum class ZoneOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// One pushed-down `column <op> literal` predicate, as extracted by the
/// planner from a filter directly above a scan. Only ever used to *skip*
/// blocks — the full filter still runs above the scan, so an ignored or
/// unprovable predicate costs correctness nothing.
struct ZonePredicate {
  std::string column;  // lower-cased
  ZoneOp op = ZoneOp::kEq;
  Value literal;
};

/// Per-column, per-block summary written at flush time: null count plus
/// min/max over the non-null values. `has_minmax` is false for BLOB
/// columns, all-null columns, and DOUBLE columns containing NaN (whose
/// ordering min/max cannot summarize).
struct ZoneMap {
  uint64_t null_count = 0;
  bool has_minmax = false;
  Value min;
  Value max;
};

/// Summarizes one column (one block's worth of rows) at flush time.
ZoneMap ComputeZoneMap(const Column& column);

/// True when some row in a block of `block_rows` rows summarized by `zone`
/// *could* satisfy `<op> literal` — i.e. the block cannot be skipped on
/// this predicate. Fails open (returns true) whenever the comparison is
/// not provably decidable from min/max alone: type mismatches, NaN
/// literals, and int/double comparisons beyond 2^53 where double rounding
/// could flip an inequality. Comparisons against a NULL literal are never
/// TRUE in SQL, so those — and all-null blocks — admit nothing.
[[nodiscard]] bool ZoneAdmits(const ZoneMap& zone, uint64_t block_rows,
                              ZoneOp op, const Value& literal);

/// Process-wide toggle for zone-map block skipping (default on). The
/// ablation grid flips it to measure blocks read with and without
/// skipping.
bool ZoneMapSkippingEnabled();
void SetZoneMapSkippingEnabled(bool enabled);

}  // namespace mlcs::bufpool

#endif  // MLCS_BUFPOOL_ZONE_MAP_H_
