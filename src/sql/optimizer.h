#ifndef MLCS_SQL_OPTIMIZER_H_
#define MLCS_SQL_OPTIMIZER_H_

#include <functional>

#include "sql/plan.h"
#include "storage/catalog.h"

namespace mlcs::sql {

/// Hooks the rule engine needs from its host. `eval_constant` must be pure
/// for the expressions it is given (the folder only hands it literal-only
/// trees, so it never executes subqueries or UDFs).
struct OptimizerContext {
  Catalog* catalog = nullptr;
  std::function<Result<Value>(const SqlExpr&)> eval_constant;
};

/// Rewrites a bound logical plan in place; the executor's optimizer switch
/// (Database::set_optimizer_enabled) turns all four rules on or off
/// together. Rules run in a fixed order:
///
///   1. Constant folding — literal-only filter conjuncts collapse to
///      literals via `eval_constant`; filters reduced to TRUE disappear.
///   2. Predicate pushdown — WHERE conjuncts above a join are split on AND
///      and moved to the side whose columns they reference (both sides for
///      inner joins; only the preserved left side for LEFT joins, since
///      filtering the nullable side below the join would change results).
///      Conjuncts that straddle sides, reference renamed ("_r") columns,
///      or reference no columns stay put.
///   3. Aggregate pushdown below a join — a grouped COUNT/integer-SUM
///      statistics query over a single-key inner fact⋈dim join is rewritten
///      so the fact side collapses to per-(group keys, join key) partial
///      aggregates before the join, and the aggregate above it folds the
///      partials with SUM — the relational half of factorized ML training
///      (DESIGN.md §14).
///   4. Projection pruning — each scan is narrowed to the columns its
///      SELECT scope references (select list, WHERE/HAVING, GROUP BY,
///      ORDER BY, join keys). `SELECT *` anywhere in the scope disables
///      pruning for that scope; a scope referencing no scan columns (e.g.
///      `SELECT COUNT(*)`) keeps the narrowest column so row counts
///      survive.
///
/// Every rule is semantics-preserving on results: optimized and
/// unoptimized plans return bit-identical tables (the property suite
/// enforces this). Rules never fail — anything uncertain is left as-is
/// ("fail open") and the runtime reports errors exactly as the
/// interpreted executor did.
void OptimizePlan(BoundPlan* plan, const OptimizerContext& ctx);

}  // namespace mlcs::sql

#endif  // MLCS_SQL_OPTIMIZER_H_
