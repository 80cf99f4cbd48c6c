#ifndef MLCS_SQL_EXECUTOR_H_
#define MLCS_SQL_EXECUTOR_H_

#include <memory>
#include <string>

#include "common/parallel_for.h"
#include "common/result.h"
#include "exec/expression.h"
#include "sql/ast.h"
#include "sql/planner.h"
#include "storage/catalog.h"
#include "udf/udf.h"

namespace mlcs::sql {

/// Thin driver over the plan stack: statements are bound into a logical
/// plan (planner.h), rewritten by the rule-based optimizer (optimizer.h),
/// lowered onto physical operators (plan.h / exec/operator.h), and run.
/// The relational operators execute morsel-parallel under `policy()` — by
/// default the global pool, whose size MLCS_THREADS controls.
class Executor {
 public:
  Executor(Catalog* catalog, udf::UdfRegistry* udfs)
      : catalog_(catalog), udfs_(udfs) {}

  /// Morsel scheduling policy handed to every relational operator this
  /// executor invokes (filter, join, group-by, sort).
  const MorselPolicy& policy() const { return policy_; }
  void set_policy(const MorselPolicy& policy) { policy_ = policy; }

  /// Toggles the rewrite rules (constant folding, predicate pushdown,
  /// projection pruning). Off still goes through the plan stack, just
  /// without rewrites — the shape the interpreted executor ran. Results
  /// are bit-identical either way (the optimizer-parity suite enforces
  /// it).
  bool optimizer_enabled() const { return optimizer_enabled_; }
  void set_optimizer_enabled(bool enabled) { optimizer_enabled_ = enabled; }

  Catalog* catalog() const { return catalog_; }
  udf::UdfRegistry* udfs() const { return udfs_; }

  /// Runs one statement; DDL/DML return a status table (DML adds a second
  /// `rows BIGINT` column with the affected-row count).
  Result<TablePtr> Execute(const Statement& stmt);
  /// plan → optimize → run for one SELECT.
  Result<TablePtr> ExecuteSelect(const SelectStatement& select);
  /// Bind + optimize + build, without running (EXPLAIN, Prepare). Never
  /// executes anything. The statement must outlive the returned plan.
  Result<PlannedSelect> PlanSelect(const SelectStatement& select);

  /// Plans a parsed SELECT into a self-contained cacheable unit (takes
  /// ownership of the AST so the plan's borrowed pointers stay valid).
  /// Errors if `stmt` is not a SELECT.
  Result<std::shared_ptr<const PreparedSelect>> Prepare(Statement stmt);
  /// Executes a prepared plan. Const and thread-safe: concurrent callers
  /// may share one PreparedSelect.
  static Result<TablePtr> RunPrepared(const PreparedSelect& prepared);

  /// -- Expression path (shared with the physical operators) ---------------

  /// Lowers a SQL expression into a vectorized exec expression, resolving
  /// scalar subqueries to literals on the way (so it may execute; never
  /// call during planning).
  Result<exec::ExprPtr> Lower(const SqlExpr& e);
  Result<Value> EvaluateScalarSubquery(const SelectStatement& select);
  /// Evaluates an expression with no row source (literals, scalar
  /// subqueries, scalar UDFs of constants).
  Result<Value> EvaluateConstant(const SqlExpr& e);
  exec::EvalContext MakeContext(const Table* input) const;

 private:
  Result<TablePtr> ExecuteCreateTable(const CreateTableStmt& stmt);
  Result<TablePtr> ExecuteInsert(const InsertStmt& stmt);
  Result<TablePtr> ExecuteDrop(const DropStmt& stmt);
  Result<TablePtr> ExecuteCreateFunction(const CreateFunctionStmt& stmt);
  Result<TablePtr> ExecuteDelete(const DeleteStmt& stmt);
  Result<TablePtr> ExecuteUpdate(const UpdateStmt& stmt);

  static TablePtr StatusTable(const std::string& message);
  /// DML status: column 0 keeps the classic "VERB n" message, column 1
  /// reports the affected-row count as BIGINT.
  static TablePtr DmlStatusTable(const std::string& verb, size_t rows);

  /// Textual plan rendering for EXPLAIN. SELECTs render the optimized
  /// physical plan; planning never executes, so EXPLAIN stays side-effect
  /// free.
  Result<std::string> RenderPlan(const Statement& stmt);
  /// EXPLAIN ANALYZE: executes a SELECT under a forced trace context and
  /// renders the physical tree annotated with per-node actual time / rows
  /// (from the execution's spans), plus a total-time footer.
  Result<std::string> RenderAnalyzedPlan(const Statement& stmt);

  Catalog* catalog_;
  udf::UdfRegistry* udfs_;
  MorselPolicy policy_;
  bool optimizer_enabled_ = true;
};

}  // namespace mlcs::sql

#endif  // MLCS_SQL_EXECUTOR_H_
