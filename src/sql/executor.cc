#include "sql/executor.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "common/string_util.h"
#include "obs/trace.h"
#include "exec/operator.h"
#include "sql/optimizer.h"
#include "sql/plan.h"
#include "vscript/vs_interpreter.h"
#include "vscript/vs_parser.h"

namespace mlcs::sql {

TablePtr Executor::StatusTable(const std::string& message) {
  Schema s;
  s.AddField("status", TypeId::kVarchar);
  auto t = Table::Make(std::move(s));
  (void)t->AppendRow({Value::Varchar(message)});
  return t;
}

TablePtr Executor::DmlStatusTable(const std::string& verb, size_t rows) {
  Schema s;
  s.AddField("status", TypeId::kVarchar);
  s.AddField("rows", TypeId::kInt64);
  auto t = Table::Make(std::move(s));
  (void)t->AppendRow(
      {Value::Varchar(verb + " " + std::to_string(rows)),
       Value::Int64(static_cast<int64_t>(rows))});
  return t;
}

exec::EvalContext Executor::MakeContext(const Table* input) const {
  exec::EvalContext ctx;
  ctx.input = input;
  ctx.call_function = [this](const std::string& name,
                             const std::vector<ColumnPtr>& args,
                             size_t num_rows) -> Result<ColumnPtr> {
    return udfs_->CallScalar(name, args, num_rows);
  };
  return ctx;
}

Result<TablePtr> Executor::Execute(const Statement& stmt) {
  if (const auto* select = std::get_if<SelectStatement>(&stmt)) {
    return ExecuteSelect(*select);
  }
  if (const auto* create = std::get_if<CreateTableStmt>(&stmt)) {
    return ExecuteCreateTable(*create);
  }
  if (const auto* insert = std::get_if<InsertStmt>(&stmt)) {
    return ExecuteInsert(*insert);
  }
  if (const auto* drop = std::get_if<DropStmt>(&stmt)) {
    return ExecuteDrop(*drop);
  }
  if (const auto* fn = std::get_if<CreateFunctionStmt>(&stmt)) {
    return ExecuteCreateFunction(*fn);
  }
  if (const auto* del = std::get_if<DeleteStmt>(&stmt)) {
    return ExecuteDelete(*del);
  }
  if (const auto* update = std::get_if<UpdateStmt>(&stmt)) {
    return ExecuteUpdate(*update);
  }
  if (const auto* show = std::get_if<ShowStmt>(&stmt)) {
    Schema schema;
    schema.AddField("name", TypeId::kVarchar);
    auto out = Table::Make(std::move(schema));
    std::vector<std::string> names;
    if (show->what == ShowStmt::What::kTables) {
      names = catalog_->ListTables();
    } else {
      names = udfs_->ListScalar();
      for (auto& t : udfs_->ListTable()) names.push_back(t + " (table)");
    }
    for (const auto& name : names) {
      MLCS_RETURN_IF_ERROR(out->AppendRow({Value::Varchar(name)}));
    }
    return out;
  }
  if (const auto* describe = std::get_if<DescribeStmt>(&stmt)) {
    // Schema-only lookup: DESCRIBE must not materialize a stored table.
    MLCS_ASSIGN_OR_RETURN(Schema described,
                          catalog_->GetTableSchema(describe->table));
    Schema schema;
    schema.AddField("column", TypeId::kVarchar);
    schema.AddField("type", TypeId::kVarchar);
    auto out = Table::Make(std::move(schema));
    for (const auto& field : described.fields()) {
      MLCS_RETURN_IF_ERROR(
          out->AppendRow({Value::Varchar(field.name),
                          Value::Varchar(TypeIdToString(field.type))}));
    }
    return out;
  }
  if (const auto* explain =
          std::get_if<std::unique_ptr<ExplainStmt>>(&stmt)) {
    Schema schema;
    schema.AddField("plan", TypeId::kVarchar);
    auto out = Table::Make(std::move(schema));
    std::string plan;
    if ((*explain)->analyze) {
      MLCS_ASSIGN_OR_RETURN(plan, RenderAnalyzedPlan((*explain)->inner));
    } else {
      MLCS_ASSIGN_OR_RETURN(plan, RenderPlan((*explain)->inner));
    }
    for (const std::string& line : SplitString(plan, '\n')) {
      if (!line.empty()) {
        MLCS_RETURN_IF_ERROR(out->AppendRow({Value::Varchar(line)}));
      }
    }
    return out;
  }
  return Status::Internal("unknown statement kind");
}

/// -- Planning & SELECT execution ------------------------------------------

Result<PlannedSelect> Executor::PlanSelect(const SelectStatement& select) {
  obs::ScopedSpan plan_span("sql.plan");
  Planner planner(catalog_, this);
  PlannedSelect planned;
  MLCS_ASSIGN_OR_RETURN(planned.bound, planner.Bind(select));
  if (optimizer_enabled_) {
    obs::ScopedSpan optimize_span("sql.optimize");
    OptimizerContext octx;
    octx.catalog = catalog_;
    octx.eval_constant = [this](const SqlExpr& e) {
      return EvaluateConstant(e);
    };
    OptimizePlan(&planned.bound, octx);
  }
  MLCS_ASSIGN_OR_RETURN(planned.root,
                        planner.BuildPhysical(*planned.bound.root));
  return planned;
}

Result<TablePtr> Executor::ExecuteSelect(const SelectStatement& select) {
  MLCS_ASSIGN_OR_RETURN(PlannedSelect planned, PlanSelect(select));
  MLCS_ASSIGN_OR_RETURN(exec::OpResult out, planned.root->Run());
  return out.table;
}

Result<std::shared_ptr<const PreparedSelect>> Executor::Prepare(
    Statement stmt) {
  auto prepared = std::make_shared<PreparedSelect>();
  // Move the AST into its final home *before* binding: plan nodes borrow
  // pointers to the SelectStatement object itself.
  prepared->stmt = std::move(stmt);
  const auto* select = std::get_if<SelectStatement>(&prepared->stmt);
  if (select == nullptr) {
    return Status::InvalidArgument("Prepare expects a SELECT statement");
  }
  // Snapshot the version before planning so a concurrent DDL mid-plan can
  // only make the entry look older (safe: it re-plans), never newer.
  prepared->catalog_version = catalog_->schema_version();
  MLCS_ASSIGN_OR_RETURN(PlannedSelect planned, PlanSelect(*select));
  prepared->bound = std::move(planned.bound);
  prepared->root = std::move(planned.root);
  return std::shared_ptr<const PreparedSelect>(std::move(prepared));
}

Result<TablePtr> Executor::RunPrepared(const PreparedSelect& prepared) {
  MLCS_ASSIGN_OR_RETURN(exec::OpResult out, prepared.root->Run());
  return out.table;
}

Result<std::string> Executor::RenderAnalyzedPlan(const Statement& stmt) {
  const auto* select = std::get_if<SelectStatement>(&stmt);
  if (select == nullptr) {
    return Status::InvalidArgument(
        "EXPLAIN ANALYZE supports only SELECT statements");
  }
  MLCS_ASSIGN_OR_RETURN(PlannedSelect planned, PlanSelect(*select));
  // Forced context: ANALYZE traces this execution even with background
  // tracing off (and shadows the session's context when it is on, so the
  // annotations read only this query's spans).
  obs::TraceContext trace("explain analyze", /*force=*/true);
  auto wall_start = std::chrono::steady_clock::now();
  MLCS_ASSIGN_OR_RETURN(exec::OpResult result, planned.root->Run());
  double total_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
  // Aggregate spans per plan node: an operator may execute more than once
  // (e.g. under a re-entrant subquery), so times and rows accumulate.
  struct NodeTotals {
    double ms = 0.0;
    uint64_t rows = 0;
    std::string note;
  };
  std::unordered_map<const void*, NodeTotals> by_node;
  for (const obs::TraceSpan& span : trace.ConsumeSpans()) {
    if (span.op_token == nullptr) continue;
    NodeTotals& n = by_node[span.op_token];
    n.ms += static_cast<double>(span.duration.count()) / 1e6;
    n.rows += span.rows_out;
    if (n.note.empty() && !span.note.empty()) n.note = span.note;
  }
  exec::NodeAnnotator annotate =
      [&by_node](const exec::PhysicalOperator& op) -> std::string {
    auto it = by_node.find(&op);
    if (it == by_node.end()) return " (not executed)";
    char buf[96];
    std::snprintf(buf, sizeof(buf), " (actual time=%.3f ms, rows=%llu)",
                  it->second.ms,
                  static_cast<unsigned long long>(it->second.rows));
    std::string out = buf;
    if (!it->second.note.empty()) out += " [" + it->second.note + "]";
    return out;
  };
  std::string text = exec::RenderOperatorTree(*planned.root, 0, annotate);
  char footer[96];
  std::snprintf(footer, sizeof(footer), "Total: %.3f ms, %llu rows",
                total_ms,
                static_cast<unsigned long long>(result.table->num_rows()));
  return text + footer + "\n";
}

Result<std::string> Executor::RenderPlan(const Statement& stmt) {
  if (const auto* select = std::get_if<SelectStatement>(&stmt)) {
    MLCS_ASSIGN_OR_RETURN(PlannedSelect planned, PlanSelect(*select));
    return exec::RenderOperatorTree(*planned.root);
  }
  if (const auto* create = std::get_if<CreateTableStmt>(&stmt)) {
    if (create->as_select != nullptr) {
      MLCS_ASSIGN_OR_RETURN(PlannedSelect planned,
                            PlanSelect(*create->as_select));
      return "CREATE TABLE " + create->name + " AS\n" +
             exec::RenderOperatorTree(*planned.root, 2);
    }
    return "CREATE TABLE " + create->name + " " +
           create->schema.ToString() + "\n";
  }
  if (const auto* insert = std::get_if<InsertStmt>(&stmt)) {
    if (insert->select != nullptr) {
      MLCS_ASSIGN_OR_RETURN(PlannedSelect planned,
                            PlanSelect(*insert->select));
      return "INSERT INTO " + insert->table + "\n" +
             exec::RenderOperatorTree(*planned.root, 2);
    }
    return "INSERT INTO " + insert->table + " (" +
           std::to_string(insert->rows.size()) + " literal rows)\n";
  }
  if (const auto* del = std::get_if<DeleteStmt>(&stmt)) {
    return "DELETE FROM " + del->table +
           (del->where != nullptr ? " WHERE " + del->where->ToString()
                                  : std::string(" (all rows)")) +
           "\n";
  }
  return std::string("(plan rendering not supported for this statement)\n");
}

/// -- DDL / DML -------------------------------------------------------------

Result<TablePtr> Executor::ExecuteCreateTable(const CreateTableStmt& stmt) {
  TablePtr table;
  if (stmt.as_select != nullptr) {
    MLCS_ASSIGN_OR_RETURN(TablePtr result, ExecuteSelect(*stmt.as_select));
    // Deep-copy the columns: results may share buffers with source tables,
    // and catalog tables must own their storage.
    std::vector<ColumnPtr> columns;
    columns.reserve(result->num_columns());
    for (size_t i = 0; i < result->num_columns(); ++i) {
      columns.push_back(std::make_shared<Column>(*result->column(i)));
    }
    table = std::make_shared<Table>(result->schema(), std::move(columns));
  } else {
    if (stmt.schema.num_fields() == 0) {
      return Status::InvalidArgument("CREATE TABLE with no columns");
    }
    table = Table::Make(stmt.schema);
  }
  MLCS_RETURN_IF_ERROR(
      catalog_->CreateTable(stmt.name, table, stmt.or_replace));
  return StatusTable("CREATE TABLE " + stmt.name);
}

Result<TablePtr> Executor::ExecuteInsert(const InsertStmt& stmt) {
  MLCS_ASSIGN_OR_RETURN(TablePtr table, catalog_->GetTable(stmt.table));
  size_t inserted = 0;
  if (stmt.select != nullptr) {
    MLCS_ASSIGN_OR_RETURN(TablePtr result, ExecuteSelect(*stmt.select));
    if (result->num_columns() != table->num_columns()) {
      return Status::TypeMismatch(
          "INSERT SELECT column count mismatch: " +
          std::to_string(result->num_columns()) + " vs " +
          std::to_string(table->num_columns()));
    }
    for (size_t c = 0; c < table->num_columns(); ++c) {
      ColumnPtr col = result->column(c);
      if (col->type() != table->schema().field(c).type) {
        MLCS_ASSIGN_OR_RETURN(col,
                              col->CastTo(table->schema().field(c).type));
      }
      MLCS_RETURN_IF_ERROR(table->column(c)->AppendColumn(*col));
    }
    inserted = result->num_rows();
  } else {
    for (const auto& row : stmt.rows) {
      std::vector<Value> values;
      values.reserve(row.size());
      for (const auto& expr : row) {
        MLCS_ASSIGN_OR_RETURN(Value v, EvaluateConstant(*expr));
        values.push_back(std::move(v));
      }
      MLCS_RETURN_IF_ERROR(table->AppendRow(values));
      ++inserted;
    }
  }
  return DmlStatusTable("INSERT", inserted);
}

Result<TablePtr> Executor::ExecuteDrop(const DropStmt& stmt) {
  if (stmt.is_function) {
    MLCS_RETURN_IF_ERROR(udfs_->Drop(stmt.name, stmt.if_exists));
    return StatusTable("DROP FUNCTION " + stmt.name);
  }
  MLCS_RETURN_IF_ERROR(catalog_->DropTable(stmt.name, stmt.if_exists));
  return StatusTable("DROP TABLE " + stmt.name);
}

Result<TablePtr> Executor::ExecuteDelete(const DeleteStmt& stmt) {
  MLCS_ASSIGN_OR_RETURN(TablePtr table, catalog_->GetTable(stmt.table));
  size_t before = table->num_rows();
  TablePtr remaining;
  if (stmt.where == nullptr) {
    remaining = Table::Make(table->schema());
  } else {
    MLCS_ASSIGN_OR_RETURN(exec::ExprPtr pred, Lower(*stmt.where));
    exec::EvalContext ctx = MakeContext(table.get());
    MLCS_ASSIGN_OR_RETURN(ColumnPtr mask, pred->Evaluate(ctx));
    if (mask->type() != TypeId::kBool) {
      return Status::TypeMismatch("DELETE predicate must be BOOLEAN");
    }
    // Keep rows where the predicate is NOT true (false or NULL stay).
    std::vector<uint32_t> keep;
    size_t n = table->num_rows();
    for (size_t r = 0; r < n; ++r) {
      size_t mi = mask->size() == 1 ? 0 : r;
      bool deleted = !mask->IsNull(mi) && mask->bool_data()[mi] != 0;
      if (!deleted) keep.push_back(static_cast<uint32_t>(r));
    }
    remaining = table->TakeRows(keep);
  }
  MLCS_RETURN_IF_ERROR(catalog_->CreateTable(stmt.table, remaining,
                                             /*or_replace=*/true));
  return DmlStatusTable("DELETE", before - remaining->num_rows());
}

Result<TablePtr> Executor::ExecuteUpdate(const UpdateStmt& stmt) {
  MLCS_ASSIGN_OR_RETURN(TablePtr table, catalog_->GetTable(stmt.table));
  size_t n = table->num_rows();
  exec::EvalContext ctx = MakeContext(table.get());

  // Row mask (true → update this row).
  std::vector<uint8_t> update_row(n, 1);
  if (stmt.where != nullptr) {
    MLCS_ASSIGN_OR_RETURN(exec::ExprPtr pred, Lower(*stmt.where));
    MLCS_ASSIGN_OR_RETURN(ColumnPtr mask, pred->Evaluate(ctx));
    if (mask->type() != TypeId::kBool) {
      return Status::TypeMismatch("UPDATE predicate must be BOOLEAN");
    }
    for (size_t r = 0; r < n; ++r) {
      size_t mi = mask->size() == 1 ? 0 : r;
      update_row[r] =
          (!mask->IsNull(mi) && mask->bool_data()[mi] != 0) ? 1 : 0;
    }
  }

  // New values per assignment, evaluated over the *old* table (standard
  // UPDATE semantics: all right-hand sides see pre-update values).
  std::map<size_t, ColumnPtr> new_values;
  for (const auto& [col_name, expr] : stmt.assignments) {
    MLCS_ASSIGN_OR_RETURN(size_t idx,
                          table->schema().RequireFieldIndex(col_name));
    if (new_values.count(idx) > 0) {
      return Status::InvalidArgument("column '" + col_name +
                                     "' assigned twice in UPDATE");
    }
    MLCS_ASSIGN_OR_RETURN(exec::ExprPtr lowered, Lower(*expr));
    MLCS_ASSIGN_OR_RETURN(ColumnPtr value, lowered->Evaluate(ctx));
    TypeId target = table->schema().field(idx).type;
    if (value->type() != target) {
      MLCS_ASSIGN_OR_RETURN(value, value->CastTo(target));
    }
    new_values[idx] = std::move(value);
  }

  // Copy-on-write: build a fresh table (shared result sets keep the old
  // column buffers).
  std::vector<ColumnPtr> columns;
  size_t updated = 0;
  for (size_t r = 0; r < n; ++r) updated += update_row[r];
  for (size_t c = 0; c < table->num_columns(); ++c) {
    auto it = new_values.find(c);
    if (it == new_values.end()) {
      columns.push_back(table->column(c));
      continue;
    }
    const ColumnPtr& fresh = it->second;
    ColumnPtr out = Column::Make(table->schema().field(c).type);
    out->Reserve(n);
    for (size_t r = 0; r < n; ++r) {
      const Column& src = update_row[r] ? *fresh : *table->column(c);
      size_t idx = (update_row[r] && fresh->size() == 1) ? 0 : r;
      if (src.IsNull(idx)) {
        out->AppendNull();
      } else {
        MLCS_ASSIGN_OR_RETURN(Value v, src.GetValue(idx));
        MLCS_RETURN_IF_ERROR(out->AppendValue(v));
      }
    }
    columns.push_back(std::move(out));
  }
  auto rebuilt =
      std::make_shared<Table>(table->schema(), std::move(columns));
  MLCS_RETURN_IF_ERROR(rebuilt->Validate());
  MLCS_RETURN_IF_ERROR(
      catalog_->CreateTable(stmt.table, rebuilt, /*or_replace=*/true));
  return DmlStatusTable("UPDATE", updated);
}

/// -- Expression lowering ----------------------------------------------------

Result<Value> Executor::EvaluateScalarSubquery(
    const SelectStatement& select) {
  MLCS_ASSIGN_OR_RETURN(TablePtr result, ExecuteSelect(select));
  if (result->num_columns() != 1 || result->num_rows() != 1) {
    return Status::InvalidArgument(
        "scalar subquery must produce exactly one row and one column, got " +
        std::to_string(result->num_rows()) + "x" +
        std::to_string(result->num_columns()));
  }
  return result->GetValue(0, 0);
}

Result<exec::ExprPtr> Executor::Lower(const SqlExpr& e) {
  switch (e.kind) {
    case SqlExprKind::kLiteral:
      return exec::ExprPtr(std::make_shared<exec::LiteralExpr>(e.literal));
    case SqlExprKind::kColumnRef:
      return exec::ExprPtr(std::make_shared<exec::ColumnRefExpr>(e.name));
    case SqlExprKind::kBinary: {
      MLCS_ASSIGN_OR_RETURN(exec::ExprPtr left, Lower(*e.left));
      MLCS_ASSIGN_OR_RETURN(exec::ExprPtr right, Lower(*e.right));
      return exec::ExprPtr(std::make_shared<exec::BinaryExpr>(
          e.bin_op, std::move(left), std::move(right)));
    }
    case SqlExprKind::kUnary: {
      MLCS_ASSIGN_OR_RETURN(exec::ExprPtr operand, Lower(*e.left));
      return exec::ExprPtr(
          std::make_shared<exec::UnaryExpr>(e.un_op, std::move(operand)));
    }
    case SqlExprKind::kCall: {
      if (IsAggregateFunctionName(e.name)) {
        return Status::InvalidArgument(
            "aggregate function " + e.name +
            " is only allowed at the top level of a SELECT list");
      }
      std::vector<exec::ExprPtr> args;
      args.reserve(e.args.size());
      for (const auto& arg : e.args) {
        MLCS_ASSIGN_OR_RETURN(exec::ExprPtr lowered, Lower(*arg));
        args.push_back(std::move(lowered));
      }
      return exec::ExprPtr(
          std::make_shared<exec::FunctionCallExpr>(e.name, std::move(args)));
    }
    case SqlExprKind::kCast: {
      MLCS_ASSIGN_OR_RETURN(exec::ExprPtr operand, Lower(*e.left));
      return exec::ExprPtr(
          std::make_shared<exec::CastExpr>(std::move(operand), e.cast_type));
    }
    case SqlExprKind::kIsNull: {
      MLCS_ASSIGN_OR_RETURN(exec::ExprPtr operand, Lower(*e.left));
      return exec::ExprPtr(std::make_shared<exec::IsNullExpr>(
          std::move(operand), e.is_not_null));
    }
    case SqlExprKind::kSubquery: {
      MLCS_ASSIGN_OR_RETURN(Value v, EvaluateScalarSubquery(*e.subquery));
      return exec::ExprPtr(std::make_shared<exec::LiteralExpr>(std::move(v)));
    }
    case SqlExprKind::kCase: {
      std::vector<std::pair<exec::ExprPtr, exec::ExprPtr>> branches;
      for (const auto& [cond, value] : e.when_clauses) {
        MLCS_ASSIGN_OR_RETURN(exec::ExprPtr c, Lower(*cond));
        MLCS_ASSIGN_OR_RETURN(exec::ExprPtr v, Lower(*value));
        branches.emplace_back(std::move(c), std::move(v));
      }
      exec::ExprPtr else_value;
      if (e.left != nullptr) {
        MLCS_ASSIGN_OR_RETURN(else_value, Lower(*e.left));
      }
      return exec::ExprPtr(std::make_shared<exec::CaseExpr>(
          std::move(branches), std::move(else_value)));
    }
    case SqlExprKind::kStar:
      return Status::InvalidArgument("'*' is only valid inside COUNT(*)");
  }
  return Status::Internal("unknown expression kind");
}

Result<Value> Executor::EvaluateConstant(const SqlExpr& e) {
  MLCS_ASSIGN_OR_RETURN(exec::ExprPtr lowered, Lower(e));
  exec::EvalContext ctx = MakeContext(nullptr);
  MLCS_ASSIGN_OR_RETURN(ColumnPtr col, lowered->Evaluate(ctx));
  if (col->size() != 1) {
    return Status::InvalidArgument("expected a scalar expression");
  }
  return col->GetValue(0);
}

/// -- SQL-defined UDFs -------------------------------------------------------

namespace {

/// Binds UDF argument columns into a VectorScript environment. Length-1
/// columns bind as scalars (so `n_estimators` reads naturally in scripts);
/// full columns bind as vectors — the MonetDB/Python convention.
vscript::Environment BindArgs(const std::vector<Field>& params,
                              const std::vector<ColumnPtr>& args) {
  vscript::Environment env;
  for (size_t i = 0; i < params.size() && i < args.size(); ++i) {
    if (args[i]->size() == 1) {
      auto v = args[i]->GetValue(0);
      env[params[i].name] = vscript::ScriptValue(
          v.ok() ? v.ValueOrDie() : Value::MakeNull(args[i]->type()));
    } else {
      env[params[i].name] = vscript::ScriptValue(args[i]);
    }
  }
  return env;
}

/// Converts a script return value into the declared table shape. Dicts map
/// by (case-insensitive) field name; a bare column/scalar fills a
/// single-column schema.
Result<TablePtr> ScriptResultToTable(const vscript::ScriptValue& result,
                                     const Schema& declared) {
  std::vector<ColumnPtr> columns(declared.num_fields());
  if (result.is_dict()) {
    const vscript::ScriptDict& dict = result.dict();
    for (size_t i = 0; i < declared.num_fields(); ++i) {
      const std::string& want = declared.field(i).name;
      const vscript::ScriptValue* found = nullptr;
      for (const auto& [key, value] : dict) {
        if (EqualsIgnoreCase(key, want)) {
          found = &value;
          break;
        }
      }
      if (found == nullptr) {
        return Status::InvalidArgument(
            "script result dict is missing declared column '" + want + "'");
      }
      MLCS_ASSIGN_OR_RETURN(columns[i], found->AsColumn());
    }
  } else if (declared.num_fields() == 1) {
    MLCS_ASSIGN_OR_RETURN(columns[0], result.AsColumn());
  } else {
    return Status::InvalidArgument(
        "script must return a dict for a multi-column table function");
  }
  // Broadcast length-1 columns to the longest column's length.
  size_t rows = 1;
  for (const auto& col : columns) rows = std::max(rows, col->size());
  Schema schema;
  std::vector<ColumnPtr> out_cols;
  for (size_t i = 0; i < columns.size(); ++i) {
    ColumnPtr col = columns[i];
    if (col->size() == 1 && rows != 1) {
      MLCS_ASSIGN_OR_RETURN(Value v, col->GetValue(0));
      col = Column::Constant(v, rows);
    } else if (col->size() != rows) {
      return Status::InvalidArgument(
          "script result columns have mismatched lengths");
    }
    if (col->type() != declared.field(i).type) {
      MLCS_ASSIGN_OR_RETURN(col, col->CastTo(declared.field(i).type));
    }
    schema.AddField(declared.field(i).name, declared.field(i).type);
    out_cols.push_back(std::move(col));
  }
  auto table = std::make_shared<Table>(std::move(schema),
                                       std::move(out_cols));
  MLCS_RETURN_IF_ERROR(table->Validate());
  return table;
}

}  // namespace

Result<TablePtr> Executor::ExecuteCreateFunction(
    const CreateFunctionStmt& stmt) {
  // LANGUAGE VSCRIPT is the native name; PYTHON is accepted as an alias so
  // the paper's Listings 1–2 run verbatim (the body dialect is
  // VectorScript — see DESIGN.md's substitution table).
  if (!EqualsIgnoreCase(stmt.language, "VSCRIPT") &&
      !EqualsIgnoreCase(stmt.language, "VECTORSCRIPT") &&
      !EqualsIgnoreCase(stmt.language, "PYTHON")) {
    return Status::NotImplemented("unsupported UDF language '" +
                                  stmt.language + "'");
  }
  // Parse once at creation time so syntax errors surface immediately.
  MLCS_ASSIGN_OR_RETURN(vscript::Program parsed, vscript::Parse(stmt.body));
  auto program =
      std::make_shared<const vscript::Program>(std::move(parsed));
  auto params = std::make_shared<const std::vector<Field>>(stmt.params);

  std::vector<TypeId> param_types;
  param_types.reserve(stmt.params.size());
  for (const auto& p : stmt.params) param_types.push_back(p.type);

  if (stmt.returns_table) {
    udf::TableUdfEntry entry;
    entry.name = stmt.name;
    entry.param_types = std::move(param_types);
    entry.typed = true;
    entry.return_schema = stmt.table_schema;
    Schema declared = stmt.table_schema;
    entry.fn = [program, params, declared](
                   const std::vector<ColumnPtr>& args) -> Result<TablePtr> {
      MLCS_ASSIGN_OR_RETURN(
          vscript::ScriptValue result,
          vscript::Execute(*program, BindArgs(*params, args)));
      return ScriptResultToTable(result, declared);
    };
    MLCS_RETURN_IF_ERROR(udfs_->RegisterTable(std::move(entry),
                                              stmt.or_replace));
  } else {
    udf::ScalarUdfEntry entry;
    entry.name = stmt.name;
    entry.param_types = std::move(param_types);
    entry.typed = true;
    entry.return_type = stmt.scalar_type;
    entry.has_return_type = true;
    entry.fn = [program, params](const std::vector<ColumnPtr>& args,
                                 size_t /*num_rows*/) -> Result<ColumnPtr> {
      MLCS_ASSIGN_OR_RETURN(
          vscript::ScriptValue result,
          vscript::Execute(*program, BindArgs(*params, args)));
      return result.AsColumn();
    };
    MLCS_RETURN_IF_ERROR(udfs_->RegisterScalar(std::move(entry),
                                               stmt.or_replace));
  }
  return StatusTable("CREATE FUNCTION " + stmt.name);
}

}  // namespace mlcs::sql
