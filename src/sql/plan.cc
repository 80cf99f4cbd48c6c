#include "sql/plan.h"

#include "common/string_util.h"
#include "exec/aggregate.h"
#include "exec/sort.h"
#include "sql/executor.h"

namespace mlcs::sql {

bool IsAggregateFunctionName(const std::string& name) {
  return EqualsIgnoreCase(name, "count") || EqualsIgnoreCase(name, "sum") ||
         EqualsIgnoreCase(name, "avg") || EqualsIgnoreCase(name, "min") ||
         EqualsIgnoreCase(name, "max") || EqualsIgnoreCase(name, "stddev") ||
         EqualsIgnoreCase(name, "stddev_pop");
}

bool IsTopLevelAggregate(const SqlExpr& e) {
  return e.kind == SqlExprKind::kCall && IsAggregateFunctionName(e.name);
}

std::string DeriveItemName(const SqlExpr& e, size_t index) {
  if (e.kind == SqlExprKind::kColumnRef) return e.name;
  if (e.kind == SqlExprKind::kCall) return ToLower(e.name);
  return "col" + std::to_string(index);
}

bool HasAggregate(const SelectStatement& select) {
  if (!select.group_by.empty()) return true;
  for (const auto& item : select.items) {
    if (!item.star && IsTopLevelAggregate(*item.expr)) return true;
  }
  return false;
}

void CollectColumnRefs(const SqlExpr& e, std::set<std::string>* out) {
  switch (e.kind) {
    case SqlExprKind::kColumnRef:
      out->insert(ToLower(e.name));
      return;
    case SqlExprKind::kSubquery:
      return;  // binds in its own scope
    case SqlExprKind::kCase:
      for (const auto& [cond, value] : e.when_clauses) {
        CollectColumnRefs(*cond, out);
        CollectColumnRefs(*value, out);
      }
      break;
    default:
      break;
  }
  if (e.left != nullptr) CollectColumnRefs(*e.left, out);
  if (e.right != nullptr) CollectColumnRefs(*e.right, out);
  for (const auto& arg : e.args) CollectColumnRefs(*arg, out);
}

namespace {

/// The bracketed select-list string the old interpreted EXPLAIN showed for
/// PROJECT/AGGREGATE nodes, kept for plan-text continuity.
std::string ProjectionString(const SelectStatement& select) {
  std::string projection;
  for (size_t i = 0; i < select.items.size(); ++i) {
    if (i > 0) projection += ", ";
    projection +=
        select.items[i].star ? "*" : select.items[i].expr->ToString();
    if (!select.items[i].alias.empty()) {
      projection += " AS " + select.items[i].alias;
    }
  }
  return projection;
}

}  // namespace

Result<exec::OpResult> ProjectOperator::Execute() const {
  MLCS_ASSIGN_OR_RETURN(exec::OpResult in, children_[0]->Run());
  const SelectStatement& select = *select_;
  const TablePtr& input = in.table;
  Schema schema;
  std::vector<ColumnPtr> columns;
  size_t num_rows = input->num_rows();
  bool from_less = select.from == nullptr;
  exec::EvalContext ctx =
      exec_->MakeContext(from_less ? nullptr : input.get());
  for (size_t i = 0; i < select.items.size(); ++i) {
    const SelectItem& item = select.items[i];
    if (item.star) {
      if (select.from == nullptr) {
        return Status::InvalidArgument("SELECT * requires a FROM clause");
      }
      for (size_t c = 0; c < input->num_columns(); ++c) {
        schema.AddField(input->schema().field(c).name,
                        input->schema().field(c).type);
        columns.push_back(input->column(c));
      }
      continue;
    }
    MLCS_ASSIGN_OR_RETURN(exec::ExprPtr lowered, exec_->Lower(*item.expr));
    MLCS_ASSIGN_OR_RETURN(ColumnPtr col, lowered->Evaluate(ctx));
    size_t target_rows = from_less ? 1 : num_rows;
    if (col->size() == 1 && target_rows != 1) {
      MLCS_ASSIGN_OR_RETURN(Value v, col->GetValue(0));
      col = Column::Constant(v, target_rows);
    } else if (col->size() != target_rows) {
      return Status::Internal("projection produced " +
                              std::to_string(col->size()) +
                              " rows, expected " +
                              std::to_string(target_rows));
    }
    schema.AddField(
        item.alias.empty() ? DeriveItemName(*item.expr, i) : item.alias,
        col->type());
    columns.push_back(std::move(col));
  }
  auto out = std::make_shared<Table>(std::move(schema), std::move(columns));
  MLCS_RETURN_IF_ERROR(out->Validate());
  // Rows stay 1:1 with the input, so the pre-projection table remains
  // available for ORDER BY fallback.
  return exec::OpResult{std::move(out), in.table, {}};
}

std::string ProjectOperator::label() const {
  return "PROJECT [" + ProjectionString(*select_) + "]";
}

Result<exec::OpResult> AggregateOperator::Execute() const {
  MLCS_ASSIGN_OR_RETURN(exec::OpResult in, children_[0]->Run());
  const SelectStatement& select = *select_;
  const TablePtr& input = in.table;
  // Pre-project aggregate inputs that are expressions, run the hash
  // aggregation, then map select items onto its output.
  TablePtr work = std::make_shared<Table>(*input);
  std::vector<exec::AggSpec> specs;
  struct ItemPlan {
    bool is_aggregate = false;
    std::string source_column;  // group key or aggregate output name
    std::string output_name;
  };
  std::vector<ItemPlan> plans;
  exec::EvalContext ctx = exec_->MakeContext(work.get());

  for (size_t i = 0; i < select.items.size(); ++i) {
    const SelectItem& item = select.items[i];
    if (item.star) {
      return Status::InvalidArgument(
          "SELECT * cannot be combined with aggregates/GROUP BY");
    }
    ItemPlan plan;
    plan.output_name =
        item.alias.empty() ? DeriveItemName(*item.expr, i) : item.alias;
    if (IsTopLevelAggregate(*item.expr)) {
      plan.is_aggregate = true;
      const SqlExpr& call = *item.expr;
      bool star_arg =
          call.args.size() == 1 && call.args[0]->kind == SqlExprKind::kStar;
      MLCS_ASSIGN_OR_RETURN(exec::AggOp op,
                            exec::AggOpFromName(call.name, star_arg));
      exec::AggSpec spec;
      spec.op = op;
      spec.output_name = "__agg_out_" + std::to_string(specs.size());
      if (!star_arg) {
        if (call.args.size() != 1) {
          return Status::InvalidArgument(call.name +
                                         " takes exactly one argument");
        }
        const SqlExpr& arg = *call.args[0];
        if (arg.kind == SqlExprKind::kColumnRef) {
          spec.input_column = arg.name;
        } else {
          // Aggregate over an expression: pre-project a temp column.
          MLCS_ASSIGN_OR_RETURN(exec::ExprPtr lowered, exec_->Lower(arg));
          MLCS_ASSIGN_OR_RETURN(ColumnPtr col, lowered->Evaluate(ctx));
          if (col->size() == 1 && work->num_rows() != 1) {
            MLCS_ASSIGN_OR_RETURN(Value v, col->GetValue(0));
            col = Column::Constant(v, work->num_rows());
          }
          std::string temp = "__agg_in_" + std::to_string(specs.size());
          MLCS_RETURN_IF_ERROR(work->AddColumn(temp, std::move(col)));
          spec.input_column = temp;
        }
      }
      plan.source_column = spec.output_name;
      specs.push_back(std::move(spec));
    } else {
      // Must be a group key column.
      if (item.expr->kind != SqlExprKind::kColumnRef) {
        return Status::InvalidArgument(
            "non-aggregate select item '" + item.expr->ToString() +
            "' must be a GROUP BY column");
      }
      bool is_key = false;
      for (const auto& key : select.group_by) {
        if (EqualsIgnoreCase(key, item.expr->name)) is_key = true;
      }
      if (!is_key) {
        return Status::InvalidArgument("column '" + item.expr->name +
                                       "' is not in GROUP BY");
      }
      plan.source_column = item.expr->name;
    }
    plans.push_back(std::move(plan));
  }

  MLCS_ASSIGN_OR_RETURN(
      TablePtr aggregated,
      exec::HashGroupBy(*work, select.group_by, specs, exec_->policy()));

  // Final projection in select-list order with aliases.
  Schema schema;
  std::vector<ColumnPtr> columns;
  for (const auto& plan : plans) {
    MLCS_ASSIGN_OR_RETURN(ColumnPtr col,
                          aggregated->ColumnByName(plan.source_column));
    schema.AddField(plan.output_name, col->type());
    columns.push_back(std::move(col));
  }
  auto out = std::make_shared<Table>(std::move(schema), std::move(columns));
  MLCS_RETURN_IF_ERROR(out->Validate());
  // Aggregation breaks the row correspondence with the input.
  return exec::OpResult{std::move(out), nullptr, {}};
}

std::string AggregateOperator::label() const {
  std::string out = "AGGREGATE [" + ProjectionString(*select_) + "]";
  if (!select_->group_by.empty()) {
    out += " group by ";
    for (size_t i = 0; i < select_->group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += select_->group_by[i];
    }
  }
  return out;
}

Result<exec::OpResult> SortOperator::Execute() const {
  MLCS_ASSIGN_OR_RETURN(exec::OpResult in, children_[0]->Run());
  const SelectStatement& select = *select_;
  TablePtr table = std::move(in.table);
  const TablePtr& row_source = in.row_source;
  // Evaluate each order expression over the output table into temp
  // columns, sort, then drop the temps.
  TablePtr augmented = std::make_shared<Table>(*table);
  exec::EvalContext ctx = exec_->MakeContext(augmented.get());
  std::vector<exec::SortKey> keys;
  size_t original_columns = table->num_columns();
  for (size_t i = 0; i < select.order_by.size(); ++i) {
    const OrderItem& item = select.order_by[i];
    // Ordinal form: ORDER BY 2.
    if (item.expr->kind == SqlExprKind::kLiteral &&
        !item.expr->literal.is_null() &&
        (item.expr->literal.type() == TypeId::kInt32 ||
         item.expr->literal.type() == TypeId::kInt64)) {
      int64_t ordinal = item.expr->literal.int64_value();
      if (ordinal < 1 || ordinal > static_cast<int64_t>(original_columns)) {
        return Status::OutOfRange("ORDER BY ordinal out of range");
      }
      keys.push_back(
          {table->schema().field(static_cast<size_t>(ordinal - 1)).name,
           item.descending});
      continue;
    }
    MLCS_ASSIGN_OR_RETURN(exec::ExprPtr lowered, exec_->Lower(*item.expr));
    auto evaluated = lowered->Evaluate(ctx);
    if (!evaluated.ok() && row_source != nullptr &&
        row_source->num_rows() == table->num_rows()) {
      // Retry against the pre-projection input (same row order).
      exec::EvalContext src_ctx = exec_->MakeContext(row_source.get());
      evaluated = lowered->Evaluate(src_ctx);
    }
    if (!evaluated.ok()) return evaluated.status();
    ColumnPtr col = std::move(evaluated).ValueOrDie();
    if (col->size() == 1 && augmented->num_rows() != 1) {
      MLCS_ASSIGN_OR_RETURN(Value v, col->GetValue(0));
      col = Column::Constant(v, augmented->num_rows());
    }
    std::string temp = "__ord_" + std::to_string(i);
    MLCS_RETURN_IF_ERROR(augmented->AddColumn(temp, std::move(col)));
    keys.push_back({temp, item.descending});
  }
  MLCS_ASSIGN_OR_RETURN(TablePtr sorted,
                        exec::SortTable(*augmented, keys, exec_->policy()));
  std::vector<size_t> keep(original_columns);
  for (size_t i = 0; i < original_columns; ++i) keep[i] = i;
  return exec::OpResult{sorted->Project(keep), nullptr, {}};
}

std::string SortOperator::label() const {
  std::string out = "SORT by ";
  for (size_t i = 0; i < select_->order_by.size(); ++i) {
    if (i > 0) out += ", ";
    out += select_->order_by[i].expr->ToString();
    if (select_->order_by[i].descending) out += " DESC";
  }
  return out;
}

Result<exec::OpResult> TableFunctionOperator::Execute() const {
  std::vector<ColumnPtr> args;
  size_t child = 0;
  for (const auto& arg : ref_->fn_args) {
    if (arg.table != nullptr) {
      // Parenthesized subquery: its columns become vector arguments —
      // the MonetDB table-argument calling convention.
      MLCS_ASSIGN_OR_RETURN(exec::OpResult t,
                            children_[child++]->Run());
      for (size_t c = 0; c < t.table->num_columns(); ++c) {
        args.push_back(t.table->column(c));
      }
    } else {
      MLCS_ASSIGN_OR_RETURN(Value v, exec_->EvaluateConstant(*arg.scalar));
      args.push_back(Column::Constant(v, 1));
    }
  }
  MLCS_ASSIGN_OR_RETURN(TablePtr out,
                        exec_->udfs()->CallTable(ref_->name, args));
  return exec::OpResult{std::move(out), nullptr, {}};
}

}  // namespace mlcs::sql
