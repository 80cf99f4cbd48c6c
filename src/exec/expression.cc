#include "exec/expression.h"

namespace mlcs::exec {

Result<ColumnPtr> ColumnRefExpr::Evaluate(const EvalContext& ctx) const {
  if (ctx.input == nullptr) {
    return Status::InvalidArgument("column reference '" + name_ +
                                   "' without an input table");
  }
  return ctx.input->ColumnByName(name_);
}

Result<ColumnPtr> LiteralExpr::Evaluate(const EvalContext& /*ctx*/) const {
  // Length-1 column; kernels broadcast it against full-length operands.
  return Column::Constant(value_, 1);
}

Result<ColumnPtr> BinaryExpr::Evaluate(const EvalContext& ctx) const {
  MLCS_ASSIGN_OR_RETURN(ColumnPtr left, left_->Evaluate(ctx));
  MLCS_ASSIGN_OR_RETURN(ColumnPtr right, right_->Evaluate(ctx));
  return BinaryKernel(op_, *left, *right);
}

std::string BinaryExpr::ToString() const {
  std::string out = "(";
  out += left_->ToString();
  out += ' ';
  out += BinOpKindToString(op_);
  out += ' ';
  out += right_->ToString();
  out += ')';
  return out;
}

Result<ColumnPtr> UnaryExpr::Evaluate(const EvalContext& ctx) const {
  MLCS_ASSIGN_OR_RETURN(ColumnPtr operand, operand_->Evaluate(ctx));
  return UnaryKernel(op_, *operand);
}

std::string UnaryExpr::ToString() const {
  return std::string(op_ == UnOpKind::kNeg ? "-" : "NOT ") +
         operand_->ToString();
}

Result<ColumnPtr> CastExpr::Evaluate(const EvalContext& ctx) const {
  MLCS_ASSIGN_OR_RETURN(ColumnPtr operand, operand_->Evaluate(ctx));
  return operand->CastTo(target_);
}

std::string CastExpr::ToString() const {
  return "CAST(" + operand_->ToString() + " AS " + TypeIdToString(target_) +
         ")";
}

Result<ColumnPtr> IsNullExpr::Evaluate(const EvalContext& ctx) const {
  MLCS_ASSIGN_OR_RETURN(ColumnPtr operand, operand_->Evaluate(ctx));
  size_t n = operand->size();
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    bool is_null = operand->IsNull(i);
    out[i] = (is_null != negated_) ? 1 : 0;
  }
  return Column::FromBool(std::move(out));
}

std::string IsNullExpr::ToString() const {
  return operand_->ToString() + (negated_ ? " IS NOT NULL" : " IS NULL");
}

Result<ColumnPtr> CaseExpr::Evaluate(const EvalContext& ctx) const {
  if (branches_.empty()) {
    return Status::InvalidArgument("CASE needs at least one WHEN branch");
  }
  size_t n = ctx.input != nullptr ? ctx.input->num_rows() : 1;

  struct EvaluatedBranch {
    ColumnPtr condition;
    ColumnPtr value;
  };
  std::vector<EvaluatedBranch> branches;
  branches.reserve(branches_.size());
  for (const auto& [cond_expr, value_expr] : branches_) {
    EvaluatedBranch b;
    MLCS_ASSIGN_OR_RETURN(b.condition, cond_expr->Evaluate(ctx));
    if (b.condition->type() != TypeId::kBool) {
      return Status::TypeMismatch("CASE WHEN condition must be BOOLEAN");
    }
    MLCS_ASSIGN_OR_RETURN(b.value, value_expr->Evaluate(ctx));
    branches.push_back(std::move(b));
  }
  ColumnPtr else_col;
  if (else_value_ != nullptr) {
    MLCS_ASSIGN_OR_RETURN(else_col, else_value_->Evaluate(ctx));
  }

  // Result type: all equal, or the common numeric promotion.
  TypeId out_type = branches[0].value->type();
  auto unify = [&out_type](TypeId t) -> Status {
    if (t == out_type) return Status::OK();
    MLCS_ASSIGN_OR_RETURN(out_type, CommonNumericType(out_type, t));
    return Status::OK();
  };
  for (const auto& b : branches) {
    MLCS_RETURN_IF_ERROR(unify(b.value->type()));
  }
  if (else_col != nullptr) MLCS_RETURN_IF_ERROR(unify(else_col->type()));

  auto fetch = [](const ColumnPtr& col, size_t row) -> Result<Value> {
    return col->GetValue(col->size() == 1 ? 0 : row);
  };
  ColumnPtr out = Column::Make(out_type);
  out->Reserve(n);
  for (size_t r = 0; r < n; ++r) {
    bool matched = false;
    for (const auto& b : branches) {
      size_t ci = b.condition->size() == 1 ? 0 : r;
      if (!b.condition->IsNull(ci) && b.condition->bool_data()[ci] != 0) {
        MLCS_ASSIGN_OR_RETURN(Value v, fetch(b.value, r));
        MLCS_RETURN_IF_ERROR(out->AppendValue(v));
        matched = true;
        break;
      }
    }
    if (matched) continue;
    if (else_col != nullptr) {
      MLCS_ASSIGN_OR_RETURN(Value v, fetch(else_col, r));
      MLCS_RETURN_IF_ERROR(out->AppendValue(v));
    } else {
      out->AppendNull();
    }
  }
  return out;
}

std::string CaseExpr::ToString() const {
  std::string out = "CASE";
  for (const auto& [cond, value] : branches_) {
    out += " WHEN " + cond->ToString() + " THEN " + value->ToString();
  }
  if (else_value_ != nullptr) out += " ELSE " + else_value_->ToString();
  return out + " END";
}

Result<ColumnPtr> FunctionCallExpr::Evaluate(const EvalContext& ctx) const {
  if (!ctx.call_function) {
    return Status::NotImplemented("no function dispatcher installed; '" +
                                  name_ + "' cannot be called here");
  }
  std::vector<ColumnPtr> args;
  args.reserve(args_.size());
  size_t num_rows = ctx.input != nullptr ? ctx.input->num_rows() : 1;
  for (const auto& arg : args_) {
    MLCS_ASSIGN_OR_RETURN(ColumnPtr col, arg->Evaluate(ctx));
    args.push_back(std::move(col));
  }
  return ctx.call_function(name_, args, num_rows);
}

std::string FunctionCallExpr::ToString() const {
  std::string out = name_ + "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) out += ", ";
    out += args_[i]->ToString();
  }
  out += ")";
  return out;
}

}  // namespace mlcs::exec
