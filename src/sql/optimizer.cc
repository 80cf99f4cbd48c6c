#include "sql/optimizer.h"

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "exec/aggregate.h"
#include "obs/metrics.h"

namespace mlcs::sql {

namespace {

/// -- Rule 1: constant folding ---------------------------------------------

/// Literal-only subtree: no column refs, no calls (UDFs may be impure), no
/// subqueries. Safe to evaluate at plan time.
bool IsFoldable(const SqlExpr& e) {
  switch (e.kind) {
    case SqlExprKind::kLiteral:
      return true;
    case SqlExprKind::kBinary:
      return IsFoldable(*e.left) && IsFoldable(*e.right);
    case SqlExprKind::kUnary:
    case SqlExprKind::kCast:
    case SqlExprKind::kIsNull:
      return IsFoldable(*e.left);
    case SqlExprKind::kCase: {
      for (const auto& [cond, value] : e.when_clauses) {
        if (!IsFoldable(*cond) || !IsFoldable(*value)) return false;
      }
      return e.left == nullptr || IsFoldable(*e.left);
    }
    default:
      return false;
  }
}

bool IsLiteralTrue(const SqlExpr& e) {
  return e.kind == SqlExprKind::kLiteral && !e.literal.is_null() &&
         e.literal.type() == TypeId::kBool && e.literal.bool_value();
}

void SplitConjuncts(const SqlExpr* e, std::vector<const SqlExpr*>* out);

void FoldConstants(LogicalNode* node, BoundPlan* plan,
                   const OptimizerContext& ctx) {
  if (node->op == LogicalOp::kFilter || node->op == LogicalOp::kHaving) {
    // Split each conjunct on AND so a literal-only piece folds even when
    // it is mixed with column predicates (`x > 3 AND 1 < 2`).
    std::vector<const SqlExpr*> pieces;
    for (const SqlExpr* conjunct : node->conjuncts) {
      SplitConjuncts(conjunct, &pieces);
    }
    bool any_folded = false;
    for (const SqlExpr*& piece : pieces) {
      if (piece->kind == SqlExprKind::kLiteral) continue;
      if (!IsFoldable(*piece)) continue;
      Result<Value> v = ctx.eval_constant(*piece);
      if (!v.ok()) continue;  // defer the error to runtime, unchanged
      auto lit = std::make_unique<SqlExpr>();
      lit->kind = SqlExprKind::kLiteral;
      lit->literal = std::move(v).ValueOrDie();
      piece = lit.get();
      plan->arena.push_back(std::move(lit));
      any_folded = true;
    }
    // Only restructure when folding happened; otherwise keep the original
    // (unsplit) conjunct list so unoptimized evaluation is preserved
    // exactly. `X AND TRUE == X`, so folded-TRUE pieces drop out; if every
    // piece folded TRUE, one survivor lets RemoveTrueFilters elide the
    // whole filter node.
    if (any_folded) {
      std::vector<const SqlExpr*> kept;
      for (const SqlExpr* piece : pieces) {
        if (!IsLiteralTrue(*piece)) kept.push_back(piece);
      }
      if (kept.empty()) kept.push_back(pieces.front());
      node->conjuncts = std::move(kept);
    }
  }
  for (auto& child : node->children) {
    FoldConstants(child.get(), plan, ctx);
  }
}

/// Drops filters whose every conjunct folded to TRUE (a keep-all mask).
void RemoveTrueFilters(LogicalNodePtr* slot) {
  LogicalNode* node = slot->get();
  if ((node->op == LogicalOp::kFilter ||
       node->op == LogicalOp::kHaving) &&
      std::all_of(node->conjuncts.begin(), node->conjuncts.end(),
                  [](const SqlExpr* e) { return IsLiteralTrue(*e); })) {
    *slot = std::move(node->children[0]);
    RemoveTrueFilters(slot);
    return;
  }
  for (auto& child : node->children) RemoveTrueFilters(&child);
}

/// -- Rule 2: predicate pushdown -------------------------------------------

void SplitConjuncts(const SqlExpr* e, std::vector<const SqlExpr*>* out) {
  if (e->kind == SqlExprKind::kBinary &&
      e->bin_op == exec::BinOpKind::kAnd) {
    SplitConjuncts(e->left.get(), out);
    SplitConjuncts(e->right.get(), out);
    return;
  }
  out->push_back(e);
}

bool AllIn(const std::set<std::string>& refs,
           const std::set<std::string>& names) {
  return std::all_of(refs.begin(), refs.end(), [&](const std::string& r) {
    return names.count(r) > 0;
  });
}

/// Wraps `*slot` in a filter carrying `conjuncts` (or appends to an
/// existing filter there).
void AttachFilter(LogicalNodePtr* slot,
                  const std::vector<const SqlExpr*>& conjuncts,
                  const SelectStatement* select) {
  if ((*slot)->op == LogicalOp::kFilter) {
    auto& existing = (*slot)->conjuncts;
    existing.insert(existing.end(), conjuncts.begin(), conjuncts.end());
    return;
  }
  auto filter = std::make_unique<LogicalNode>();
  filter->op = LogicalOp::kFilter;
  filter->select = select;
  filter->conjuncts = conjuncts;
  filter->output_names = (*slot)->output_names;
  filter->children.push_back(std::move(*slot));
  *slot = std::move(filter);
}

void PushDownPredicates(LogicalNodePtr* slot) {
  LogicalNode* node = slot->get();
  if (node->op == LogicalOp::kFilter && !node->children.empty() &&
      node->children[0]->op == LogicalOp::kJoin) {
    LogicalNode* join = node->children[0].get();
    const LogicalNode& lchild = *join->children[0];
    const LogicalNode& rchild = *join->children[1];
    // Need both sides' names to attribute conjuncts; else fail open.
    if (lchild.output_names.has_value() &&
        rchild.output_names.has_value()) {
      std::set<std::string> lnames(lchild.output_names->begin(),
                                   lchild.output_names->end());
      // Right-side names that survive the join un-renamed. A name also on
      // the left gets "_r" in the join output, so a bare reference to it
      // means the LEFT column — pushing such a conjunct right (or pushing
      // an "x_r" reference, which names a column the child doesn't have)
      // would be wrong; both land in `residual`.
      std::set<std::string> rnames;
      for (const std::string& name : *rchild.output_names) {
        if (lnames.count(name) == 0) rnames.insert(name);
      }
      bool inner = join->ref->join_type == exec::JoinType::kInner;
      std::vector<const SqlExpr*> pieces;
      for (const SqlExpr* conjunct : node->conjuncts) {
        SplitConjuncts(conjunct, &pieces);
      }
      std::vector<const SqlExpr*> to_left, to_right, residual;
      for (const SqlExpr* piece : pieces) {
        std::set<std::string> refs;
        CollectColumnRefs(*piece, &refs);
        if (!refs.empty() && AllIn(refs, lnames)) {
          to_left.push_back(piece);
        } else if (inner && !refs.empty() && AllIn(refs, rnames)) {
          to_right.push_back(piece);
        } else {
          residual.push_back(piece);
        }
      }
      if (!to_left.empty() || !to_right.empty()) {
        if (!to_left.empty()) {
          AttachFilter(&join->children[0], to_left, node->select);
        }
        if (!to_right.empty()) {
          AttachFilter(&join->children[1], to_right, node->select);
        }
        if (residual.empty()) {
          // Everything moved: the filter node dissolves into the join.
          *slot = std::move(node->children[0]);
          PushDownPredicates(slot);
          return;
        }
        node->conjuncts = std::move(residual);
      }
      // If nothing moved, keep the original (unsplit) conjunct list so
      // the unoptimized evaluation order is preserved exactly.
    }
  }
  for (auto& child : (*slot)->children) PushDownPredicates(&child);
}

/// -- Rule 3: projection pruning -------------------------------------------

void PruneScope(LogicalNode* scope_root, Catalog* catalog);

/// Walks one SELECT scope, collecting referenced column names (lower-
/// cased), scan nodes, and the roots of nested scopes (which prune
/// independently).
void CollectScope(LogicalNode* node, std::set<std::string>* refs,
                  bool* star, std::vector<LogicalNode*>* scans,
                  std::vector<LogicalNode*>* inner_scopes) {
  switch (node->op) {
    case LogicalOp::kScan:
      scans->push_back(node);
      return;
    case LogicalOp::kDual:
      return;
    case LogicalOp::kSubquery:
    case LogicalOp::kTableFunction:
      for (auto& child : node->children) {
        inner_scopes->push_back(child.get());
      }
      return;
    case LogicalOp::kJoin:
      for (const auto& [a, b] : node->ref->join_keys) {
        refs->insert(ToLower(a));
        refs->insert(ToLower(b));
      }
      break;
    case LogicalOp::kFilter:
    case LogicalOp::kHaving:
      for (const SqlExpr* conjunct : node->conjuncts) {
        CollectColumnRefs(*conjunct, refs);
      }
      break;
    case LogicalOp::kProject:
    case LogicalOp::kAggregate: {
      // One projection per scope: collect the whole statement's column
      // demand here (select list, GROUP BY, ORDER BY; HAVING and WHERE
      // arrive via their filter nodes).
      const SelectStatement& select = *node->select;
      for (const auto& item : select.items) {
        if (item.star) {
          *star = true;
        } else {
          CollectColumnRefs(*item.expr, refs);
        }
      }
      for (const auto& key : select.group_by) refs->insert(ToLower(key));
      for (const auto& order : select.order_by) {
        CollectColumnRefs(*order.expr, refs);
      }
      break;
    }
    case LogicalOp::kDistinct:
    case LogicalOp::kSort:
    case LogicalOp::kLimit:
      break;
  }
  for (auto& child : node->children) {
    CollectScope(child.get(), refs, star, scans, inner_scopes);
  }
}

size_t TypeWidth(TypeId type) {
  switch (type) {
    case TypeId::kBool:
      return 1;
    case TypeId::kInt32:
      return 4;
    case TypeId::kInt64:
    case TypeId::kDouble:
      return 8;
    case TypeId::kVarchar:
    case TypeId::kBlob:
      return 16;  // headers alone beat any fixed-width column
  }
  return 16;
}

void PruneScope(LogicalNode* scope_root, Catalog* catalog) {
  std::set<std::string> refs;
  bool star = false;
  std::vector<LogicalNode*> scans;
  std::vector<LogicalNode*> inner_scopes;
  CollectScope(scope_root, &refs, &star, &scans, &inner_scopes);

  if (!star) {
    // A reference to a join-renamed column "x_r" demands the underlying
    // "x" on both sides (keeping the colliding left column also keeps the
    // rename in place).
    std::set<std::string> expanded = refs;
    for (const std::string& r : refs) {
      if (r.size() > 2 && r.compare(r.size() - 2, 2, "_r") == 0) {
        expanded.insert(r.substr(0, r.size() - 2));
      }
    }
    for (LogicalNode* scan : scans) {
      // Schema-only lookup: pruning must not materialize a stored table.
      Result<Schema> looked_up = catalog->GetTableSchema(scan->table_name);
      if (!looked_up.ok()) continue;  // fail open; the scan errors at run
      const Schema& schema = looked_up.ValueOrDie();
      std::vector<std::string> kept;
      for (const auto& field : schema.fields()) {
        if (expanded.count(ToLower(field.name)) > 0) {
          kept.push_back(field.name);
        }
      }
      if (kept.size() == schema.num_fields()) continue;  // nothing to cut
      if (kept.empty() && schema.num_fields() > 0) {
        // No column referenced (SELECT COUNT(*)): keep the narrowest one
        // so num_rows() survives.
        size_t best = 0;
        for (size_t i = 1; i < schema.num_fields(); ++i) {
          if (TypeWidth(schema.field(i).type) <
              TypeWidth(schema.field(best).type)) {
            best = i;
          }
        }
        kept.push_back(schema.field(best).name);
      }
      scan->scan_columns = std::move(kept);
    }
  }

  for (LogicalNode* inner : inner_scopes) PruneScope(inner, catalog);
}

/// -- Rule 4: aggregate pushdown below a join (factorized statistics) ------
///
/// The ML-side counterpart is TrainingCodes (ml/training_codes.h): training
/// statistics are group-by aggregates, and aggregates over fact⋈dim never
/// need the join output. `Agg_{G}(F ⋈ D)` with every aggregate input on F
/// rewrites to `FinalAgg_{G}(PartialAgg_{G_F ∪ {k}}(F) ⋈ D)`: the partial
/// aggregate collapses F to one row per (fact group keys, join key) before
/// the join ever runs, so the join touches O(groups) rows instead of
/// O(|F|).
///
/// Result-preservation argument (the property suite compares against the
/// unoptimized plan bit for bit):
///  - Values: restricted to COUNT(*)/COUNT(col)/SUM(col) with SUM inputs
///    declared BOOLEAN/INT/BIGINT — partial and final sums are exact
///    integer arithmetic, so re-association cannot change them. A fact row
///    matching m dim rows contributes its value m times in the join
///    output; after the rewrite its partial group joins those same m dim
///    rows and the final SUM adds the partial m times. NULL join keys drop
///    in the inner join on both plans.
///  - Types: COUNT and integer SUM both emit BIGINT, and SUM(BIGINT) of a
///    partial is again BIGINT.
///  - Row order: HashGroupBy emits groups in first-seen order and HashJoin
///    emits probe (left) rows in order, so a final group's position is
///    governed by the minimum fact-row index mapping to it — the same
///    index on both plans.
/// Anything outside this shape (expressions, AVG/MIN/MAX, dim-side or
/// join-renamed "_r" inputs, multi-key or outer joins, residual filters
/// between aggregate and join) fails open and keeps the original plan.

const LogicalNode* UnwrapFilters(const LogicalNode* node) {
  while (node->op == LogicalOp::kFilter && !node->children.empty()) {
    node = node->children[0].get();
  }
  return node;
}

/// Declared type of `name` when `side` bottoms out in a scan (possibly
/// under pushed-down filters); nullopt → unresolvable, caller fails open.
std::optional<TypeId> ResolveScanColumnType(const LogicalNode& side,
                                            Catalog* catalog,
                                            const std::string& name) {
  const LogicalNode* node = UnwrapFilters(&side);
  if (node->op != LogicalOp::kScan) return std::nullopt;
  Result<Schema> schema = catalog->GetTableSchema(node->table_name);
  if (!schema.ok()) return std::nullopt;
  for (const auto& field : schema.ValueOrDie().fields()) {
    if (EqualsIgnoreCase(field.name, name)) return field.type;
  }
  return std::nullopt;
}

SqlExprPtr MakeColumnRef(const std::string& name) {
  auto e = std::make_unique<SqlExpr>();
  e->kind = SqlExprKind::kColumnRef;
  e->name = name;
  return e;
}

SqlExprPtr MakeAggCall(const std::string& fn, SqlExprPtr arg) {
  auto e = std::make_unique<SqlExpr>();
  e->kind = SqlExprKind::kCall;
  e->name = fn;
  e->args.push_back(std::move(arg));
  return e;
}

void PushAggregateBelowJoin(LogicalNode* node, BoundPlan* plan,
                            Catalog* catalog) {
  for (auto& child : node->children) {
    PushAggregateBelowJoin(child.get(), plan, catalog);
  }
  if (node->op != LogicalOp::kAggregate || node->select == nullptr) return;
  if (node->children.empty() ||
      node->children[0]->op != LogicalOp::kJoin) {
    return;
  }
  LogicalNode* join = node->children[0].get();
  if (join->ref == nullptr ||
      join->ref->join_type != exec::JoinType::kInner ||
      join->ref->join_keys.size() != 1) {
    return;
  }
  const LogicalNode& lchild = *join->children[0];
  const LogicalNode& rchild = *join->children[1];
  if (!lchild.output_names.has_value() || !rchild.output_names.has_value()) {
    return;
  }
  std::set<std::string> lnames(lchild.output_names->begin(),
                               lchild.output_names->end());
  // Right-side names that survive the join un-renamed (same attribution
  // rule as predicate pushdown).
  std::set<std::string> rnames;
  for (const std::string& name : *rchild.output_names) {
    if (lnames.count(name) == 0) rnames.insert(name);
  }
  const std::string& lkey = join->ref->join_keys[0].first;
  const std::string& rkey = join->ref->join_keys[0].second;
  if (lnames.count(ToLower(lkey)) == 0) return;
  if (std::none_of(rchild.output_names->begin(), rchild.output_names->end(),
                   [&](const std::string& n) {
                     return EqualsIgnoreCase(n, rkey);
                   })) {
    return;
  }

  const SelectStatement& select = *node->select;
  struct AggItem {
    exec::AggOp op;
    std::string input;  // original spelling; empty for COUNT(*)
  };
  std::vector<AggItem> aggs;
  for (const auto& item : select.items) {
    if (item.star) return;
    if (!IsTopLevelAggregate(*item.expr)) {
      // Non-aggregate items must be bare group-key refs; side attribution
      // happens with the group keys below.
      if (item.expr->kind != SqlExprKind::kColumnRef) return;
      continue;
    }
    const SqlExpr& call = *item.expr;
    if (call.args.size() != 1) return;
    bool star_arg = call.args[0]->kind == SqlExprKind::kStar;
    Result<exec::AggOp> op = exec::AggOpFromName(call.name, star_arg);
    if (!op.ok()) return;
    if (op.ValueOrDie() == exec::AggOp::kCountStar) {
      aggs.push_back({exec::AggOp::kCountStar, ""});
      continue;
    }
    if (op.ValueOrDie() != exec::AggOp::kCount &&
        op.ValueOrDie() != exec::AggOp::kSum) {
      return;
    }
    if (call.args[0]->kind != SqlExprKind::kColumnRef) return;
    const std::string& input = call.args[0]->name;
    if (lnames.count(ToLower(input)) == 0) return;
    if (op.ValueOrDie() == exec::AggOp::kSum) {
      std::optional<TypeId> type =
          ResolveScanColumnType(lchild, catalog, input);
      if (!type.has_value() ||
          (*type != TypeId::kInt32 && *type != TypeId::kInt64 &&
           *type != TypeId::kBool)) {
        return;
      }
    }
    aggs.push_back({op.ValueOrDie(), input});
  }
  if (aggs.empty()) return;

  // Split group keys by side: fact keys move into the partial aggregate,
  // dim keys keep grouping above the join.
  std::vector<std::string> fact_keys;
  for (const std::string& key : select.group_by) {
    if (lnames.count(ToLower(key)) > 0) {
      fact_keys.push_back(key);
    } else if (rnames.count(ToLower(key)) == 0) {
      return;  // renamed or unknown — fail open
    }
  }

  // Partial statement: fact group keys ∪ join key, plus one partial
  // aggregate per original aggregate.
  auto partial = std::make_unique<SelectStatement>();
  std::vector<std::string> partial_names;
  for (const std::string& key : fact_keys) {
    SelectItem item;
    item.expr = MakeColumnRef(key);
    partial->items.push_back(std::move(item));
    partial->group_by.push_back(key);
    partial_names.push_back(ToLower(key));
  }
  if (std::none_of(fact_keys.begin(), fact_keys.end(),
                   [&](const std::string& k) {
                     return EqualsIgnoreCase(k, lkey);
                   })) {
    SelectItem item;
    item.expr = MakeColumnRef(lkey);
    partial->items.push_back(std::move(item));
    partial->group_by.push_back(lkey);
    partial_names.push_back(ToLower(lkey));
  }
  for (size_t i = 0; i < aggs.size(); ++i) {
    SqlExprPtr arg;
    if (aggs[i].op == exec::AggOp::kCountStar) {
      arg = std::make_unique<SqlExpr>();
      arg->kind = SqlExprKind::kStar;
    } else {
      arg = MakeColumnRef(aggs[i].input);
    }
    std::string name = "__pagg_" + std::to_string(i);
    SelectItem item;
    item.expr = MakeAggCall(
        aggs[i].op == exec::AggOp::kSum ? "SUM" : "COUNT", std::move(arg));
    item.alias = name;
    partial->items.push_back(std::move(item));
    partial_names.push_back(std::move(name));
  }

  // Final statement: aggregates become SUM over their partial column,
  // keeping the original output names; group keys pass through.
  auto final_stmt = std::make_unique<SelectStatement>();
  final_stmt->group_by = select.group_by;
  size_t agg_index = 0;
  for (size_t i = 0; i < select.items.size(); ++i) {
    const SelectItem& orig = select.items[i];
    SelectItem item;
    if (IsTopLevelAggregate(*orig.expr)) {
      item.expr = MakeAggCall(
          "SUM", MakeColumnRef("__pagg_" + std::to_string(agg_index++)));
      item.alias =
          orig.alias.empty() ? DeriveItemName(*orig.expr, i) : orig.alias;
    } else {
      item.expr = MakeColumnRef(orig.expr->name);
      item.alias = orig.alias;
    }
    final_stmt->items.push_back(std::move(item));
  }

  auto pnode = std::make_unique<LogicalNode>();
  pnode->op = LogicalOp::kAggregate;
  pnode->select = partial.get();
  pnode->output_names = partial_names;
  pnode->children.push_back(std::move(join->children[0]));
  join->children[0] = std::move(pnode);

  // The join's left input narrowed; recompute its output names with the
  // binder's collision rule.
  std::set<std::string> pset(partial_names.begin(), partial_names.end());
  std::vector<std::string> join_names = partial_names;
  for (const std::string& name : *rchild.output_names) {
    join_names.push_back(pset.count(name) > 0 ? name + "_r" : name);
  }
  join->output_names = std::move(join_names);

  node->select = final_stmt.get();
  plan->stmt_arena.push_back(std::move(partial));
  plan->stmt_arena.push_back(std::move(final_stmt));
  obs::MetricsRegistry::Global()
      .GetCounter("mlcs.factorized.agg_pushdowns")
      ->Add(1);
}

}  // namespace

void OptimizePlan(BoundPlan* plan, const OptimizerContext& ctx) {
  if (ctx.eval_constant) {
    FoldConstants(plan->root.get(), plan, ctx);
    RemoveTrueFilters(&plan->root);
  }
  PushDownPredicates(&plan->root);
  if (ctx.catalog != nullptr) {
    PushAggregateBelowJoin(plan->root.get(), plan, ctx.catalog);
    PruneScope(plan->root.get(), ctx.catalog);
  }
}

}  // namespace mlcs::sql
