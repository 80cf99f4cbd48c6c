#include "sql/parser.h"

#include "common/nesting.h"
#include "common/string_util.h"
#include "sql/lexer.h"

namespace mlcs::sql {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<SqlToken> tokens)
      : tokens_(std::move(tokens)) {}

  Result<std::vector<Statement>> ParseAll() {
    std::vector<Statement> statements;
    while (!Check(SqlTokenType::kEof)) {
      if (Match(SqlTokenType::kSemicolon)) continue;
      MLCS_ASSIGN_OR_RETURN(Statement stmt, ParseOne());
      statements.push_back(std::move(stmt));
      if (!Check(SqlTokenType::kEof)) {
        MLCS_RETURN_IF_ERROR(
            Expect(SqlTokenType::kSemicolon, "between statements"));
      }
    }
    return statements;
  }

  Result<Statement> ParseOne() {
    NestingLevel level(&depth_);
    MLCS_RETURN_IF_ERROR(level.Check(Peek().line));
    if (CheckKw("SELECT")) {
      MLCS_ASSIGN_OR_RETURN(SelectStatement select, ParseSelect());
      return Statement(std::move(select));
    }
    if (CheckKw("CREATE")) return ParseCreate();
    if (CheckKw("INSERT")) return ParseInsert();
    if (CheckKw("DROP")) return ParseDrop();
    if (CheckKw("DELETE")) return ParseDelete();
    if (CheckKw("UPDATE")) return ParseUpdate();
    if (MatchKw("SHOW")) {
      ShowStmt stmt;
      if (MatchKw("TABLES")) {
        stmt.what = ShowStmt::What::kTables;
      } else if (MatchKw("FUNCTIONS")) {
        stmt.what = ShowStmt::What::kFunctions;
      } else {
        return Err("expected TABLES or FUNCTIONS after SHOW");
      }
      return Statement(stmt);
    }
    if (MatchKw("DESCRIBE") || MatchKw("DESC")) {
      DescribeStmt stmt;
      MLCS_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("for table name"));
      return Statement(std::move(stmt));
    }
    if (MatchKw("EXPLAIN")) {
      auto wrapper = std::make_unique<ExplainStmt>();
      wrapper->analyze = MatchKw("ANALYZE");
      MLCS_ASSIGN_OR_RETURN(wrapper->inner, ParseOne());
      return Statement(std::move(wrapper));
    }
    return Err(
        "expected SELECT, CREATE, INSERT, DELETE, DROP, SHOW, DESCRIBE or "
        "EXPLAIN");
  }

 private:
  // -- Token helpers --------------------------------------------------------
  const SqlToken& Peek(size_t ahead = 0) const {
    return tokens_[std::min(pos_ + ahead, tokens_.size() - 1)];
  }
  bool Check(SqlTokenType type) const { return Peek().type == type; }
  bool CheckKw(const char* kw, size_t ahead = 0) const {
    const SqlToken& t = Peek(ahead);
    return t.type == SqlTokenType::kIdent && EqualsIgnoreCase(t.text, kw);
  }
  SqlToken Advance() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }
  bool Match(SqlTokenType type) {
    if (!Check(type)) return false;
    Advance();
    return true;
  }
  bool MatchKw(const char* kw) {
    if (!CheckKw(kw)) return false;
    Advance();
    return true;
  }
  bool CheckOp(const char* op) const {
    return Check(SqlTokenType::kOperator) && Peek().text == op;
  }
  bool MatchOp(const char* op) {
    if (!CheckOp(op)) return false;
    Advance();
    return true;
  }
  Status Expect(SqlTokenType type, const char* context) {
    if (Match(type)) return Status::OK();
    return Err(std::string("expected token ") + context);
  }
  Status ExpectKw(const char* kw) {
    if (MatchKw(kw)) return Status::OK();
    return Err(std::string("expected keyword ") + kw);
  }
  Result<std::string> ExpectIdent(const char* context) {
    if (!Check(SqlTokenType::kIdent)) {
      return Err(std::string("expected identifier ") + context);
    }
    return Advance().text;
  }
  Status Err(const std::string& message) const {
    return Status::ParseError(message + " but found '" + Peek().text +
                              "' at line " + std::to_string(Peek().line));
  }

  bool IsReservedKeyword(const std::string& word) const {
    static const char* kReserved[] = {
        "SELECT", "FROM",  "WHERE",  "GROUP",    "BY",     "ORDER",
        "LIMIT",  "JOIN",  "INNER",  "LEFT",     "ON",     "AND",
        "OR",     "NOT",   "AS",     "CREATE",   "TABLE",  "FUNCTION",
        "INSERT", "INTO",  "VALUES", "DROP",     "IF",     "EXISTS",
        "RETURNS", "LANGUAGE", "CAST", "IS",     "NULL",   "TRUE",
        "FALSE",  "ASC",   "DESC",   "REPLACE",  "UNION",  "DELETE",
        "DISTINCT", "HAVING", "IN",   "BETWEEN",  "CASE",   "WHEN",
        "THEN",   "ELSE",  "END",    "UPDATE",   "SET",    "SHOW",
        "DESCRIBE", "EXPLAIN"};
    for (const char* kw : kReserved) {
      if (EqualsIgnoreCase(word, kw)) return true;
    }
    return false;
  }

  // -- Statements -----------------------------------------------------------
  Result<Statement> ParseCreate() {
    MLCS_RETURN_IF_ERROR(ExpectKw("CREATE"));
    bool or_replace = false;
    if (MatchKw("OR")) {
      MLCS_RETURN_IF_ERROR(ExpectKw("REPLACE"));
      or_replace = true;
    }
    if (MatchKw("TABLE")) return ParseCreateTable(or_replace);
    if (MatchKw("FUNCTION")) return ParseCreateFunction(or_replace);
    return Err("expected TABLE or FUNCTION after CREATE");
  }

  Result<Statement> ParseCreateTable(bool or_replace) {
    CreateTableStmt stmt;
    stmt.or_replace = or_replace;
    MLCS_ASSIGN_OR_RETURN(stmt.name, ExpectIdent("for table name"));
    if (MatchKw("AS")) {
      MLCS_ASSIGN_OR_RETURN(SelectStatement select, ParseSelect());
      stmt.as_select =
          std::make_unique<SelectStatement>(std::move(select));
      return Statement(std::move(stmt));
    }
    MLCS_RETURN_IF_ERROR(
        Expect(SqlTokenType::kLParen, "'(' for column list"));
    while (true) {
      MLCS_ASSIGN_OR_RETURN(std::string col, ExpectIdent("for column name"));
      MLCS_ASSIGN_OR_RETURN(std::string type_name,
                            ExpectIdent("for column type"));
      MLCS_ASSIGN_OR_RETURN(TypeId type, TypeIdFromString(type_name));
      stmt.schema.AddField(std::move(col), type);
      if (!Match(SqlTokenType::kComma)) break;
    }
    MLCS_RETURN_IF_ERROR(
        Expect(SqlTokenType::kRParen, "')' after column list"));
    return Statement(std::move(stmt));
  }

  Result<Statement> ParseCreateFunction(bool or_replace) {
    CreateFunctionStmt stmt;
    stmt.or_replace = or_replace;
    MLCS_ASSIGN_OR_RETURN(stmt.name, ExpectIdent("for function name"));
    MLCS_RETURN_IF_ERROR(
        Expect(SqlTokenType::kLParen, "'(' for parameter list"));
    if (!Check(SqlTokenType::kRParen)) {
      while (true) {
        MLCS_ASSIGN_OR_RETURN(std::string pname,
                              ExpectIdent("for parameter name"));
        MLCS_ASSIGN_OR_RETURN(std::string tname,
                              ExpectIdent("for parameter type"));
        MLCS_ASSIGN_OR_RETURN(TypeId type, TypeIdFromString(tname));
        stmt.params.push_back(Field{std::move(pname), type});
        if (!Match(SqlTokenType::kComma)) break;
      }
    }
    MLCS_RETURN_IF_ERROR(
        Expect(SqlTokenType::kRParen, "')' after parameters"));
    MLCS_RETURN_IF_ERROR(ExpectKw("RETURNS"));
    if (MatchKw("TABLE")) {
      stmt.returns_table = true;
      MLCS_RETURN_IF_ERROR(
          Expect(SqlTokenType::kLParen, "'(' for return schema"));
      while (true) {
        MLCS_ASSIGN_OR_RETURN(std::string cname,
                              ExpectIdent("for return column"));
        MLCS_ASSIGN_OR_RETURN(std::string tname,
                              ExpectIdent("for return column type"));
        MLCS_ASSIGN_OR_RETURN(TypeId type, TypeIdFromString(tname));
        stmt.table_schema.AddField(std::move(cname), type);
        if (!Match(SqlTokenType::kComma)) break;
      }
      MLCS_RETURN_IF_ERROR(
          Expect(SqlTokenType::kRParen, "')' after return schema"));
    } else {
      MLCS_ASSIGN_OR_RETURN(std::string tname,
                            ExpectIdent("for return type"));
      MLCS_ASSIGN_OR_RETURN(stmt.scalar_type, TypeIdFromString(tname));
    }
    MLCS_RETURN_IF_ERROR(ExpectKw("LANGUAGE"));
    MLCS_ASSIGN_OR_RETURN(stmt.language, ExpectIdent("for language"));
    if (!Check(SqlTokenType::kBody)) {
      return Err("expected '{' function body");
    }
    stmt.body = Advance().text;
    return Statement(std::move(stmt));
  }

  Result<Statement> ParseInsert() {
    MLCS_RETURN_IF_ERROR(ExpectKw("INSERT"));
    MLCS_RETURN_IF_ERROR(ExpectKw("INTO"));
    InsertStmt stmt;
    MLCS_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("for table name"));
    if (MatchKw("VALUES")) {
      while (true) {
        MLCS_RETURN_IF_ERROR(
            Expect(SqlTokenType::kLParen, "'(' for VALUES row"));
        std::vector<SqlExprPtr> row;
        while (true) {
          MLCS_ASSIGN_OR_RETURN(SqlExprPtr e, ParseExpr());
          row.push_back(std::move(e));
          if (!Match(SqlTokenType::kComma)) break;
        }
        MLCS_RETURN_IF_ERROR(
            Expect(SqlTokenType::kRParen, "')' after VALUES row"));
        stmt.rows.push_back(std::move(row));
        if (!Match(SqlTokenType::kComma)) break;
      }
      return Statement(std::move(stmt));
    }
    if (CheckKw("SELECT")) {
      MLCS_ASSIGN_OR_RETURN(SelectStatement select, ParseSelect());
      stmt.select = std::make_unique<SelectStatement>(std::move(select));
      return Statement(std::move(stmt));
    }
    return Err("expected VALUES or SELECT after INSERT INTO <table>");
  }

  Result<Statement> ParseDrop() {
    MLCS_RETURN_IF_ERROR(ExpectKw("DROP"));
    DropStmt stmt;
    if (MatchKw("FUNCTION")) {
      stmt.is_function = true;
    } else {
      MLCS_RETURN_IF_ERROR(ExpectKw("TABLE"));
    }
    if (MatchKw("IF")) {
      MLCS_RETURN_IF_ERROR(ExpectKw("EXISTS"));
      stmt.if_exists = true;
    }
    MLCS_ASSIGN_OR_RETURN(stmt.name, ExpectIdent("for name"));
    return Statement(std::move(stmt));
  }

  Result<Statement> ParseDelete() {
    MLCS_RETURN_IF_ERROR(ExpectKw("DELETE"));
    MLCS_RETURN_IF_ERROR(ExpectKw("FROM"));
    DeleteStmt stmt;
    MLCS_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("for table name"));
    if (MatchKw("WHERE")) {
      MLCS_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    return Statement(std::move(stmt));
  }

  Result<Statement> ParseUpdate() {
    MLCS_RETURN_IF_ERROR(ExpectKw("UPDATE"));
    UpdateStmt stmt;
    MLCS_ASSIGN_OR_RETURN(stmt.table, ExpectIdent("for table name"));
    MLCS_RETURN_IF_ERROR(ExpectKw("SET"));
    while (true) {
      MLCS_ASSIGN_OR_RETURN(std::string col,
                            ExpectIdent("for column to update"));
      if (!MatchOp("=")) return Err("expected '=' in SET clause");
      MLCS_ASSIGN_OR_RETURN(SqlExprPtr value, ParseExpr());
      stmt.assignments.emplace_back(std::move(col), std::move(value));
      if (!Match(SqlTokenType::kComma)) break;
    }
    if (MatchKw("WHERE")) {
      MLCS_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    return Statement(std::move(stmt));
  }

  // -- SELECT ---------------------------------------------------------------
  Result<SelectStatement> ParseSelect() {
    NestingLevel level(&depth_);
    MLCS_RETURN_IF_ERROR(level.Check(Peek().line));
    MLCS_RETURN_IF_ERROR(ExpectKw("SELECT"));
    SelectStatement select;
    select.distinct = MatchKw("DISTINCT");
    while (true) {
      SelectItem item;
      if (Check(SqlTokenType::kStar)) {
        Advance();
        item.star = true;
      } else {
        MLCS_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (MatchKw("AS")) {
          MLCS_ASSIGN_OR_RETURN(item.alias, ExpectIdent("after AS"));
        } else if (Check(SqlTokenType::kIdent) &&
                   !IsReservedKeyword(Peek().text)) {
          item.alias = Advance().text;
        }
      }
      select.items.push_back(std::move(item));
      if (!Match(SqlTokenType::kComma)) break;
    }
    if (MatchKw("FROM")) {
      MLCS_ASSIGN_OR_RETURN(select.from, ParseTableRef());
    }
    if (MatchKw("WHERE")) {
      MLCS_ASSIGN_OR_RETURN(select.where, ParseExpr());
    }
    if (MatchKw("GROUP")) {
      MLCS_RETURN_IF_ERROR(ExpectKw("BY"));
      while (true) {
        MLCS_ASSIGN_OR_RETURN(std::string col,
                              ParsePossiblyQualifiedName("in GROUP BY"));
        select.group_by.push_back(std::move(col));
        if (!Match(SqlTokenType::kComma)) break;
      }
    }
    if (MatchKw("HAVING")) {
      MLCS_ASSIGN_OR_RETURN(select.having, ParseExpr());
    }
    if (MatchKw("ORDER")) {
      MLCS_RETURN_IF_ERROR(ExpectKw("BY"));
      while (true) {
        OrderItem item;
        MLCS_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (MatchKw("DESC")) {
          item.descending = true;
        } else {
          MatchKw("ASC");
        }
        select.order_by.push_back(std::move(item));
        if (!Match(SqlTokenType::kComma)) break;
      }
    }
    if (MatchKw("LIMIT")) {
      if (!Check(SqlTokenType::kInt)) return Err("expected LIMIT count");
      MLCS_ASSIGN_OR_RETURN(select.limit, ParseInt64(Advance().text));
    }
    return select;
  }

  Result<std::string> ParsePossiblyQualifiedName(const char* context) {
    MLCS_ASSIGN_OR_RETURN(std::string name, ExpectIdent(context));
    while (Match(SqlTokenType::kDot)) {
      MLCS_ASSIGN_OR_RETURN(name, ExpectIdent("after '.'"));
    }
    return name;  // only the last path component is kept
  }

  // -- FROM -----------------------------------------------------------------
  Result<std::unique_ptr<TableRef>> ParseTableRef() {
    MLCS_ASSIGN_OR_RETURN(std::unique_ptr<TableRef> left,
                          ParseTableRefPrimary());
    while (true) {
      exec::JoinType join_type = exec::JoinType::kInner;
      if (MatchKw("LEFT")) {
        MatchKw("OUTER");
        join_type = exec::JoinType::kLeft;
        MLCS_RETURN_IF_ERROR(ExpectKw("JOIN"));
      } else if (MatchKw("INNER")) {
        MLCS_RETURN_IF_ERROR(ExpectKw("JOIN"));
      } else if (!MatchKw("JOIN")) {
        break;
      }
      auto join = std::make_unique<TableRef>();
      join->kind = TableRef::Kind::kJoin;
      join->join_type = join_type;
      join->left = std::move(left);
      MLCS_ASSIGN_OR_RETURN(join->right, ParseTableRefPrimary());
      MLCS_RETURN_IF_ERROR(ExpectKw("ON"));
      while (true) {
        MLCS_ASSIGN_OR_RETURN(std::string a,
                              ParsePossiblyQualifiedName("in join key"));
        if (!MatchOp("=")) return Err("expected '=' in join condition");
        MLCS_ASSIGN_OR_RETURN(std::string b,
                              ParsePossiblyQualifiedName("in join key"));
        join->join_keys.emplace_back(std::move(a), std::move(b));
        if (!MatchKw("AND")) break;
      }
      left = std::move(join);
    }
    return left;
  }

  Result<std::unique_ptr<TableRef>> ParseTableRefPrimary() {
    auto ref = std::make_unique<TableRef>();
    if (Match(SqlTokenType::kLParen)) {
      // (SELECT ...) subquery.
      if (!CheckKw("SELECT")) return Err("expected SELECT in subquery");
      MLCS_ASSIGN_OR_RETURN(SelectStatement select, ParseSelect());
      MLCS_RETURN_IF_ERROR(
          Expect(SqlTokenType::kRParen, "')' after subquery"));
      ref->kind = TableRef::Kind::kSubquery;
      ref->subquery = std::make_unique<SelectStatement>(std::move(select));
    } else {
      MLCS_ASSIGN_OR_RETURN(ref->name, ExpectIdent("for table name"));
      if (Match(SqlTokenType::kLParen)) {
        // Table function call.
        ref->kind = TableRef::Kind::kFunction;
        if (!Check(SqlTokenType::kRParen)) {
          while (true) {
            TableFunctionArg arg;
            if (Check(SqlTokenType::kLParen) && CheckKw("SELECT", 1)) {
              Advance();  // '('
              MLCS_ASSIGN_OR_RETURN(SelectStatement select, ParseSelect());
              MLCS_RETURN_IF_ERROR(Expect(SqlTokenType::kRParen,
                                          "')' after table argument"));
              arg.table =
                  std::make_unique<SelectStatement>(std::move(select));
            } else {
              MLCS_ASSIGN_OR_RETURN(arg.scalar, ParseExpr());
            }
            ref->fn_args.push_back(std::move(arg));
            if (!Match(SqlTokenType::kComma)) break;
          }
        }
        MLCS_RETURN_IF_ERROR(
            Expect(SqlTokenType::kRParen, "')' after function arguments"));
      }
    }
    // Optional alias.
    if (MatchKw("AS")) {
      MLCS_ASSIGN_OR_RETURN(ref->alias, ExpectIdent("after AS"));
    } else if (Check(SqlTokenType::kIdent) &&
               !IsReservedKeyword(Peek().text)) {
      ref->alias = Advance().text;
    }
    return ref;
  }

  // -- Expressions ----------------------------------------------------------
  Result<SqlExprPtr> ParseExpr() {
    NestingLevel level(&depth_);
    MLCS_RETURN_IF_ERROR(level.Check(Peek().line));
    return ParseOr();
  }

  Result<SqlExprPtr> ParseOr() {
    MLCS_ASSIGN_OR_RETURN(SqlExprPtr left, ParseAnd());
    while (CheckKw("OR")) {
      int line = Advance().line;
      MLCS_ASSIGN_OR_RETURN(SqlExprPtr right, ParseAnd());
      left = MakeBinary(exec::BinOpKind::kOr, std::move(left),
                        std::move(right), line);
    }
    return left;
  }

  Result<SqlExprPtr> ParseAnd() {
    MLCS_ASSIGN_OR_RETURN(SqlExprPtr left, ParseNot());
    while (CheckKw("AND")) {
      int line = Advance().line;
      MLCS_ASSIGN_OR_RETURN(SqlExprPtr right, ParseNot());
      left = MakeBinary(exec::BinOpKind::kAnd, std::move(left),
                        std::move(right), line);
    }
    return left;
  }

  Result<SqlExprPtr> ParseNot() {
    if (CheckKw("NOT")) {
      NestingLevel level(&depth_);
      MLCS_RETURN_IF_ERROR(level.Check(Peek().line));
      int line = Advance().line;
      MLCS_ASSIGN_OR_RETURN(SqlExprPtr operand, ParseNot());
      auto e = std::make_unique<SqlExpr>();
      e->kind = SqlExprKind::kUnary;
      e->un_op = exec::UnOpKind::kNot;
      e->left = std::move(operand);
      e->line = line;
      return e;
    }
    return ParseComparison();
  }

  /// Deep copy of an expression (needed to desugar IN / BETWEEN, whose
  /// probe expression appears in several comparisons).
  static SqlExprPtr CloneExpr(const SqlExpr& e) {
    auto out = std::make_unique<SqlExpr>();
    out->kind = e.kind;
    out->line = e.line;
    out->literal = e.literal;
    out->name = e.name;
    out->bin_op = e.bin_op;
    out->un_op = e.un_op;
    out->cast_type = e.cast_type;
    out->is_not_null = e.is_not_null;
    if (e.left != nullptr) out->left = CloneExpr(*e.left);
    if (e.right != nullptr) out->right = CloneExpr(*e.right);
    for (const auto& arg : e.args) out->args.push_back(CloneExpr(*arg));
    for (const auto& [cond, value] : e.when_clauses) {
      out->when_clauses.emplace_back(CloneExpr(*cond), CloneExpr(*value));
    }
    if (e.subquery != nullptr) {
      // Subqueries inside IN/BETWEEN probes are rare; forbid cloning them
      // rather than deep-copying a statement tree.
      out->subquery = nullptr;
    }
    return out;
  }

  Result<SqlExprPtr> ParseComparison() {
    MLCS_ASSIGN_OR_RETURN(SqlExprPtr left, ParseAdditive());
    // [NOT] IN (list) / [NOT] BETWEEN lo AND hi postfixes (desugared).
    bool negated_postfix = false;
    if (CheckKw("NOT") && (CheckKw("IN", 1) || CheckKw("BETWEEN", 1))) {
      Advance();
      negated_postfix = true;
    }
    if (CheckKw("IN")) {
      int line = Advance().line;
      if (left->subquery != nullptr) {
        return Status::ParseError("subqueries are not allowed in IN lists");
      }
      MLCS_RETURN_IF_ERROR(Expect(SqlTokenType::kLParen, "'(' after IN"));
      SqlExprPtr disjunction;
      while (true) {
        MLCS_ASSIGN_OR_RETURN(SqlExprPtr item, ParseExpr());
        SqlExprPtr eq = MakeBinary(exec::BinOpKind::kEq, CloneExpr(*left),
                                   std::move(item), line);
        disjunction = disjunction == nullptr
                          ? std::move(eq)
                          : MakeBinary(exec::BinOpKind::kOr,
                                       std::move(disjunction), std::move(eq),
                                       line);
        if (!Match(SqlTokenType::kComma)) break;
      }
      MLCS_RETURN_IF_ERROR(
          Expect(SqlTokenType::kRParen, "')' after IN list"));
      if (negated_postfix) {
        auto e = std::make_unique<SqlExpr>();
        e->kind = SqlExprKind::kUnary;
        e->un_op = exec::UnOpKind::kNot;
        e->left = std::move(disjunction);
        e->line = line;
        return e;
      }
      return disjunction;
    }
    if (CheckKw("BETWEEN")) {
      int line = Advance().line;
      MLCS_ASSIGN_OR_RETURN(SqlExprPtr lo, ParseAdditive());
      MLCS_RETURN_IF_ERROR(ExpectKw("AND"));
      MLCS_ASSIGN_OR_RETURN(SqlExprPtr hi, ParseAdditive());
      SqlExprPtr ge = MakeBinary(exec::BinOpKind::kGe, CloneExpr(*left),
                                 std::move(lo), line);
      SqlExprPtr le = MakeBinary(exec::BinOpKind::kLe, std::move(left),
                                 std::move(hi), line);
      SqlExprPtr both = MakeBinary(exec::BinOpKind::kAnd, std::move(ge),
                                   std::move(le), line);
      if (negated_postfix) {
        auto e = std::make_unique<SqlExpr>();
        e->kind = SqlExprKind::kUnary;
        e->un_op = exec::UnOpKind::kNot;
        e->left = std::move(both);
        e->line = line;
        return e;
      }
      return both;
    }
    if (negated_postfix) {
      return Err("expected IN or BETWEEN after NOT");
    }
    // IS [NOT] NULL postfix.
    if (CheckKw("IS")) {
      int line = Advance().line;
      bool negated = MatchKw("NOT");
      MLCS_RETURN_IF_ERROR(ExpectKw("NULL"));
      auto e = std::make_unique<SqlExpr>();
      e->kind = SqlExprKind::kIsNull;
      e->is_not_null = negated;
      e->left = std::move(left);
      e->line = line;
      return e;
    }
    exec::BinOpKind op;
    if (CheckOp("=")) {
      op = exec::BinOpKind::kEq;
    } else if (CheckOp("<>") || CheckOp("!=")) {
      op = exec::BinOpKind::kNe;
    } else if (CheckOp("<")) {
      op = exec::BinOpKind::kLt;
    } else if (CheckOp("<=")) {
      op = exec::BinOpKind::kLe;
    } else if (CheckOp(">")) {
      op = exec::BinOpKind::kGt;
    } else if (CheckOp(">=")) {
      op = exec::BinOpKind::kGe;
    } else {
      return left;
    }
    int line = Advance().line;
    MLCS_ASSIGN_OR_RETURN(SqlExprPtr right, ParseAdditive());
    return MakeBinary(op, std::move(left), std::move(right), line);
  }

  Result<SqlExprPtr> ParseAdditive() {
    MLCS_ASSIGN_OR_RETURN(SqlExprPtr left, ParseMultiplicative());
    while (CheckOp("+") || CheckOp("-")) {
      exec::BinOpKind op =
          Peek().text == "+" ? exec::BinOpKind::kAdd : exec::BinOpKind::kSub;
      int line = Advance().line;
      MLCS_ASSIGN_OR_RETURN(SqlExprPtr right, ParseMultiplicative());
      left = MakeBinary(op, std::move(left), std::move(right), line);
    }
    return left;
  }

  Result<SqlExprPtr> ParseMultiplicative() {
    MLCS_ASSIGN_OR_RETURN(SqlExprPtr left, ParseUnary());
    while (Check(SqlTokenType::kStar) || CheckOp("/") || CheckOp("%")) {
      exec::BinOpKind op = Check(SqlTokenType::kStar)
                               ? exec::BinOpKind::kMul
                               : (Peek().text == "/" ? exec::BinOpKind::kDiv
                                                     : exec::BinOpKind::kMod);
      int line = Advance().line;
      MLCS_ASSIGN_OR_RETURN(SqlExprPtr right, ParseUnary());
      left = MakeBinary(op, std::move(left), std::move(right), line);
    }
    return left;
  }

  Result<SqlExprPtr> ParseUnary() {
    if (CheckOp("-")) {
      NestingLevel level(&depth_);
      MLCS_RETURN_IF_ERROR(level.Check(Peek().line));
      int line = Advance().line;
      MLCS_ASSIGN_OR_RETURN(SqlExprPtr operand, ParseUnary());
      auto e = std::make_unique<SqlExpr>();
      e->kind = SqlExprKind::kUnary;
      e->un_op = exec::UnOpKind::kNeg;
      e->left = std::move(operand);
      e->line = line;
      return e;
    }
    return ParsePrimary();
  }

  Result<SqlExprPtr> ParsePrimary() {
    int line = Peek().line;
    if (Match(SqlTokenType::kLParen)) {
      if (CheckKw("SELECT")) {
        MLCS_ASSIGN_OR_RETURN(SelectStatement select, ParseSelect());
        MLCS_RETURN_IF_ERROR(
            Expect(SqlTokenType::kRParen, "')' after scalar subquery"));
        auto e = std::make_unique<SqlExpr>();
        e->kind = SqlExprKind::kSubquery;
        e->subquery = std::make_unique<SelectStatement>(std::move(select));
        e->line = line;
        return e;
      }
      MLCS_ASSIGN_OR_RETURN(SqlExprPtr inner, ParseExpr());
      MLCS_RETURN_IF_ERROR(Expect(SqlTokenType::kRParen, "')'"));
      return inner;
    }
    if (Check(SqlTokenType::kInt)) {
      SqlToken tok = Advance();
      MLCS_ASSIGN_OR_RETURN(int64_t v, ParseInt64(tok.text));
      return MakeLiteral(v >= INT32_MIN && v <= INT32_MAX
                             ? Value::Int32(static_cast<int32_t>(v))
                             : Value::Int64(v),
                         line);
    }
    if (Check(SqlTokenType::kFloat)) {
      SqlToken tok = Advance();
      MLCS_ASSIGN_OR_RETURN(double v, ParseDouble(tok.text));
      return MakeLiteral(Value::Double(v), line);
    }
    if (Check(SqlTokenType::kString)) {
      return MakeLiteral(Value::Varchar(Advance().text), line);
    }
    if (MatchKw("TRUE")) return MakeLiteral(Value::Bool(true), line);
    if (MatchKw("FALSE")) return MakeLiteral(Value::Bool(false), line);
    if (MatchKw("NULL")) {
      return MakeLiteral(Value::MakeNull(TypeId::kInt32), line);
    }
    if (CheckKw("CASE")) {
      Advance();
      auto e = std::make_unique<SqlExpr>();
      e->kind = SqlExprKind::kCase;
      e->line = line;
      if (!CheckKw("WHEN")) {
        return Err("expected WHEN after CASE (simple CASE form is not "
                   "supported; use CASE WHEN <cond> THEN <value>)");
      }
      while (MatchKw("WHEN")) {
        MLCS_ASSIGN_OR_RETURN(SqlExprPtr cond, ParseExpr());
        MLCS_RETURN_IF_ERROR(ExpectKw("THEN"));
        MLCS_ASSIGN_OR_RETURN(SqlExprPtr value, ParseExpr());
        e->when_clauses.emplace_back(std::move(cond), std::move(value));
      }
      if (MatchKw("ELSE")) {
        MLCS_ASSIGN_OR_RETURN(e->left, ParseExpr());
      }
      MLCS_RETURN_IF_ERROR(ExpectKw("END"));
      return e;
    }
    if (CheckKw("CAST")) {
      Advance();
      MLCS_RETURN_IF_ERROR(Expect(SqlTokenType::kLParen, "'(' after CAST"));
      auto e = std::make_unique<SqlExpr>();
      e->kind = SqlExprKind::kCast;
      e->line = line;
      MLCS_ASSIGN_OR_RETURN(e->left, ParseExpr());
      MLCS_RETURN_IF_ERROR(ExpectKw("AS"));
      MLCS_ASSIGN_OR_RETURN(std::string tname,
                            ExpectIdent("for CAST target type"));
      MLCS_ASSIGN_OR_RETURN(e->cast_type, TypeIdFromString(tname));
      MLCS_RETURN_IF_ERROR(Expect(SqlTokenType::kRParen, "')' after CAST"));
      return e;
    }
    if (Check(SqlTokenType::kIdent)) {
      if (IsReservedKeyword(Peek().text)) {
        return Err("unexpected keyword in expression");
      }
      MLCS_ASSIGN_OR_RETURN(std::string name,
                            ParsePossiblyQualifiedName("in expression"));
      if (Match(SqlTokenType::kLParen)) {
        auto e = std::make_unique<SqlExpr>();
        e->kind = SqlExprKind::kCall;
        e->name = std::move(name);
        e->line = line;
        if (!Check(SqlTokenType::kRParen)) {
          while (true) {
            if (Check(SqlTokenType::kStar) &&
                Peek(1).type == SqlTokenType::kRParen) {
              Advance();
              auto star = std::make_unique<SqlExpr>();
              star->kind = SqlExprKind::kStar;
              star->line = line;
              e->args.push_back(std::move(star));
              break;
            }
            MLCS_ASSIGN_OR_RETURN(SqlExprPtr arg, ParseExpr());
            e->args.push_back(std::move(arg));
            if (!Match(SqlTokenType::kComma)) break;
          }
        }
        MLCS_RETURN_IF_ERROR(
            Expect(SqlTokenType::kRParen, "')' after call arguments"));
        return e;
      }
      auto e = std::make_unique<SqlExpr>();
      e->kind = SqlExprKind::kColumnRef;
      e->name = std::move(name);
      e->line = line;
      return e;
    }
    return Err("unexpected token in expression");
  }

  static SqlExprPtr MakeBinary(exec::BinOpKind op, SqlExprPtr left,
                               SqlExprPtr right, int line) {
    auto e = std::make_unique<SqlExpr>();
    e->kind = SqlExprKind::kBinary;
    e->bin_op = op;
    e->left = std::move(left);
    e->right = std::move(right);
    e->line = line;
    return e;
  }

  static Result<SqlExprPtr> MakeLiteral(Value v, int line) {
    auto e = std::make_unique<SqlExpr>();
    e->kind = SqlExprKind::kLiteral;
    e->literal = std::move(v);
    e->line = line;
    return e;
  }

  std::vector<SqlToken> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  // current nesting (NestingLevel)
};

}  // namespace

std::string SqlExpr::ToString() const {
  switch (kind) {
    case SqlExprKind::kLiteral:
      return literal.ToString();
    case SqlExprKind::kColumnRef:
      return name;
    case SqlExprKind::kStar:
      return "*";
    case SqlExprKind::kBinary:
      return "(" + left->ToString() + " " +
             exec::BinOpKindToString(bin_op) + " " + right->ToString() + ")";
    case SqlExprKind::kUnary:
      return std::string(un_op == exec::UnOpKind::kNeg ? "-" : "NOT ") +
             left->ToString();
    case SqlExprKind::kCall: {
      std::string out = name + "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->ToString();
      }
      return out + ")";
    }
    case SqlExprKind::kCast:
      return "CAST(" + left->ToString() + " AS " +
             TypeIdToString(cast_type) + ")";
    case SqlExprKind::kIsNull:
      return left->ToString() + (is_not_null ? " IS NOT NULL" : " IS NULL");
    case SqlExprKind::kSubquery:
      return "(<subquery>)";
    case SqlExprKind::kCase: {
      std::string out = "CASE";
      for (const auto& [cond, value] : when_clauses) {
        out += " WHEN " + cond->ToString() + " THEN " + value->ToString();
      }
      if (left != nullptr) out += " ELSE " + left->ToString();
      return out + " END";
    }
  }
  return "?";
}

Result<Statement> ParseStatement(const std::string& sql) {
  MLCS_ASSIGN_OR_RETURN(std::vector<Statement> statements, ParseScript(sql));
  if (statements.size() != 1) {
    return Status::ParseError("expected exactly one statement, got " +
                              std::to_string(statements.size()));
  }
  return std::move(statements[0]);
}

Result<std::vector<Statement>> ParseScript(const std::string& sql) {
  MLCS_ASSIGN_OR_RETURN(std::vector<SqlToken> tokens, TokenizeSql(sql));
  Parser parser(std::move(tokens));
  return parser.ParseAll();
}

}  // namespace mlcs::sql
