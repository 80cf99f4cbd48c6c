#include "vscript/vs_parser.h"

#include "common/nesting.h"
#include "common/string_util.h"
#include "vscript/vs_lexer.h"

namespace mlcs::vscript {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Program> ParseProgram() {
    Program program;
    while (!Check(TokenType::kEof)) {
      MLCS_ASSIGN_OR_RETURN(StmtPtr stmt, ParseStatement());
      program.statements.push_back(std::move(stmt));
    }
    return program;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  bool Check(TokenType type) const { return Peek().type == type; }
  Token Advance() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }
  bool Match(TokenType type) {
    if (!Check(type)) return false;
    Advance();
    return true;
  }
  Status Expect(TokenType type, const char* context) {
    if (Check(type)) {
      Advance();
      return Status::OK();
    }
    return Status::ParseError(
        std::string("expected ") + TokenTypeToString(type) + " " + context +
        " but found '" + Peek().text + "' at line " +
        std::to_string(Peek().line));
  }

  Result<StmtPtr> ParseStatement() {
    NestingLevel level(&depth_);
    MLCS_RETURN_IF_ERROR(level.Check(Peek().line));
    int line = Peek().line;
    if (Match(TokenType::kReturn)) {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::kReturn;
      stmt->line = line;
      MLCS_ASSIGN_OR_RETURN(stmt->expr, ParseExpr());
      MLCS_RETURN_IF_ERROR(Expect(TokenType::kSemicolon, "after return"));
      return stmt;
    }
    if (Match(TokenType::kIf)) {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::kIf;
      stmt->line = line;
      MLCS_RETURN_IF_ERROR(Expect(TokenType::kLParen, "after if"));
      MLCS_ASSIGN_OR_RETURN(stmt->expr, ParseExpr());
      MLCS_RETURN_IF_ERROR(Expect(TokenType::kRParen, "after if condition"));
      MLCS_ASSIGN_OR_RETURN(stmt->body, ParseBlock());
      if (Match(TokenType::kElse)) {
        if (Check(TokenType::kIf)) {
          // else if → single-statement else block.
          MLCS_ASSIGN_OR_RETURN(StmtPtr nested, ParseStatement());
          stmt->orelse.push_back(std::move(nested));
        } else {
          MLCS_ASSIGN_OR_RETURN(stmt->orelse, ParseBlock());
        }
      }
      return stmt;
    }
    if (Match(TokenType::kWhile)) {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::kWhile;
      stmt->line = line;
      MLCS_RETURN_IF_ERROR(Expect(TokenType::kLParen, "after while"));
      MLCS_ASSIGN_OR_RETURN(stmt->expr, ParseExpr());
      MLCS_RETURN_IF_ERROR(
          Expect(TokenType::kRParen, "after while condition"));
      MLCS_ASSIGN_OR_RETURN(stmt->body, ParseBlock());
      return stmt;
    }
    // Assignment: ident '=' (but not '==').
    if (Check(TokenType::kIdent) && Peek(1).type == TokenType::kAssign) {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::kAssign;
      stmt->line = line;
      stmt->target = Advance().text;
      Advance();  // '='
      MLCS_ASSIGN_OR_RETURN(stmt->expr, ParseExpr());
      MLCS_RETURN_IF_ERROR(
          Expect(TokenType::kSemicolon, "after assignment"));
      return stmt;
    }
    // Expression statement.
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kExpr;
    stmt->line = line;
    MLCS_ASSIGN_OR_RETURN(stmt->expr, ParseExpr());
    MLCS_RETURN_IF_ERROR(Expect(TokenType::kSemicolon, "after expression"));
    return stmt;
  }

  Result<std::vector<StmtPtr>> ParseBlock() {
    MLCS_RETURN_IF_ERROR(Expect(TokenType::kLBrace, "to open block"));
    std::vector<StmtPtr> body;
    while (!Check(TokenType::kRBrace) && !Check(TokenType::kEof)) {
      MLCS_ASSIGN_OR_RETURN(StmtPtr stmt, ParseStatement());
      body.push_back(std::move(stmt));
    }
    MLCS_RETURN_IF_ERROR(Expect(TokenType::kRBrace, "to close block"));
    return body;
  }

  Result<ExprPtr> ParseExpr() {
    NestingLevel level(&depth_);
    MLCS_RETURN_IF_ERROR(level.Check(Peek().line));
    return ParseOr();
  }

  Result<ExprPtr> ParseOr() {
    MLCS_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (Check(TokenType::kOr)) {
      int line = Advance().line;
      MLCS_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      left = MakeBinary(exec::BinOpKind::kOr, std::move(left),
                        std::move(right), line);
    }
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    MLCS_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (Check(TokenType::kAnd)) {
      int line = Advance().line;
      MLCS_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      left = MakeBinary(exec::BinOpKind::kAnd, std::move(left),
                        std::move(right), line);
    }
    return left;
  }

  Result<ExprPtr> ParseNot() {
    if (Check(TokenType::kNot)) {
      NestingLevel level(&depth_);
      MLCS_RETURN_IF_ERROR(level.Check(Peek().line));
      int line = Advance().line;
      MLCS_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kUnary;
      e->un_op = exec::UnOpKind::kNot;
      e->left = std::move(operand);
      e->line = line;
      return e;
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    MLCS_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
    exec::BinOpKind op;
    switch (Peek().type) {
      case TokenType::kEq:
        op = exec::BinOpKind::kEq;
        break;
      case TokenType::kNe:
        op = exec::BinOpKind::kNe;
        break;
      case TokenType::kLt:
        op = exec::BinOpKind::kLt;
        break;
      case TokenType::kLe:
        op = exec::BinOpKind::kLe;
        break;
      case TokenType::kGt:
        op = exec::BinOpKind::kGt;
        break;
      case TokenType::kGe:
        op = exec::BinOpKind::kGe;
        break;
      default:
        return left;
    }
    int line = Advance().line;
    MLCS_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
    return MakeBinary(op, std::move(left), std::move(right), line);
  }

  Result<ExprPtr> ParseAdditive() {
    MLCS_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    while (Check(TokenType::kPlus) || Check(TokenType::kMinus)) {
      exec::BinOpKind op = Check(TokenType::kPlus) ? exec::BinOpKind::kAdd
                                                   : exec::BinOpKind::kSub;
      int line = Advance().line;
      MLCS_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
      left = MakeBinary(op, std::move(left), std::move(right), line);
    }
    return left;
  }

  Result<ExprPtr> ParseMultiplicative() {
    MLCS_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    while (Check(TokenType::kStar) || Check(TokenType::kSlash) ||
           Check(TokenType::kPercent)) {
      exec::BinOpKind op = Check(TokenType::kStar) ? exec::BinOpKind::kMul
                           : Check(TokenType::kSlash)
                               ? exec::BinOpKind::kDiv
                               : exec::BinOpKind::kMod;
      int line = Advance().line;
      MLCS_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
      left = MakeBinary(op, std::move(left), std::move(right), line);
    }
    return left;
  }

  Result<ExprPtr> ParseUnary() {
    if (Check(TokenType::kMinus)) {
      NestingLevel level(&depth_);
      MLCS_RETURN_IF_ERROR(level.Check(Peek().line));
      int line = Advance().line;
      MLCS_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kUnary;
      e->un_op = exec::UnOpKind::kNeg;
      e->left = std::move(operand);
      e->line = line;
      return e;
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    int line = Peek().line;
    if (Match(TokenType::kLParen)) {
      MLCS_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
      MLCS_RETURN_IF_ERROR(Expect(TokenType::kRParen, "to close group"));
      return inner;
    }
    if (Check(TokenType::kInt)) {
      Token tok = Advance();
      MLCS_ASSIGN_OR_RETURN(int64_t v, ParseInt64(tok.text));
      return MakeLiteral(v >= INT32_MIN && v <= INT32_MAX
                             ? Value::Int32(static_cast<int32_t>(v))
                             : Value::Int64(v),
                         line);
    }
    if (Check(TokenType::kFloat)) {
      Token tok = Advance();
      MLCS_ASSIGN_OR_RETURN(double v, ParseDouble(tok.text));
      return MakeLiteral(Value::Double(v), line);
    }
    if (Check(TokenType::kString)) {
      return MakeLiteral(Value::Varchar(Advance().text), line);
    }
    if (Match(TokenType::kTrue)) return MakeLiteral(Value::Bool(true), line);
    if (Match(TokenType::kFalse)) {
      return MakeLiteral(Value::Bool(false), line);
    }
    if (Match(TokenType::kNull)) {
      return MakeLiteral(Value::MakeNull(TypeId::kInt32), line);
    }
    if (Check(TokenType::kLBrace)) return ParseDict();
    if (Check(TokenType::kIdent)) return ParseIdentOrCall();
    return Status::ParseError("unexpected token '" + Peek().text +
                              "' at line " + std::to_string(line));
  }

  Result<ExprPtr> ParseDict() {
    int line = Peek().line;
    MLCS_RETURN_IF_ERROR(Expect(TokenType::kLBrace, "to open dict"));
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kDict;
    e->line = line;
    if (!Check(TokenType::kRBrace)) {
      while (true) {
        if (!Check(TokenType::kIdent) && !Check(TokenType::kString)) {
          return Status::ParseError("expected dict key at line " +
                                    std::to_string(Peek().line));
        }
        std::string key = Advance().text;
        MLCS_RETURN_IF_ERROR(Expect(TokenType::kColon, "after dict key"));
        MLCS_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
        e->entries.emplace_back(std::move(key), std::move(value));
        if (!Match(TokenType::kComma)) break;
      }
    }
    MLCS_RETURN_IF_ERROR(Expect(TokenType::kRBrace, "to close dict"));
    return e;
  }

  Result<ExprPtr> ParseIdentOrCall() {
    int line = Peek().line;
    std::string name = Advance().text;
    while (Match(TokenType::kDot)) {
      if (!Check(TokenType::kIdent)) {
        return Status::ParseError("expected identifier after '.' at line " +
                                  std::to_string(Peek().line));
      }
      name += ".";
      name += Advance().text;
    }
    if (Match(TokenType::kLParen)) {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kCall;
      e->name = std::move(name);
      e->line = line;
      if (!Check(TokenType::kRParen)) {
        while (true) {
          MLCS_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
          e->args.push_back(std::move(arg));
          if (!Match(TokenType::kComma)) break;
        }
      }
      MLCS_RETURN_IF_ERROR(Expect(TokenType::kRParen, "to close call"));
      return e;
    }
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kVariable;
    e->name = std::move(name);
    e->line = line;
    return e;
  }

  static ExprPtr MakeBinary(exec::BinOpKind op, ExprPtr left, ExprPtr right,
                            int line) {
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kBinary;
    e->bin_op = op;
    e->left = std::move(left);
    e->right = std::move(right);
    e->line = line;
    return e;
  }

  static Result<ExprPtr> MakeLiteral(Value v, int line) {
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kLiteral;
    e->literal = std::move(v);
    e->line = line;
    return e;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  // current nesting (NestingLevel)
};

}  // namespace

Result<Program> Parse(const std::string& source) {
  MLCS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  Parser parser(std::move(tokens));
  return parser.ParseProgram();
}

}  // namespace mlcs::vscript
