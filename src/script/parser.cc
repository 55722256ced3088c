#include "script/parser.h"

#include <algorithm>

#include "common/string_util.h"
#include "script/lexer.h"

namespace gamedb::script {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Script> Run(std::string name) {
    Script script;
    script.name = std::move(name);
    while (!Check(TokenType::kEof)) {
      if (Check(TokenType::kFn) || Check(TokenType::kOn)) {
        GAMEDB_ASSIGN_OR_RETURN(auto decl, ParseDecl());
        const Stmt* raw = decl.get();
        if (raw->kind == StmtKind::kFn) {
          if (script.functions.count(raw->name)) {
            return Err(raw->line, "duplicate function '" + raw->name + "'");
          }
          script.functions.emplace(raw->name, raw);
        } else {
          script.handlers.push_back(raw);
        }
        script.decls.push_back(std::move(decl));
      } else {
        GAMEDB_ASSIGN_OR_RETURN(auto stmt, ParseStmt());
        script.top_level.push_back(std::move(stmt));
      }
    }
    return script;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Prev() const { return tokens_[pos_ - 1]; }
  bool Check(TokenType t) const { return Peek().type == t; }
  bool Match(TokenType t) {
    if (!Check(t)) return false;
    ++pos_;
    return true;
  }
  Status Err(int line, const std::string& msg) const {
    return Status::ParseError(StringFormat("line %d: %s", line, msg.c_str()));
  }
  Status Expect(TokenType t) {
    if (Match(t)) return Status::OK();
    return Err(Peek().line, std::string("expected ") + TokenTypeName(t) +
                                ", got " + TokenTypeName(Peek().type));
  }

  /// One nesting level below the current one (see kMaxAstDepth), left when
  /// the guard goes out of scope.
  struct Level {
    explicit Level(int* d) : depth(d) { ++*depth; }
    ~Level() { --*depth; }
    Level(const Level&) = delete;
    Level& operator=(const Level&) = delete;
    int* depth;
  };
  Status CheckDepth(int depth) const {
    if (depth <= kMaxAstDepth) return Status::OK();
    return Err(Peek().line,
               StringFormat("nesting deeper than %d levels", kMaxAstDepth));
  }
  /// Height of the expression tree under `e`; a leaf is 1.
  static int Height(const Expr& e) {
    int height = 0;
    for (const auto& arg : e.args) height = std::max(height, Height(*arg));
    return height + 1;
  }

  Result<std::unique_ptr<Stmt>> ParseDecl() {
    Level level(&depth_);
    bool is_fn = Match(TokenType::kFn);
    if (!is_fn) GAMEDB_RETURN_NOT_OK(Expect(TokenType::kOn));
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = is_fn ? StmtKind::kFn : StmtKind::kOn;
    stmt->line = Prev().line;
    stmt->col = Prev().column;
    GAMEDB_RETURN_NOT_OK(Expect(TokenType::kIdent));
    stmt->name = Prev().text;
    GAMEDB_RETURN_NOT_OK(Expect(TokenType::kLParen));
    if (!Check(TokenType::kRParen)) {
      do {
        GAMEDB_RETURN_NOT_OK(Expect(TokenType::kIdent));
        stmt->params.push_back(Prev().text);
      } while (Match(TokenType::kComma));
    }
    GAMEDB_RETURN_NOT_OK(Expect(TokenType::kRParen));
    GAMEDB_ASSIGN_OR_RETURN(stmt->body, ParseBlock());
    return stmt;
  }

  Result<std::vector<std::unique_ptr<Stmt>>> ParseBlock() {
    GAMEDB_RETURN_NOT_OK(Expect(TokenType::kLBrace));
    std::vector<std::unique_ptr<Stmt>> body;
    while (!Check(TokenType::kRBrace)) {
      if (Check(TokenType::kEof)) {
        return Err(Peek().line, "unterminated block");
      }
      GAMEDB_ASSIGN_OR_RETURN(auto stmt, ParseStmt());
      body.push_back(std::move(stmt));
    }
    GAMEDB_RETURN_NOT_OK(Expect(TokenType::kRBrace));
    return body;
  }

  Result<std::unique_ptr<Stmt>> ParseStmt() {
    Level level(&depth_);
    GAMEDB_RETURN_NOT_OK(CheckDepth(depth_));
    auto stmt = std::make_unique<Stmt>();
    stmt->line = Peek().line;
    stmt->col = Peek().column;

    if (Match(TokenType::kLet)) {
      stmt->kind = StmtKind::kLet;
      GAMEDB_RETURN_NOT_OK(Expect(TokenType::kIdent));
      stmt->name = Prev().text;
      GAMEDB_RETURN_NOT_OK(Expect(TokenType::kAssign));
      GAMEDB_ASSIGN_OR_RETURN(stmt->expr, ParseExpr());
      return stmt;
    }
    if (Match(TokenType::kIf)) {
      stmt->kind = StmtKind::kIf;
      GAMEDB_ASSIGN_OR_RETURN(stmt->expr, ParseExpr());
      GAMEDB_ASSIGN_OR_RETURN(stmt->body, ParseBlock());
      if (Match(TokenType::kElse)) {
        if (Check(TokenType::kIf)) {
          GAMEDB_ASSIGN_OR_RETURN(auto elif, ParseStmt());
          stmt->else_body.push_back(std::move(elif));
        } else {
          GAMEDB_ASSIGN_OR_RETURN(stmt->else_body, ParseBlock());
        }
      }
      return stmt;
    }
    if (Match(TokenType::kWhile)) {
      stmt->kind = StmtKind::kWhile;
      GAMEDB_ASSIGN_OR_RETURN(stmt->expr, ParseExpr());
      GAMEDB_ASSIGN_OR_RETURN(stmt->body, ParseBlock());
      return stmt;
    }
    if (Match(TokenType::kForeach)) {
      stmt->kind = StmtKind::kForeach;
      GAMEDB_RETURN_NOT_OK(Expect(TokenType::kIdent));
      stmt->name = Prev().text;
      GAMEDB_RETURN_NOT_OK(Expect(TokenType::kIn));
      GAMEDB_ASSIGN_OR_RETURN(stmt->expr, ParseExpr());
      GAMEDB_ASSIGN_OR_RETURN(stmt->body, ParseBlock());
      return stmt;
    }
    if (Match(TokenType::kReturn)) {
      stmt->kind = StmtKind::kReturn;
      // Optional value: anything that can start an expression.
      if (!Check(TokenType::kRBrace) && !Check(TokenType::kEof)) {
        GAMEDB_ASSIGN_OR_RETURN(stmt->expr, ParseExpr());
      }
      return stmt;
    }
    if (Match(TokenType::kBreak)) {
      stmt->kind = StmtKind::kBreak;
      return stmt;
    }
    if (Match(TokenType::kContinue)) {
      stmt->kind = StmtKind::kContinue;
      return stmt;
    }
    // Assignment: IDENT '=' expr (lookahead two tokens).
    if (Check(TokenType::kIdent) &&
        tokens_[pos_ + 1].type == TokenType::kAssign) {
      stmt->kind = StmtKind::kAssign;
      stmt->name = Peek().text;
      pos_ += 2;
      GAMEDB_ASSIGN_OR_RETURN(stmt->expr, ParseExpr());
      return stmt;
    }
    stmt->kind = StmtKind::kExpr;
    GAMEDB_ASSIGN_OR_RETURN(stmt->expr, ParseExpr());
    return stmt;
  }

  Result<std::unique_ptr<Expr>> ParseExpr() {
    Level level(&depth_);
    GAMEDB_RETURN_NOT_OK(CheckDepth(depth_));
    return ParseOr();
  }

  Result<std::unique_ptr<Expr>> ParseBinaryChain(
      Result<std::unique_ptr<Expr>> (Parser::*next)(),
      std::initializer_list<TokenType> ops) {
    GAMEDB_ASSIGN_OR_RETURN(auto lhs, (this->*next)());
    int height = 0;  // of `lhs`, once an operator wraps it
    while (true) {
      bool matched = false;
      for (TokenType op : ops) {
        if (Match(op)) {
          auto node = std::make_unique<Expr>();
          node->kind = ExprKind::kBinary;
          node->line = Prev().line;
          node->col = Prev().column;
          node->op = op;
          std::unique_ptr<Expr> rhs;
          {
            Level level(&depth_);
            GAMEDB_RETURN_NOT_OK(CheckDepth(depth_));
            GAMEDB_ASSIGN_OR_RETURN(rhs, (this->*next)());
          }
          // Each operator pushes the chain's earlier operands one level
          // deeper.
          if (height == 0) height = Height(*lhs);
          height = std::max(height, Height(*rhs)) + 1;
          GAMEDB_RETURN_NOT_OK(CheckDepth(depth_ + height - 1));
          node->args.push_back(std::move(lhs));
          node->args.push_back(std::move(rhs));
          lhs = std::move(node);
          matched = true;
          break;
        }
      }
      if (!matched) return lhs;
    }
  }

  Result<std::unique_ptr<Expr>> ParseOr() {
    return ParseBinaryChain(&Parser::ParseAnd, {TokenType::kOr});
  }
  Result<std::unique_ptr<Expr>> ParseAnd() {
    return ParseBinaryChain(&Parser::ParseEq, {TokenType::kAnd});
  }
  Result<std::unique_ptr<Expr>> ParseEq() {
    return ParseBinaryChain(&Parser::ParseCmp,
                            {TokenType::kEq, TokenType::kNe});
  }
  Result<std::unique_ptr<Expr>> ParseCmp() {
    return ParseBinaryChain(&Parser::ParseAdd,
                            {TokenType::kLt, TokenType::kLe, TokenType::kGt,
                             TokenType::kGe});
  }
  Result<std::unique_ptr<Expr>> ParseAdd() {
    return ParseBinaryChain(&Parser::ParseMul,
                            {TokenType::kPlus, TokenType::kMinus});
  }
  Result<std::unique_ptr<Expr>> ParseMul() {
    return ParseBinaryChain(
        &Parser::ParseUnary,
        {TokenType::kStar, TokenType::kSlash, TokenType::kPercent});
  }

  Result<std::unique_ptr<Expr>> ParseUnary() {
    if (Match(TokenType::kMinus) || Match(TokenType::kNot)) {
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kUnary;
      node->line = Prev().line;
      node->col = Prev().column;
      node->op = Prev().type;
      Level level(&depth_);
      GAMEDB_RETURN_NOT_OK(CheckDepth(depth_));
      GAMEDB_ASSIGN_OR_RETURN(auto operand, ParseUnary());
      node->args.push_back(std::move(operand));
      return node;
    }
    return ParsePrimary();
  }

  Result<std::unique_ptr<Expr>> ParsePrimary() {
    auto node = std::make_unique<Expr>();
    node->line = Peek().line;
    node->col = Peek().column;
    if (Match(TokenType::kNumber)) {
      node->kind = ExprKind::kLiteral;
      node->literal = Value(Prev().number);
      return node;
    }
    if (Match(TokenType::kString)) {
      node->kind = ExprKind::kLiteral;
      node->literal = Value(Prev().text);
      return node;
    }
    if (Match(TokenType::kTrue)) {
      node->kind = ExprKind::kLiteral;
      node->literal = Value(true);
      return node;
    }
    if (Match(TokenType::kFalse)) {
      node->kind = ExprKind::kLiteral;
      node->literal = Value(false);
      return node;
    }
    if (Match(TokenType::kNil)) {
      node->kind = ExprKind::kLiteral;
      node->literal = Value::Nil();
      return node;
    }
    if (Match(TokenType::kLBracket)) {
      node->kind = ExprKind::kList;
      if (!Check(TokenType::kRBracket)) {
        do {
          GAMEDB_ASSIGN_OR_RETURN(auto item, ParseExpr());
          node->args.push_back(std::move(item));
        } while (Match(TokenType::kComma));
      }
      GAMEDB_RETURN_NOT_OK(Expect(TokenType::kRBracket));
      return node;
    }
    if (Match(TokenType::kLParen)) {
      GAMEDB_ASSIGN_OR_RETURN(auto inner, ParseExpr());
      GAMEDB_RETURN_NOT_OK(Expect(TokenType::kRParen));
      return inner;
    }
    if (Match(TokenType::kIdent)) {
      node->name = Prev().text;
      if (Match(TokenType::kLParen)) {
        node->kind = ExprKind::kCall;
        if (!Check(TokenType::kRParen)) {
          do {
            GAMEDB_ASSIGN_OR_RETURN(auto arg, ParseExpr());
            node->args.push_back(std::move(arg));
          } while (Match(TokenType::kComma));
        }
        GAMEDB_RETURN_NOT_OK(Expect(TokenType::kRParen));
        return node;
      }
      node->kind = ExprKind::kVar;
      return node;
    }
    return Err(Peek().line, std::string("unexpected ") +
                                TokenTypeName(Peek().type));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  /// Depth of the node being parsed (see kMaxAstDepth).
  int depth_ = 0;
};

}  // namespace

Result<Script> Parse(std::string_view source, std::string name) {
  GAMEDB_ASSIGN_OR_RETURN(auto tokens, Lex(source));
  Parser parser(std::move(tokens));
  return parser.Run(std::move(name));
}

}  // namespace gamedb::script
