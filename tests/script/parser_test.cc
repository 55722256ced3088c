#include "script/parser.h"

#include <gtest/gtest.h>

#include <string>

namespace gamedb::script {
namespace {

Script MustParse(std::string_view src) {
  auto r = Parse(src);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

std::string Repeat(std::string_view s, int n) {
  std::string out;
  out.reserve(s.size() * static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

TEST(ParserTest, TopLevelStatements) {
  Script s = MustParse("let x = 1\nx = x + 1\nprint(x)");
  ASSERT_EQ(s.top_level.size(), 3u);
  EXPECT_EQ(s.top_level[0]->kind, StmtKind::kLet);
  EXPECT_EQ(s.top_level[1]->kind, StmtKind::kAssign);
  EXPECT_EQ(s.top_level[2]->kind, StmtKind::kExpr);
  EXPECT_EQ(s.top_level[2]->expr->kind, ExprKind::kCall);
}

TEST(ParserTest, OperatorPrecedence) {
  Script s = MustParse("let x = 1 + 2 * 3");
  const Expr& root = *s.top_level[0]->expr;
  ASSERT_EQ(root.kind, ExprKind::kBinary);
  EXPECT_EQ(root.op, TokenType::kPlus);
  EXPECT_EQ(root.args[1]->op, TokenType::kStar);  // * binds tighter
}

TEST(ParserTest, ParensOverridePrecedence) {
  Script s = MustParse("let x = (1 + 2) * 3");
  const Expr& root = *s.top_level[0]->expr;
  EXPECT_EQ(root.op, TokenType::kStar);
  EXPECT_EQ(root.args[0]->op, TokenType::kPlus);
}

TEST(ParserTest, ComparisonAndLogicalChain) {
  Script s = MustParse("let ok = a < b and b <= c or not d");
  const Expr& root = *s.top_level[0]->expr;
  EXPECT_EQ(root.op, TokenType::kOr);  // or is loosest
}

TEST(ParserTest, FunctionDeclaration) {
  Script s = MustParse("fn add(a, b) { return a + b }");
  ASSERT_EQ(s.functions.count("add"), 1u);
  const Stmt* fn = s.functions.at("add");
  EXPECT_EQ(fn->params, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(fn->body.size(), 1u);
  EXPECT_EQ(fn->body[0]->kind, StmtKind::kReturn);
}

TEST(ParserTest, EventHandlers) {
  Script s = MustParse(
      "on damage(attacker, target, amount) { print(amount) }\n"
      "on damage(a, t, x) { print(x) }\n"
      "on spawn(e) { print(e) }");
  EXPECT_EQ(s.handlers.size(), 3u);
  EXPECT_EQ(s.handlers[0]->name, "damage");
  EXPECT_EQ(s.handlers[2]->name, "spawn");
}

TEST(ParserTest, IfElseChains) {
  Script s = MustParse(
      "if a > 1 { print(1) } else if a > 0 { print(2) } else { print(3) }");
  const Stmt& root = *s.top_level[0];
  ASSERT_EQ(root.kind, StmtKind::kIf);
  ASSERT_EQ(root.else_body.size(), 1u);
  EXPECT_EQ(root.else_body[0]->kind, StmtKind::kIf);  // else-if nests
  EXPECT_EQ(root.else_body[0]->else_body.size(), 1u);
}

TEST(ParserTest, LoopsAndControlFlow) {
  Script s = MustParse(
      "while x < 10 { x = x + 1 if x == 5 { break } }\n"
      "foreach e in entities_with(\"Health\") { continue }");
  EXPECT_EQ(s.top_level[0]->kind, StmtKind::kWhile);
  EXPECT_EQ(s.top_level[1]->kind, StmtKind::kForeach);
  EXPECT_EQ(s.top_level[1]->name, "e");
}

TEST(ParserTest, ListLiterals) {
  Script s = MustParse("let l = [1, 2 + 3, \"x\", []]");
  const Expr& root = *s.top_level[0]->expr;
  ASSERT_EQ(root.kind, ExprKind::kList);
  EXPECT_EQ(root.args.size(), 4u);
  EXPECT_EQ(root.args[3]->kind, ExprKind::kList);
}

TEST(ParserTest, ReturnWithoutValue) {
  Script s = MustParse("fn f() { return }");
  const Stmt* fn = s.functions.at("f");
  EXPECT_EQ(fn->body[0]->expr, nullptr);
}

TEST(ParserTest, DuplicateFunctionRejected) {
  auto r = Parse("fn f() { } fn f() { }");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("duplicate"), std::string::npos);
}

TEST(ParserTest, SyntaxErrorsCarryLines) {
  auto r = Parse("let x = 1\nlet = 2");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(ParserTest, UnterminatedBlockFails) {
  EXPECT_FALSE(Parse("fn f() { let x = 1").ok());
  EXPECT_FALSE(Parse("if x { ").ok());
}

TEST(ParserTest, MissingParenFails) {
  EXPECT_FALSE(Parse("let x = (1 + 2").ok());
  EXPECT_FALSE(Parse("print(1, 2").ok());
}

// Hostile nesting is a ParseError (kMaxAstDepth), not a stack overflow in
// the parser or in a later walk of the tree — a long binary chain parses
// iteratively but builds a deep tree, so it counts too.
TEST(ParserDepthTest, HostileNestingIsAParseError) {
  constexpr int kDeep = 100000;
  const std::string inputs[] = {
      "let x = " + Repeat("(", kDeep) + "1" + Repeat(")", kDeep),
      "let x = " + Repeat("- ", kDeep) + "1",
      Repeat("if true { ", kDeep) + Repeat("}", kDeep),
      "if false {}" + Repeat(" else if false {}", kDeep),
      "let x = 1" + Repeat(" + 1", kDeep),
  };
  for (const std::string& src : inputs) {
    auto r = Parse(src);
    ASSERT_FALSE(r.ok()) << src.substr(0, 40);
    EXPECT_TRUE(r.status().IsParseError()) << r.status().ToString();
  }
}

// The limit is exact. An expression statement is at depth 1 and its
// expression's root at depth 2: N unary operators put the literal at depth
// N + 2, and a chain of N terms puts its first term at depth N + 1.
TEST(ParserDepthTest, NodeAtTheLimitParses) {
  EXPECT_TRUE(Parse(Repeat("- ", kMaxAstDepth - 2) + "1").ok());
  EXPECT_TRUE(
      Parse(Repeat("- ", kMaxAstDepth - 1) + "1").status().IsParseError());
  EXPECT_TRUE(Parse("1" + Repeat(" + 1", kMaxAstDepth - 2)).ok());
  EXPECT_TRUE(
      Parse("1" + Repeat(" + 1", kMaxAstDepth - 1)).status().IsParseError());
}

}  // namespace
}  // namespace gamedb::script
