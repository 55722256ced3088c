#include "script/interpreter.h"

#include <gtest/gtest.h>

#include "script/builtins.h"
#include "script/parser.h"

namespace gamedb::script {
namespace {

/// Parses + loads `src` into a fresh interpreter and returns it.
std::unique_ptr<Interpreter> Boot(std::string_view src,
                                  InterpreterOptions opts = {}) {
  auto interp = std::make_unique<Interpreter>(opts);
  RegisterCoreBuiltins(interp.get());
  auto parsed = Parse(src);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  Status st = interp->Load(std::move(*parsed));
  EXPECT_TRUE(st.ok()) << st.ToString();
  return interp;
}

// Load is transactional: a script whose top level errors at runtime leaves
// no functions or handlers registered, so a corrected script reusing the
// names loads cleanly afterwards.
TEST(InterpreterTest, FailedTopLevelRollsBackFunctionsAndHandlers) {
  Interpreter in;
  RegisterCoreBuiltins(&in);
  auto broken = Parse(
      "fn f() { return 1 }\n"
      "on ping() { }\n"
      "let boom = 1 / 0");
  ASSERT_TRUE(broken.ok());
  EXPECT_FALSE(in.Load(std::move(*broken)).ok());
  EXPECT_FALSE(in.HasFunction("f"));
  EXPECT_EQ(in.HandlerCount("ping"), 0u);

  auto fixed = Parse("fn f() { return 2 }\non ping() { }");
  ASSERT_TRUE(fixed.ok());
  ASSERT_TRUE(in.Load(std::move(*fixed)).ok());
  auto r = in.Call("f", {});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->AsNumber(), 2.0);
  EXPECT_EQ(in.HandlerCount("ping"), 1u);
}

// UnloadLast removes the newest script's functions/handlers but keeps
// earlier scripts' registrations (and all globals).
TEST(InterpreterTest, UnloadLastRemovesOnlyNewestScript) {
  Interpreter in;
  RegisterCoreBuiltins(&in);
  auto first = Parse("fn keep() { return 1 }");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(in.Load(std::move(*first)).ok());
  auto second = Parse("let g = 7\nfn drop_me() { return 2 }\non hit() { }");
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(in.Load(std::move(*second)).ok());

  in.UnloadLast();
  EXPECT_TRUE(in.HasFunction("keep"));
  EXPECT_FALSE(in.HasFunction("drop_me"));
  EXPECT_EQ(in.HandlerCount("hit"), 0u);
  EXPECT_DOUBLE_EQ(in.GetGlobal("g")->AsNumber(), 7.0);  // globals persist
}

TEST(InterpreterTest, ArithmeticAndGlobals) {
  auto in = Boot("let x = 2 + 3 * 4\nlet y = (2 + 3) * 4\nlet z = 10 / 4");
  EXPECT_DOUBLE_EQ(in->GetGlobal("x")->AsNumber(), 14.0);
  EXPECT_DOUBLE_EQ(in->GetGlobal("y")->AsNumber(), 20.0);
  EXPECT_DOUBLE_EQ(in->GetGlobal("z")->AsNumber(), 2.5);
}

// A tree at the parser's depth limit loads and runs: every walk after the
// parser (verifier, interpreter) stays within the same bound.
TEST(InterpreterTest, ScriptAtTheDepthLimitRuns) {
  std::string src = "let x = 1";
  for (int i = 0; i < kMaxAstDepth - 2; ++i) src += " + 1";
  auto in = Boot(src);
  EXPECT_DOUBLE_EQ(in->GetGlobal("x")->AsNumber(), kMaxAstDepth - 1);
}

TEST(InterpreterTest, StringConcatAndComparison) {
  auto in = Boot(
      "let s = \"a\" + 1 + \"b\"\n"
      "let eq = \"x\" == \"x\"\n"
      "let ne = \"x\" != \"y\"");
  EXPECT_EQ(in->GetGlobal("s")->AsString(), "a1b");
  EXPECT_TRUE(in->GetGlobal("eq")->AsBool());
  EXPECT_TRUE(in->GetGlobal("ne")->AsBool());
}

TEST(InterpreterTest, ControlFlow) {
  auto in = Boot(
      "let x = 0\n"
      "if 1 < 2 { x = 10 } else { x = 20 }\n"
      "let y = 0\n"
      "if 1 > 2 { y = 1 } else if 2 > 3 { y = 2 } else { y = 3 }");
  EXPECT_DOUBLE_EQ(in->GetGlobal("x")->AsNumber(), 10.0);
  EXPECT_DOUBLE_EQ(in->GetGlobal("y")->AsNumber(), 3.0);
}

TEST(InterpreterTest, WhileWithBreakContinue) {
  auto in = Boot(
      "let total = 0\n"
      "let i = 0\n"
      "while true {\n"
      "  i = i + 1\n"
      "  if i > 100 { break }\n"
      "  if i % 2 == 0 { continue }\n"
      "  total = total + i\n"
      "}");
  // Sum of odd numbers 1..99 = 2500.
  EXPECT_DOUBLE_EQ(in->GetGlobal("total")->AsNumber(), 2500.0);
}

TEST(InterpreterTest, ForeachOverList) {
  auto in = Boot(
      "let total = 0\n"
      "foreach v in [1, 2, 3, 4] { total = total + v }");
  EXPECT_DOUBLE_EQ(in->GetGlobal("total")->AsNumber(), 10.0);
}

TEST(InterpreterTest, ForeachOverNonListFails) {
  auto interp = std::make_unique<Interpreter>();
  RegisterCoreBuiltins(interp.get());
  auto parsed = Parse("foreach v in 42 { }");
  ASSERT_TRUE(parsed.ok());
  Status st = interp->Load(std::move(*parsed));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("foreach expects a list"), std::string::npos);
}

TEST(InterpreterTest, FunctionsAndReturn) {
  auto in = Boot(
      "fn add(a, b) { return a + b }\n"
      "fn fib(n) { if n < 2 { return n } return fib(n-1) + fib(n-2) }");
  auto r = in->Call("add", {Value(2.0), Value(40.0)});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->AsNumber(), 42.0);
  auto f = in->Call("fib", {Value(10.0)});
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(f->AsNumber(), 55.0);
}

TEST(InterpreterTest, FunctionArityChecked) {
  auto in = Boot("fn f(a) { return a }");
  EXPECT_TRUE(in->Call("f", {}).status().IsInvalidArgument());
  EXPECT_TRUE(
      in->Call("f", {Value(1.0), Value(2.0)}).status().IsInvalidArgument());
  EXPECT_TRUE(in->Call("missing", {}).status().IsNotFound());
}

TEST(InterpreterTest, LocalsScopedToFrames) {
  auto in = Boot(
      "let g = 1\n"
      "fn f() { let local = 99 g = g + 1 return local }\n");
  ASSERT_TRUE(in->Call("f", {}).ok());
  EXPECT_DOUBLE_EQ(in->GetGlobal("g")->AsNumber(), 2.0);  // global visible
  EXPECT_TRUE(in->GetGlobal("local").status().IsNotFound());  // local is not
}

TEST(InterpreterTest, AssignToUndeclaredFails) {
  auto interp = std::make_unique<Interpreter>();
  RegisterCoreBuiltins(interp.get());
  auto parsed = Parse("nope = 1");
  ASSERT_TRUE(parsed.ok());
  Status st = interp->Load(std::move(*parsed));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("undeclared"), std::string::npos);
}

TEST(InterpreterTest, DivisionByZeroFails) {
  auto interp = std::make_unique<Interpreter>();
  RegisterCoreBuiltins(interp.get());
  auto parsed = Parse("let x = 1 / 0");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(interp->Load(std::move(*parsed)).ok());
}

TEST(InterpreterTest, ShortCircuitEvaluation) {
  // `or` must not evaluate the failing right side.
  auto in = Boot("let x = true or (1 / 0)\nlet y = false and (1 / 0)");
  EXPECT_TRUE(in->GetGlobal("x")->AsBool());
  EXPECT_FALSE(in->GetGlobal("y")->AsBool());
}

TEST(InterpreterTest, FuelExhaustionStopsRunawayScript) {
  InterpreterOptions opts;
  opts.fuel_per_invocation = 10'000;
  auto interp = std::make_unique<Interpreter>(opts);
  RegisterCoreBuiltins(interp.get());
  auto parsed = Parse("let i = 0\nwhile true { i = i + 1 }");
  ASSERT_TRUE(parsed.ok());
  Status st = interp->Load(std::move(*parsed));
  ASSERT_TRUE(st.IsResourceExhausted()) << st.ToString();
  EXPECT_EQ(interp->last_fuel_used(), 10'000u);
}

TEST(InterpreterTest, FuelScalesWithWork) {
  InterpreterOptions opts;
  auto measure = [&](const char* src) {
    Interpreter in(opts);
    RegisterCoreBuiltins(&in);
    auto parsed = Parse(src);
    EXPECT_TRUE(parsed.ok());
    EXPECT_TRUE(in.Load(std::move(*parsed)).ok());
    return in.last_fuel_used();
  };
  uint64_t small = measure("let t = 0 foreach i in range(10) { t = t + i }");
  uint64_t large = measure("let t = 0 foreach i in range(1000) { t = t + i }");
  EXPECT_GT(large, small * 50);  // fuel is roughly linear in iterations
}

TEST(InterpreterTest, CallDepthLimited) {
  InterpreterOptions opts;
  opts.max_call_depth = 16;
  opts.fuel_per_invocation = 1'000'000;
  Interpreter in(opts);
  RegisterCoreBuiltins(&in);
  auto parsed = Parse("fn down(n) { if n == 0 { return 0 } return down(n-1) }");
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(in.Load(std::move(*parsed)).ok());
  EXPECT_TRUE(in.Call("down", {Value(10.0)}).ok());
  auto deep = in.Call("down", {Value(100.0)});
  ASSERT_FALSE(deep.ok());
  EXPECT_TRUE(deep.status().IsResourceExhausted());
}

TEST(InterpreterTest, PrintCapturedInOutput) {
  auto in = Boot("print(\"hello\", 1 + 1, [1, 2])");
  ASSERT_EQ(in->output().size(), 1u);
  EXPECT_EQ(in->output()[0], "hello 2 [1, 2]");
}

TEST(InterpreterTest, CoreBuiltins) {
  auto in = Boot(
      "let a = abs(-3)\n"
      "let b = min(2, max(1, 5))\n"
      "let c = clamp(99, 0, 10)\n"
      "let d = sqrt(16)\n"
      "let v = vec3(1, 2, 3)\n"
      "let vx_ = vx(v)\n"
      "let dist = distance(vec3(0,0,0), vec3(3,0,4))\n"
      "let l = [10, 20]\n"
      "push(l, 30)\n"
      "let n = len(l)\n"
      "let second = at(l, 1)\n"
      "let s = str(42)");
  EXPECT_DOUBLE_EQ(in->GetGlobal("a")->AsNumber(), 3.0);
  EXPECT_DOUBLE_EQ(in->GetGlobal("b")->AsNumber(), 2.0);
  EXPECT_DOUBLE_EQ(in->GetGlobal("c")->AsNumber(), 10.0);
  EXPECT_DOUBLE_EQ(in->GetGlobal("d")->AsNumber(), 4.0);
  EXPECT_DOUBLE_EQ(in->GetGlobal("vx_")->AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(in->GetGlobal("dist")->AsNumber(), 5.0);
  EXPECT_DOUBLE_EQ(in->GetGlobal("n")->AsNumber(), 3.0);
  EXPECT_DOUBLE_EQ(in->GetGlobal("second")->AsNumber(), 20.0);
  EXPECT_EQ(in->GetGlobal("s")->AsString(), "42");
}

TEST(InterpreterTest, RandomDeterministicPerSeed) {
  InterpreterOptions opts;
  opts.rng_seed = 777;
  auto run = [&]() {
    Interpreter in(opts);
    RegisterCoreBuiltins(&in);
    auto parsed = Parse("let r = random()\nlet i = random_int(1, 6)");
    EXPECT_TRUE(parsed.ok());
    EXPECT_TRUE(in.Load(std::move(*parsed)).ok());
    return std::make_pair(in.GetGlobal("r")->AsNumber(),
                          in.GetGlobal("i")->AsNumber());
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a, b);
  EXPECT_GE(a.second, 1.0);
  EXPECT_LE(a.second, 6.0);
}

TEST(InterpreterTest, ListIndexOutOfRange) {
  auto interp = std::make_unique<Interpreter>();
  RegisterCoreBuiltins(interp.get());
  auto parsed = Parse("let x = at([1], 5)");
  ASSERT_TRUE(parsed.ok());
  Status st = interp->Load(std::move(*parsed));
  EXPECT_TRUE(st.IsOutOfRange()) << st.ToString();
}

TEST(InterpreterTest, RestrictionEnforcedAtLoad) {
  InterpreterOptions opts;
  opts.restriction = Restriction::kDeclarative;
  Interpreter in(opts);
  RegisterCoreBuiltins(&in);
  auto parsed = Parse("while true { break }");
  ASSERT_TRUE(parsed.ok());
  Status st = in.Load(std::move(*parsed));
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsParseError());
}

TEST(InterpreterTest, VectorArithmeticInScripts) {
  auto in = Boot(
      "let a = vec3(1, 2, 3) + vec3(10, 20, 30)\n"
      "let b = vec3(5, 5, 5) - vec3(1, 1, 1)\n"
      "let c = vec3(1, 0, 0) * 4");
  EXPECT_EQ(in->GetGlobal("a")->AsVec3(), Vec3(11, 22, 33));
  EXPECT_EQ(in->GetGlobal("b")->AsVec3(), Vec3(4, 4, 4));
  EXPECT_EQ(in->GetGlobal("c")->AsVec3(), Vec3(4, 0, 0));
}

}  // namespace
}  // namespace gamedb::script
