#pragma once

/// \file interpreter.h
/// Tree-walking GSL interpreter with *fuel accounting*: every AST node
/// evaluated burns one unit of fuel and the interpreter hard-stops with
/// ResourceExhausted when the per-invocation budget is gone. Fuel is how a
/// game engine keeps a designer's script from eating the frame — and the
/// metric E10 reports.
///
/// Paper: the game-scripting-languages section — SGL-style declarative
/// scripting for designers, with the industry practice of restricting
/// language power (analyzer.h) to bound per-frame cost.

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "script/analyzer.h"
#include "script/ast.h"
#include "script/value.h"

namespace gamedb::script {

class Interpreter;

/// Native (C++-implemented) builtin function.
using NativeFn =
    std::function<Result<Value>(std::vector<Value>&, Interpreter&)>;

/// Interpreter configuration.
struct InterpreterOptions {
  /// Fuel budget per top-level invocation (Run / CallFunction / event
  /// dispatch). ~1 unit per AST node touched.
  uint64_t fuel_per_invocation = 1'000'000;
  /// Maximum script-function call depth.
  uint32_t max_call_depth = 64;
  /// Restriction level scripts must satisfy at load.
  Restriction restriction = Restriction::kFull;
  /// Seed for the script-visible random() builtin.
  uint64_t rng_seed = 0xC0FFEE;
};

/// Executes loaded GSL scripts.
///
/// Typical host flow:
///   Interpreter interp(opts);
///   RegisterCoreBuiltins(&interp);            // builtins.h
///   BindWorld(&interp, &world, &effects);     // bindings.h
///   auto script = Parse(source);              // parser.h
///   interp.Load(std::move(*script));          // analyzes + runs top level
///   interp.Call("tick", {Value(dt)});
class Interpreter {
 public:
  explicit Interpreter(InterpreterOptions options = {});

  /// Registers a native builtin. Re-registering a name replaces it.
  void RegisterBuiltin(const std::string& name, NativeFn fn);
  bool IsBuiltin(const std::string& name) const {
    return builtins_.count(name) > 0;
  }

  /// Analyzes the script under the configured restriction, then executes its
  /// top-level statements (which typically just set globals). The script is
  /// owned by the interpreter afterwards; its functions and handlers become
  /// callable.
  Status Load(Script script);

  /// Like Load, but shares an already-parsed script. The AST is immutable
  /// during execution, so a ScriptHost parses a behavior once and loads the
  /// same Script into every per-shard interpreter (each still runs its own
  /// copy of the top-level statements to populate its globals).
  ///
  /// Loading is transactional: if the top-level statements error, the
  /// script's functions and handlers are unregistered again, so a corrected
  /// script can be re-loaded without "already defined" failures. (Globals a
  /// partially-run top level already set do persist.)
  Status LoadShared(std::shared_ptr<const Script> script);

  /// Like LoadShared but skips static analysis. Only for hosts loading one
  /// shared script into many interpreters whose restriction level and
  /// builtin set are identical to an interpreter that already analyzed it
  /// (analysis depends on nothing else); the ScriptHost's verifier analyzes
  /// once and every shard loads preanalyzed.
  Status LoadSharedPreanalyzed(std::shared_ptr<const Script> script);

  /// Drops the most recently loaded script's functions and handlers
  /// (globals persist). No-op when nothing is loaded. Lets hosts roll back
  /// a multi-interpreter load that failed partway, and enables hot-reload.
  void UnloadLast();

  /// Calls a script function by name.
  Result<Value> Call(const std::string& fn, std::vector<Value> args);
  bool HasFunction(const std::string& fn) const;

  /// Dispatches an event to every loaded `on <event>(...)` handler, in load
  /// order. Each handler gets a fresh fuel budget. Stops at and returns the
  /// first error. When `completed` is non-null it receives the number of
  /// handler invocations that ran to completion (the erroring handler and
  /// any handlers after it are not counted).
  Status FireEvent(const std::string& event, const std::vector<Value>& args,
                   size_t* completed = nullptr);
  /// Number of handlers registered for an event.
  size_t HandlerCount(const std::string& event) const;

  // --- Globals (host <-> script data exchange) ---------------------------
  void SetGlobal(const std::string& name, Value v);
  Result<Value> GetGlobal(const std::string& name) const;

  // --- Fuel accounting ----------------------------------------------------
  /// Fuel burned by the most recent invocation.
  uint64_t last_fuel_used() const { return last_fuel_used_; }
  /// Total fuel burned over the interpreter's lifetime.
  uint64_t total_fuel_used() const { return total_fuel_used_; }

  /// Script-visible RNG (used by the random() builtin; deterministic).
  Rng& rng() { return rng_; }

  const InterpreterOptions& options() const { return options_; }

  /// Output lines captured from print() (tests and tools read these).
  const std::vector<std::string>& output() const { return output_; }
  void ClearOutput() { output_.clear(); }
  void AppendOutput(std::string line) { output_.push_back(std::move(line)); }

 private:
  friend class Frame;
  struct Flow {
    enum Kind : uint8_t { kNormal, kReturn, kBreak, kContinue } kind = kNormal;
    Value value;
  };

  Status Charge(uint64_t amount, int line);
  Result<Value> Eval(const Expr& e);
  Result<Flow> Exec(const Stmt& s);
  Result<Flow> ExecBlock(const std::vector<std::unique_ptr<Stmt>>& body);
  Result<Value> CallScriptFunction(const Stmt& fn, std::vector<Value> args,
                                   int line);

  // Scope stack: [0] is globals; function calls push an isolated frame
  // boundary so locals don't leak across calls.
  Value* FindVar(const std::string& name);
  void DeclareVar(const std::string& name, Value v);

  InterpreterOptions options_;
  std::vector<std::shared_ptr<const Script>> scripts_;
  std::unordered_map<std::string, const Stmt*> functions_;
  std::unordered_map<std::string, std::vector<const Stmt*>> handlers_;
  std::unordered_map<std::string, NativeFn> builtins_;

  struct Scope {
    std::unordered_map<std::string, Value> vars;
    bool frame_boundary = false;  // lookups stop here (except globals)
  };
  std::vector<Scope> scopes_;
  uint32_t call_depth_ = 0;
  uint64_t fuel_remaining_ = 0;
  uint64_t last_fuel_used_ = 0;
  uint64_t total_fuel_used_ = 0;
  Rng rng_;
  std::vector<std::string> output_;
};

}  // namespace gamedb::script
