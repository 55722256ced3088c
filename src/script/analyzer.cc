#include "script/analyzer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "core/reflect.h"
#include "planner/plan.h"

namespace gamedb::script {

const char* RestrictionName(Restriction r) {
  switch (r) {
    case Restriction::kFull:
      return "full";
    case Restriction::kNoRecursion:
      return "no-recursion";
    case Restriction::kDeclarative:
      return "declarative";
  }
  return "?";
}

const char* PhaseContextName(PhaseContext p) {
  switch (p) {
    case PhaseContext::kSequential:
      return "sequential";
    case PhaseContext::kParallelDefer:
      return "parallel-defer";
    case PhaseContext::kParallelReject:
      return "parallel-reject";
  }
  return "?";
}

std::string EffectSetName(uint32_t effects) {
  if (effects == kEffectNone) return "pure";
  std::string out;
  auto add = [&](uint32_t bit, const char* tok) {
    if ((effects & bit) == 0) return;
    if (!out.empty()) out += "|";
    out += tok;
  };
  add(kEffectWorldRead, "read");
  add(kEffectViewRead, "view-read");
  add(kEffectEmit, "emit");
  add(kEffectGatedWrite, "write");
  add(kEffectSpawn, "spawn");
  add(kEffectFire, "fire");
  return out;
}

std::string AccessSummaryToString(const AccessSummary& s) {
  std::string out = "reads{";
  bool first = true;
  auto append = [&](const std::string& tok) {
    if (!first) out += ", ";
    first = false;
    out += tok;
  };
  for (const auto& [key, bits] : s.fields) {
    if (bits & kAccessRead) append(key);
  }
  if (s.unknown_read) append("*");
  out += "} writes{";
  first = true;
  for (const auto& [key, bits] : s.fields) {
    if ((bits & (kAccessWriteSelf | kAccessWriteForeign)) == 0) continue;
    std::string tok = key;
    if ((bits & kAccessWriteSelf) && (bits & kAccessWriteForeign)) {
      tok += ":self+foreign";
    } else if (bits & kAccessWriteSelf) {
      tok += ":self";
    } else {
      tok += ":foreign";
    }
    append(tok);
  }
  if (s.unknown_write) append("*");
  out += "}";
  if (s.structural_write) out += " structural";
  if (s.radius_unbounded) {
    out += " radius unbounded";
  } else {
    out += StringFormat(" radius %g", s.radius);
  }
  return out;
}

SchemaCatalog ReflectionSchema() {
  SchemaCatalog schema;
  schema.has_component = [](const std::string& comp) {
    return TypeRegistry::Global().FindByName(comp) != nullptr;
  };
  schema.has_field = [](const std::string& comp, const std::string& field) {
    const TypeInfo* info = TypeRegistry::Global().FindByName(comp);
    return info != nullptr && info->FindField(field) != nullptr;
  };
  schema.component_names = []() {
    TypeRegistry& reg = TypeRegistry::Global();
    std::vector<std::string> names;
    names.reserve(reg.size());
    for (uint32_t id = 0; id < reg.size(); ++id) {
      if (const TypeInfo* info = reg.Find(id)) names.push_back(info->name());
    }
    return names;
  };
  schema.field_names = [](const std::string& comp) {
    std::vector<std::string> names;
    if (const TypeInfo* info = TypeRegistry::Global().FindByName(comp)) {
      names.reserve(info->fields().size());
      for (const FieldInfo& f : info->fields()) names.push_back(f.name());
    }
    return names;
  };
  return schema;
}

namespace {

/// How the cost pass prices a world builtin.
enum class CostClass : uint8_t {
  kCheap,        ///< O(1) native work
  kScan,         ///< visits every row of a table (scan + predicate)
  kSpatial,      ///< spatial probe + candidate visits
  kViewConst,    ///< O(1) view read
  kViewMembers,  ///< materializes the view membership snapshot
};

constexpr int kNoArg = -1;

/// Static signature of a world/view/trigger builtin: its effect bits, its
/// arity (as enforced at runtime by ExpectArgs), which literal string args
/// name schema objects, and its cost class. Builtins absent from this table
/// (math, list ops, random, ...) are effect-free and priced as kCheap.
struct BuiltinSig {
  const char* name;
  uint32_t effects;
  int arity;  ///< -1: variadic (fire)
  const char* signature;
  int comp_arg;     ///< literal arg resolved as a component name
  int field_arg;    ///< literal arg resolved as a field of comp_arg
  int view_arg;     ///< literal arg resolved as a LiveView name
  int channel_arg;  ///< literal arg resolved as an effect channel
  int event_arg;    ///< literal arg resolved as a trigger event
  int op_arg;       ///< literal arg holding a comparison operator
  CostClass cost;
};

// Keep signature strings identical to the runtime ExpectArgs call sites in
// bindings.cc / triggers.cc — the static arity diagnostic renders the same
// text a designer would have hit at runtime.
const BuiltinSig kBuiltinSigs[] = {
    {"spawn", kEffectSpawn, 0, "spawn()", kNoArg, kNoArg, kNoArg, kNoArg,
     kNoArg, kNoArg, CostClass::kCheap},
    {"destroy", kEffectGatedWrite, 1, "destroy(e)", kNoArg, kNoArg, kNoArg,
     kNoArg, kNoArg, kNoArg, CostClass::kCheap},
    {"is_alive", kEffectWorldRead, 1, "is_alive(e)", kNoArg, kNoArg, kNoArg,
     kNoArg, kNoArg, kNoArg, CostClass::kCheap},
    {"has", kEffectWorldRead, 2, "has(e, \"Comp\")", 1, kNoArg, kNoArg, kNoArg,
     kNoArg, kNoArg, CostClass::kCheap},
    {"add", kEffectGatedWrite, 2, "add(e, \"Comp\")", 1, kNoArg, kNoArg,
     kNoArg, kNoArg, kNoArg, CostClass::kCheap},
    {"remove", kEffectGatedWrite, 2, "remove(e, \"Comp\")", 1, kNoArg, kNoArg,
     kNoArg, kNoArg, kNoArg, CostClass::kCheap},
    {"get", kEffectWorldRead, 3, "get(e, \"Comp\", \"field\")", 1, 2, kNoArg,
     kNoArg, kNoArg, kNoArg, CostClass::kCheap},
    {"set", kEffectGatedWrite, 4, "set(e, \"Comp\", \"field\", v)", 1, 2,
     kNoArg, kNoArg, kNoArg, kNoArg, CostClass::kCheap},
    {"entities_with", kEffectWorldRead, 1, "entities_with(\"Comp\")", 0,
     kNoArg, kNoArg, kNoArg, kNoArg, kNoArg, CostClass::kScan},
    {"count", kEffectWorldRead, 1, "count(\"Comp\")", 0, kNoArg, kNoArg,
     kNoArg, kNoArg, kNoArg, CostClass::kScan},
    {"sum", kEffectWorldRead, 2, "sum(\"Comp\", \"field\")", 0, 1, kNoArg,
     kNoArg, kNoArg, kNoArg, CostClass::kScan},
    {"smin", kEffectWorldRead, 2, "smin(\"Comp\", \"field\")", 0, 1, kNoArg,
     kNoArg, kNoArg, kNoArg, CostClass::kScan},
    {"smax", kEffectWorldRead, 2, "smax(\"Comp\", \"field\")", 0, 1, kNoArg,
     kNoArg, kNoArg, kNoArg, CostClass::kScan},
    {"avg", kEffectWorldRead, 2, "avg(\"Comp\", \"field\")", 0, 1, kNoArg,
     kNoArg, kNoArg, kNoArg, CostClass::kScan},
    {"argmin", kEffectWorldRead, 2, "argmin(\"Comp\", \"field\")", 0, 1,
     kNoArg, kNoArg, kNoArg, kNoArg, CostClass::kScan},
    {"argmax", kEffectWorldRead, 2, "argmax(\"Comp\", \"field\")", 0, 1,
     kNoArg, kNoArg, kNoArg, kNoArg, CostClass::kScan},
    {"where", kEffectWorldRead, 4, "where(\"Comp\", \"field\", \"op\", v)", 0,
     1, kNoArg, kNoArg, kNoArg, 2, CostClass::kScan},
    {"within", kEffectWorldRead, 2, "within(center, radius)", kNoArg, kNoArg,
     kNoArg, kNoArg, kNoArg, kNoArg, CostClass::kSpatial},
    {"emit", kEffectEmit, 3, "emit(\"channel\", target, amount)", kNoArg,
     kNoArg, kNoArg, 0, kNoArg, kNoArg, CostClass::kCheap},
    {"tick", kEffectWorldRead, 0, "tick()", kNoArg, kNoArg, kNoArg, kNoArg,
     kNoArg, kNoArg, CostClass::kCheap},
    {"view_count", kEffectViewRead, 1, "view_count(\"name\")", kNoArg, kNoArg,
     0, kNoArg, kNoArg, kNoArg, CostClass::kViewConst},
    {"view_contains", kEffectViewRead, 2, "view_contains(\"name\", e)", kNoArg,
     kNoArg, 0, kNoArg, kNoArg, kNoArg, CostClass::kViewConst},
    {"view_members", kEffectViewRead, 1, "view_members(\"name\")", kNoArg,
     kNoArg, 0, kNoArg, kNoArg, kNoArg, CostClass::kViewMembers},
    {"view_aggregate", kEffectViewRead, 1, "view_aggregate(\"name\")", kNoArg,
     kNoArg, 0, kNoArg, kNoArg, kNoArg, CostClass::kViewConst},
    {"fire", kEffectFire, -1, "fire(\"event\", args...)", kNoArg, kNoArg,
     kNoArg, kNoArg, 0, kNoArg, CostClass::kCheap},
};

const BuiltinSig* FindSig(const std::string& name) {
  for (const BuiltinSig& sig : kBuiltinSigs) {
    if (name == sig.name) return &sig;
  }
  return nullptr;
}

/// Literal string argument at `idx`, or nullptr when the argument is absent
/// or computed at runtime (only literals are statically checkable).
const std::string* LiteralStringArg(const Expr& call, size_t idx) {
  if (idx >= call.args.size()) return nullptr;
  const Expr& a = *call.args[idx];
  if (a.kind != ExprKind::kLiteral || !a.literal.IsString()) return nullptr;
  return &a.literal.AsString();
}

SourceLoc LocOf(const Expr& e) { return SourceLoc{e.line, e.col}; }
SourceLoc LocOf(const Stmt& s) { return SourceLoc{s.line, s.col}; }

bool IsCmpOpToken(const std::string& op) {
  return op == "==" || op == "!=" || op == "<" || op == "<=" || op == ">" ||
         op == ">=";
}

// ---- access-summary lattice helpers ------------------------------------

std::string_view CompOf(const std::string& key) {
  return std::string_view(key).substr(0, key.find('.'));
}
std::string_view FieldOf(const std::string& key) {
  size_t dot = key.find('.');
  return dot == std::string::npos ? std::string_view("*")
                                  : std::string_view(key).substr(dot + 1);
}

/// Do two "Comp.field" keys name overlapping storage? "Comp.*" (field
/// statically unknown) overlaps every field of Comp.
bool KeysOverlap(const std::string& a, const std::string& b) {
  if (CompOf(a) != CompOf(b)) return false;
  std::string_view fa = FieldOf(a);
  std::string_view fb = FieldOf(b);
  return fa == "*" || fb == "*" || fa == fb;
}

constexpr uint8_t kAccessWriteAny = kAccessWriteSelf | kAccessWriteForeign;

bool HasFieldWrites(const EntryFacts& e) {
  const AccessSummary& a = e.facts.access;
  if (a.unknown_write || a.structural_write) return true;
  for (const auto& [key, bits] : a.fields) {
    if (bits & kAccessWriteAny) return true;
  }
  return false;
}

/// Does this entry read or write world state at all? (The peer test for ⊤
/// writes: a destroy() conflicts even with an entry that only calls
/// is_alive(), which records no field key but carries kEffectWorldRead.)
bool TouchesWorld(const EntryFacts& e) {
  const AccessSummary& a = e.facts.access;
  return (e.facts.effects & (kEffectWorldRead | kEffectGatedWrite)) != 0 ||
         !a.fields.empty() || a.unknown_read || a.unknown_write ||
         a.structural_write;
}

// ---- did-you-mean (bindings-pass UX) -----------------------------------

/// Levenshtein edit distance, early-exiting with cap+1 once the distance
/// provably exceeds `cap` (names are short; the DP rows stay tiny).
size_t EditDistance(const std::string& a, const std::string& b, size_t cap) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n > m + cap || m > n + cap) return cap + 1;
  std::vector<size_t> row(m + 1);
  for (size_t j = 0; j <= m; ++j) row[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    size_t diag = row[0];
    row[0] = i;
    size_t best = row[0];
    for (size_t j = 1; j <= m; ++j) {
      size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
      best = std::min(best, row[j]);
    }
    if (best > cap) return cap + 1;
  }
  return row[m];
}

/// "; did you mean 'X'?" for the closest candidate within edit distance 2
/// (ties resolve to the first candidate), or "" when nothing is close.
std::string Suggestion(const std::string& name,
                       const std::vector<std::string>& candidates) {
  constexpr size_t kMaxDistance = 2;
  const std::string* best = nullptr;
  size_t best_d = kMaxDistance + 1;
  for (const std::string& c : candidates) {
    if (c == name) continue;
    size_t d = EditDistance(name, c, kMaxDistance);
    if (d < best_d) {
      best_d = d;
      best = &c;
    }
  }
  if (best == nullptr) return "";
  return "; did you mean '" + *best + "'?";
}

class Verifier {
 public:
  Verifier(const Script& script, const VerifierOptions& options,
           DiagnosticSink* sink)
      : script_(script), options_(options), sink_(sink) {
    // ⊤ of the access lattice: what a recursion cycle (or an undefined
    // callee) is assumed to do — anything, anywhere.
    top_access_.unknown_read = true;
    top_access_.unknown_write = true;
    top_access_.radius_unbounded = true;
  }

  VerifyReport Run() {
    // --- structure ------------------------------------------------------
    for (const auto& s : script_.top_level) StructureStmt(*s, 0);
    for (const auto& d : script_.decls) {
      for (const auto& b : d->body) StructureStmt(*b, 0);
    }
    BuildCallGraph();
    if (options_.restriction != Restriction::kFull) CheckRecursion();

    // --- phase ----------------------------------------------------------
    ComputeEffects();
    for (const auto& s : script_.top_level) PhaseStmt(*s);
    for (const auto& d : script_.decls) {
      for (const auto& b : d->body) PhaseStmt(*b);
    }
    if (options_.top_level_must_be_pure) {
      for (const auto& s : script_.top_level) TopLevelPurityStmt(*s);
    }

    // --- bindings -------------------------------------------------------
    for (const auto& s : script_.top_level) BindingsStmt(*s);
    for (const auto& d : script_.decls) {
      for (const auto& b : d->body) BindingsStmt(*b);
    }

    // --- cost -----------------------------------------------------------
    VerifyReport report = CostPassAndReport();
    sink_->SetOrigin(script_.name);
    return report;
  }

 private:
  // Is `name` a call to a native builtin (not shadowed by a script fn)?
  bool ResolvesToBuiltin(const std::string& name) const {
    if (script_.functions.count(name)) return false;
    return !options_.is_builtin || options_.is_builtin(name);
  }

  const BuiltinSig* SigFor(const Expr& call) const {
    if (call.kind != ExprKind::kCall) return nullptr;
    if (!ResolvesToBuiltin(call.name)) return nullptr;
    return FindSig(call.name);
  }

  // ---- structure pass --------------------------------------------------

  void StructureExpr(const Expr& e) {
    if (e.kind == ExprKind::kCall) {
      if (!script_.functions.count(e.name) &&
          (!options_.is_builtin || !options_.is_builtin(e.name))) {
        sink_->Error(DiagPass::kStructure, LocOf(e),
                     "call to undefined function '" + e.name + "'");
      }
    }
    for (const auto& a : e.args) StructureExpr(*a);
  }

  void StructureStmt(const Stmt& s, int loop_depth) {
    switch (s.kind) {
      case StmtKind::kWhile:
      case StmtKind::kForeach:
        if (options_.restriction == Restriction::kDeclarative) {
          sink_->Error(
              DiagPass::kStructure, LocOf(s),
              std::string("iteration ('") +
                  (s.kind == StmtKind::kWhile ? "while" : "foreach") +
                  "') is not allowed at the declarative restriction level; "
                  "use aggregate builtins");
        }
        ++loop_depth;
        break;
      case StmtKind::kBreak:
      case StmtKind::kContinue:
        if (loop_depth == 0) {
          sink_->Error(DiagPass::kStructure, LocOf(s),
                       s.kind == StmtKind::kBreak ? "'break' outside loop"
                                                  : "'continue' outside loop");
        }
        break;
      case StmtKind::kFn:
      case StmtKind::kOn:
        sink_->Error(DiagPass::kStructure, LocOf(s),
                     "nested function declarations are not allowed");
        break;
      default:
        break;
    }
    if (s.expr) StructureExpr(*s.expr);
    for (const auto& b : s.body) StructureStmt(*b, loop_depth);
    for (const auto& b : s.else_body) StructureStmt(*b, loop_depth);
  }

  // ---- call graph ------------------------------------------------------

  struct CallSite {
    std::string callee;
    SourceLoc loc;
  };

  void CollectCallsExpr(const Expr& e, std::vector<CallSite>* out) {
    if (e.kind == ExprKind::kCall && script_.functions.count(e.name)) {
      out->push_back(CallSite{e.name, LocOf(e)});
    }
    for (const auto& a : e.args) CollectCallsExpr(*a, out);
  }
  void CollectCalls(const Stmt& s, std::vector<CallSite>* out) {
    if (s.expr) CollectCallsExpr(*s.expr, out);
    for (const auto& b : s.body) CollectCalls(*b, out);
    for (const auto& b : s.else_body) CollectCalls(*b, out);
  }

  void BuildCallGraph() {
    for (const auto& d : script_.decls) {
      if (d->kind != StmtKind::kFn) continue;
      std::vector<CallSite>& sites = calls_[d->name];
      for (const auto& b : d->body) CollectCalls(*b, &sites);
    }
  }

  // Recursion check in declaration order; the diagnostic is anchored at the
  // call site that closes the cycle, so the designer sees *where* the
  // recursive call happens, not just that one exists.
  void CheckRecursion() {
    std::unordered_set<std::string> verified;
    for (const auto& d : script_.decls) {
      if (d->kind != StmtKind::kFn) continue;
      std::unordered_set<std::string> on_stack;
      RecursionDfs(d->name, &on_stack, &verified);
    }
  }

  void RecursionDfs(const std::string& name,
                    std::unordered_set<std::string>* on_stack,
                    std::unordered_set<std::string>* verified) {
    if (verified->count(name)) return;
    on_stack->insert(name);
    auto it = calls_.find(name);
    if (it != calls_.end()) {
      for (const CallSite& site : it->second) {
        if (on_stack->count(site.callee)) {
          sink_->Error(DiagPass::kStructure, site.loc,
                       "recursion involving '" + site.callee +
                           "' is not allowed at the " +
                           RestrictionName(options_.restriction) +
                           " restriction level");
          continue;  // report, but don't descend into the cycle
        }
        RecursionDfs(site.callee, on_stack, verified);
      }
    }
    on_stack->erase(name);
    verified->insert(name);
  }

  // ---- phase pass ------------------------------------------------------

  uint32_t DirectEffects(const std::string& fn_name) {
    uint32_t effects = 0;
    const Stmt* decl = nullptr;
    for (const auto& d : script_.decls) {
      if (d->kind == StmtKind::kFn && d->name == fn_name) {
        decl = d.get();
        break;
      }
    }
    if (decl == nullptr) return 0;
    for (const auto& b : decl->body) DirectEffectsStmt(*b, &effects);
    return effects;
  }

  void DirectEffectsExpr(const Expr& e, uint32_t* effects) {
    if (const BuiltinSig* sig = SigFor(e)) *effects |= sig->effects;
    for (const auto& a : e.args) DirectEffectsExpr(*a, effects);
  }
  void DirectEffectsStmt(const Stmt& s, uint32_t* effects) {
    if (s.expr) DirectEffectsExpr(*s.expr, effects);
    for (const auto& b : s.body) DirectEffectsStmt(*b, effects);
    for (const auto& b : s.else_body) DirectEffectsStmt(*b, effects);
  }

  // Transitive effects over the call graph by fixpoint iteration (the
  // graph may contain cycles under Restriction::kFull; effects are a small
  // monotone lattice, so this converges in at most |functions| rounds).
  void ComputeEffects() {
    for (const auto& [name, fn] : script_.functions) {
      (void)fn;
      effects_[name] = DirectEffects(name);
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (auto& [name, eff] : effects_) {
        uint32_t merged = eff;
        for (const CallSite& site : calls_[name]) {
          merged |= effects_[site.callee];
        }
        if (merged != eff) {
          eff = merged;
          changed = true;
        }
      }
    }
  }

  uint32_t TransitiveEffects(const std::string& fn_name) {
    auto it = effects_.find(fn_name);
    return it == effects_.end() ? 0 : it->second;
  }

  // Checks one builtin call site against the execution phase. Messages
  // mirror the runtime rejections in bindings.cc word for word — the whole
  // point is that the designer reads the same explanation at load time.
  void PhaseCheckSite(const Expr& call, const BuiltinSig& sig) {
    if (options_.phase == PhaseContext::kSequential) return;
    if (sig.effects & kEffectSpawn) {
      sink_->Error(DiagPass::kPhase, LocOf(call),
                   "spawn() is not available during the parallel query phase "
                   "(entity ids are allocated in the apply phase); spawn from "
                   "the host or a trigger handler instead");
      return;
    }
    if (options_.phase == PhaseContext::kParallelReject &&
        (sig.effects & kEffectGatedWrite)) {
      sink_->Error(DiagPass::kPhase, LocOf(call),
                   call.name +
                       "() mutates the world; the scripted query phase is "
                       "read-only — emit() an effect and apply it from the "
                       "host instead");
    }
  }

  void PhaseExpr(const Expr& e) {
    if (const BuiltinSig* sig = SigFor(e)) PhaseCheckSite(e, *sig);
    for (const auto& a : e.args) PhaseExpr(*a);
  }
  void PhaseStmt(const Stmt& s) {
    if (s.expr) PhaseExpr(*s.expr);
    for (const auto& b : s.body) PhaseStmt(*b);
    for (const auto& b : s.else_body) PhaseStmt(*b);
  }

  // Top-level purity: the host runs the top level once per shard, so any
  // effect there would be applied shard_count times. Direct offense sites
  // are flagged by PhaseExpr already when the phase bans them; here we flag
  // *all* impure effects, including calls into impure functions.
  static constexpr uint32_t kImpure =
      kEffectEmit | kEffectGatedWrite | kEffectSpawn | kEffectFire;

  void TopLevelPurityExpr(const Expr& e) {
    if (e.kind == ExprKind::kCall) {
      if (const BuiltinSig* sig = FindSig(e.name);
          sig != nullptr && ResolvesToBuiltin(e.name) &&
          (sig->effects & kImpure)) {
        sink_->Error(DiagPass::kPhase, LocOf(e),
                     "script top level must not mutate the world or emit "
                     "effects (it runs once per shard); do it from the host "
                     "or inside the tick function");
      } else if (script_.functions.count(e.name)) {
        uint32_t eff = TransitiveEffects(e.name) & kImpure;
        if (eff != 0) {
          sink_->Error(
              DiagPass::kPhase, LocOf(e),
              "script top level must not mutate the world or emit effects "
              "(it runs once per shard); '" +
                  e.name + "' has effects [" + EffectSetName(eff) +
                  "] — do it from the host or inside the tick function");
        }
      }
    }
    for (const auto& a : e.args) TopLevelPurityExpr(*a);
  }
  void TopLevelPurityStmt(const Stmt& s) {
    if (s.expr) TopLevelPurityExpr(*s.expr);
    for (const auto& b : s.body) TopLevelPurityStmt(*b);
    for (const auto& b : s.else_body) TopLevelPurityStmt(*b);
  }

  // ---- access-summary pass ---------------------------------------------
  //
  // Field-granular dataflow: per function, the set of "Comp.field" keys it
  // may read, the keys it may write (with *which parameters* the write can
  // land on — substituted through call sites, so a helper that only ever
  // receives the entry's own entity still yields a self write), structural
  // membership changes, ⊤ flags for statically unresolvable access, and
  // the spatial footprint. Memoized DFS over the call graph; a back edge
  // (recursion) returns ⊤, poisoning every function on the cycle —
  // conservative and convergent.

  struct WriteTarget {
    uint32_t params = 0;   ///< bitmask: the write may land on param i
    bool foreign = false;  ///< the write may land on a non-parameter entity
  };
  struct FnAccess {
    std::set<std::string> reads;
    std::map<std::string, WriteTarget> writes;
    bool unknown_read = false;
    bool unknown_write = false;
    bool structural = false;
    double radius = 0.0;
    bool radius_unbounded = false;
  };
  /// Parameter name -> index, for parameters never rebound in the body.
  using ParamMap = std::unordered_map<std::string, uint32_t>;

  const Stmt* FindDecl(const std::string& name) const {
    for (const auto& d : script_.decls) {
      if (d->kind == StmtKind::kFn && d->name == name) return d.get();
    }
    return nullptr;
  }

  void CollectRebinds(const std::vector<std::unique_ptr<Stmt>>& body,
                      ParamMap* params) const {
    for (const auto& s : body) {
      if (s->kind == StmtKind::kLet || s->kind == StmtKind::kAssign ||
          s->kind == StmtKind::kForeach) {
        // Flow-insensitive taint: a name rebound *anywhere* stops counting
        // as the incoming argument (a write through it may hit any entity).
        params->erase(s->name);
      }
      CollectRebinds(s->body, params);
      CollectRebinds(s->else_body, params);
    }
  }

  ParamMap UntaintedParams(const Stmt& decl) const {
    ParamMap params;
    for (size_t i = 0; i < decl.params.size() && i < 32; ++i) {
      params.emplace(decl.params[i], static_cast<uint32_t>(i));
    }
    CollectRebinds(decl.body, &params);
    return params;
  }

  /// Which untainted parameter `call`'s argument `arg_idx` names, or -1.
  int ParamIndexOf(const Expr& call, size_t arg_idx,
                   const ParamMap& params) const {
    if (arg_idx >= call.args.size()) return -1;
    const Expr& a = *call.args[arg_idx];
    if (a.kind != ExprKind::kVar) return -1;
    auto it = params.find(a.name);
    return it == params.end() ? -1 : static_cast<int>(it->second);
  }

  /// Records a write of `key` targeted at the entity expression in arg 0.
  void AddWrite(FnAccess* acc, const std::string& key, const Expr& call,
                const ParamMap& params) const {
    WriteTarget& t = acc->writes[key];
    int pi = ParamIndexOf(call, 0, params);
    if (pi >= 0) {
      t.params |= 1u << static_cast<uint32_t>(pi);
    } else {
      t.foreign = true;
    }
  }

  void AccessBuiltinSite(const Expr& call, const BuiltinSig& sig,
                         const ParamMap& params, FnAccess* acc) const {
    const std::string& n = call.name;
    if (n == "destroy") {
      // Removes the entity's row from *every* table: a ⊤ structural write.
      acc->structural = true;
      acc->unknown_write = true;
      return;
    }
    if (n == "within") {
      acc->reads.insert("Position.value");
      const Expr* r = call.args.size() > 1 ? call.args[1].get() : nullptr;
      if (r != nullptr && r->kind == ExprKind::kLiteral &&
          r->literal.IsNumber()) {
        acc->radius = std::max(acc->radius, r->literal.AsNumber());
      } else {
        acc->radius_unbounded = true;  // data-dependent footprint
      }
      return;
    }
    if (sig.comp_arg < 0) return;  // no table named (emit/fire/tick/views…)
    const bool is_write = (sig.effects & kEffectGatedWrite) != 0;
    const bool is_structural = n == "add" || n == "remove";
    const std::string* comp =
        LiteralStringArg(call, static_cast<size_t>(sig.comp_arg));
    if (comp == nullptr) {
      // Computed component name: ⊤ for this access direction.
      if (is_write) {
        acc->unknown_write = true;
        acc->structural |= is_structural;
      } else {
        acc->unknown_read = true;
      }
      return;
    }
    std::string key;
    if (sig.field_arg >= 0) {
      const std::string* field =
          LiteralStringArg(call, static_cast<size_t>(sig.field_arg));
      key = *comp + "." + (field != nullptr ? *field : "*");
    } else {
      key = *comp + ".*";
    }
    if (is_write) {
      acc->structural |= is_structural;
      AddWrite(acc, key, call, params);
    } else {
      acc->reads.insert(key);
    }
  }

  /// Substitutes a callee's summary into the caller at one call site:
  /// reads and flags merge unchanged; a write that may land on callee
  /// param j becomes a write on whatever the caller passes as argument j —
  /// one of the caller's own untainted params, or foreign.
  void MergeCall(const Expr& call, const FnAccess& callee,
                 const ParamMap& params, FnAccess* acc) const {
    acc->reads.insert(callee.reads.begin(), callee.reads.end());
    acc->unknown_read |= callee.unknown_read;
    acc->unknown_write |= callee.unknown_write;
    acc->structural |= callee.structural;
    acc->radius = std::max(acc->radius, callee.radius);
    acc->radius_unbounded |= callee.radius_unbounded;
    for (const auto& [key, target] : callee.writes) {
      WriteTarget& mine = acc->writes[key];
      mine.foreign |= target.foreign;
      for (uint32_t j = 0; j < 32; ++j) {
        if ((target.params & (1u << j)) == 0) continue;
        int pi = ParamIndexOf(call, j, params);
        if (pi >= 0) {
          mine.params |= 1u << static_cast<uint32_t>(pi);
        } else {
          mine.foreign = true;
        }
      }
    }
  }

  void AccessExpr(const Expr& e, const ParamMap& params, FnAccess* acc) {
    for (const auto& a : e.args) AccessExpr(*a, params, acc);
    if (e.kind != ExprKind::kCall) return;
    if (const BuiltinSig* sig = SigFor(e)) {
      AccessBuiltinSite(e, *sig, params, acc);
    } else if (script_.functions.count(e.name)) {
      MergeCall(e, FnAccessOf(e.name), params, acc);
    }
  }
  void AccessStmt(const Stmt& s, const ParamMap& params, FnAccess* acc) {
    if (s.expr) AccessExpr(*s.expr, params, acc);
    for (const auto& b : s.body) AccessStmt(*b, params, acc);
    for (const auto& b : s.else_body) AccessStmt(*b, params, acc);
  }

  FnAccess BodyAccess(const std::vector<std::unique_ptr<Stmt>>& body,
                      const ParamMap& params) {
    FnAccess acc;
    for (const auto& s : body) AccessStmt(*s, params, &acc);
    return acc;
  }

  const FnAccess& FnAccessOf(const std::string& name) {
    auto it = fn_access_.find(name);
    if (it != fn_access_.end()) return it->second;
    if (access_stack_.count(name)) return top_access_;  // recursion -> ⊤
    const Stmt* decl = FindDecl(name);
    if (decl == nullptr) return top_access_;  // undefined (structure error)
    access_stack_.insert(name);
    ParamMap params = UntaintedParams(*decl);
    FnAccess acc = BodyAccess(decl->body, params);
    access_stack_.erase(name);
    return fn_access_.emplace(name, std::move(acc)).first->second;
  }

  /// Collapses parameter-indexed write targets to the entry-point view:
  /// the host invokes an entry with a single argument (the ticked entity),
  /// so a write on param 0 is self and everything else is foreign.
  AccessSummary Flatten(const FnAccess& acc) const {
    AccessSummary s;
    s.unknown_read = acc.unknown_read;
    s.unknown_write = acc.unknown_write;
    s.structural_write = acc.structural;
    s.radius = acc.radius;
    s.radius_unbounded = acc.radius_unbounded;
    for (const std::string& key : acc.reads) s.fields[key] |= kAccessRead;
    for (const auto& [key, target] : acc.writes) {
      uint8_t bits = 0;
      if (target.params & 1u) bits |= kAccessWriteSelf;
      if (target.foreign || (target.params & ~1u) != 0) {
        bits |= kAccessWriteForeign;
      }
      if (bits == 0) bits = kAccessWriteForeign;  // defensive
      s.fields[key] |= bits;
    }
    return s;
  }

  // ---- bindings pass ---------------------------------------------------

  std::string SuggestName(
      const std::function<std::vector<std::string>()>& enumerate,
      const std::string& name) const {
    if (!enumerate) return "";
    return Suggestion(name, enumerate());
  }

  void BindingsCheckSite(const Expr& call, const BuiltinSig& sig) {
    // Arity first (mirrors runtime ExpectArgs / the fire() check).
    if (sig.arity >= 0) {
      if (call.args.size() != static_cast<size_t>(sig.arity)) {
        sink_->Error(DiagPass::kBindings, LocOf(call),
                     StringFormat("expected %zu args: %s",
                                  static_cast<size_t>(sig.arity),
                                  sig.signature));
        return;  // positional checks below would mis-index
      }
    } else if (call.args.empty()) {
      sink_->Error(DiagPass::kBindings, LocOf(call),
                   std::string(sig.signature) + " requires an event name");
      return;
    }

    const std::string* comp =
        sig.comp_arg >= 0
            ? LiteralStringArg(call, static_cast<size_t>(sig.comp_arg))
            : nullptr;
    if (comp != nullptr && options_.schema.has_component) {
      if (!options_.schema.has_component(*comp)) {
        sink_->Error(DiagPass::kBindings,
                     LocOf(*call.args[static_cast<size_t>(sig.comp_arg)]),
                     "unknown component '" + *comp + "'" +
                         SuggestName(options_.schema.component_names, *comp));
        comp = nullptr;  // field check below would be noise
      }
    }
    if (comp != nullptr && sig.field_arg >= 0 && options_.schema.has_field) {
      if (const std::string* field =
              LiteralStringArg(call, static_cast<size_t>(sig.field_arg))) {
        if (!options_.schema.has_field(*comp, *field)) {
          std::string hint =
              options_.schema.field_names
                  ? Suggestion(*field, options_.schema.field_names(*comp))
                  : "";
          sink_->Error(DiagPass::kBindings,
                       LocOf(*call.args[static_cast<size_t>(sig.field_arg)]),
                       "component '" + *comp + "' has no field '" + *field +
                           "'" + hint);
        }
      }
    }
    if (sig.view_arg >= 0 && options_.schema.has_view) {
      if (const std::string* view =
              LiteralStringArg(call, static_cast<size_t>(sig.view_arg))) {
        if (!options_.schema.has_view(*view)) {
          sink_->Error(DiagPass::kBindings,
                       LocOf(*call.args[static_cast<size_t>(sig.view_arg)]),
                       call.name + ": no view named '" + *view + "'" +
                           SuggestName(options_.schema.view_names, *view));
        }
      }
    }
    if (sig.channel_arg >= 0 && options_.schema.has_channel) {
      if (const std::string* channel = LiteralStringArg(
              call, static_cast<size_t>(sig.channel_arg))) {
        if (!options_.schema.has_channel(*channel)) {
          sink_->Warn(
              DiagPass::kBindings,
              LocOf(*call.args[static_cast<size_t>(sig.channel_arg)]),
              "emit() into unwired channel '" + *channel +
                  "'; contributions to it are buffered but never drained" +
                  SuggestName(options_.schema.channel_names, *channel));
        }
      }
    }
    if (sig.event_arg >= 0 && options_.schema.has_event) {
      if (const std::string* event =
              LiteralStringArg(call, static_cast<size_t>(sig.event_arg))) {
        if (!options_.schema.has_event(*event)) {
          sink_->Warn(DiagPass::kBindings,
                      LocOf(*call.args[static_cast<size_t>(sig.event_arg)]),
                      "fire(\"" + *event +
                          "\") has no handler; the event will be dropped");
        }
      }
    }
    if (sig.op_arg >= 0) {
      if (const std::string* op =
              LiteralStringArg(call, static_cast<size_t>(sig.op_arg))) {
        if (!IsCmpOpToken(*op)) {
          sink_->Error(DiagPass::kBindings,
                       LocOf(*call.args[static_cast<size_t>(sig.op_arg)]),
                       "unknown comparison operator '" + *op + "'");
        }
      }
    }
  }

  void BindingsExpr(const Expr& e) {
    if (const BuiltinSig* sig = SigFor(e)) BindingsCheckSite(e, *sig);
    for (const auto& a : e.args) BindingsExpr(*a);
  }
  void BindingsStmt(const Stmt& s) {
    if (s.expr) BindingsExpr(*s.expr);
    for (const auto& b : s.body) BindingsStmt(*b);
    for (const auto& b : s.else_body) BindingsStmt(*b);
  }

  // ---- cost pass -------------------------------------------------------

  double ScanCost() const {
    return options_.cost.assumed_rows * (constants_.scan_row +
                                         constants_.predicate);
  }

  double BuiltinCost(const BuiltinSig& sig) const {
    switch (sig.cost) {
      case CostClass::kCheap:
        return options_.cost.builtin_call;
      case CostClass::kScan:
        return ScanCost();
      case CostClass::kSpatial:
        return constants_.spatial_probe +
               options_.cost.assumed_rows * constants_.spatial_candidate;
      case CostClass::kViewConst:
        return options_.cost.builtin_call;
      case CostClass::kViewMembers:
        return options_.cost.builtin_call +
               options_.cost.assumed_view_members * constants_.scan_row;
    }
    return options_.cost.builtin_call;
  }

  // Worst-case iteration count of a foreach over `iterable`.
  double TripCount(const Expr& iterable) const {
    if (iterable.kind == ExprKind::kList) {
      return static_cast<double>(iterable.args.size());
    }
    if (iterable.kind == ExprKind::kCall && ResolvesToBuiltin(iterable.name)) {
      const std::string& n = iterable.name;
      if (n == "entities_with" || n == "where" || n == "within") {
        return options_.cost.assumed_rows;
      }
      if (n == "view_members") return options_.cost.assumed_view_members;
      if (n == "range" && iterable.args.size() == 1 &&
          iterable.args[0]->kind == ExprKind::kLiteral &&
          iterable.args[0]->literal.IsNumber()) {
        return std::max(0.0, iterable.args[0]->literal.AsNumber());
      }
    }
    return options_.cost.assumed_loop_iterations;
  }

  double ExprCost(const Expr& e, std::unordered_set<std::string>* on_stack) {
    double cost = options_.cost.ast_node;
    for (const auto& a : e.args) cost += ExprCost(*a, on_stack);
    if (e.kind == ExprKind::kCall) {
      if (const BuiltinSig* sig = SigFor(e)) {
        cost += BuiltinCost(*sig);
      } else if (script_.functions.count(e.name)) {
        cost += FunctionCost(e.name, on_stack);
      } else if (ResolvesToBuiltin(e.name)) {
        cost += options_.cost.builtin_call;  // math/list/etc builtin
      }
    }
    return cost;
  }

  double BodyCost(const std::vector<std::unique_ptr<Stmt>>& body,
                  std::unordered_set<std::string>* on_stack) {
    double cost = 0;
    for (const auto& s : body) cost += StmtCost(*s, on_stack);
    return cost;
  }

  double StmtCost(const Stmt& s, std::unordered_set<std::string>* on_stack) {
    double cost = options_.cost.ast_node;
    switch (s.kind) {
      case StmtKind::kIf: {
        if (s.expr) cost += ExprCost(*s.expr, on_stack);
        double then_cost = BodyCost(s.body, on_stack);
        double else_cost = BodyCost(s.else_body, on_stack);
        cost += std::max(then_cost, else_cost);
        break;
      }
      case StmtKind::kWhile: {
        double per_iter = (s.expr ? ExprCost(*s.expr, on_stack) : 0) +
                          BodyCost(s.body, on_stack);
        cost += options_.cost.assumed_loop_iterations * per_iter;
        break;
      }
      case StmtKind::kForeach: {
        double trips = s.expr ? TripCount(*s.expr) : 0;
        if (s.expr) cost += ExprCost(*s.expr, on_stack);
        cost += trips * (options_.cost.ast_node + BodyCost(s.body, on_stack));
        break;
      }
      default:
        if (s.expr) cost += ExprCost(*s.expr, on_stack);
        cost += BodyCost(s.body, on_stack);
        cost += BodyCost(s.else_body, on_stack);
        break;
    }
    return cost;
  }

  double FunctionCost(const std::string& name,
                      std::unordered_set<std::string>* on_stack) {
    auto it = fn_cost_.find(name);
    if (it != fn_cost_.end()) return it->second;
    if (on_stack->count(name)) {
      // Recursion (only reachable under Restriction::kFull): no static
      // bound exists.
      return std::numeric_limits<double>::infinity();
    }
    const Stmt* decl = nullptr;
    for (const auto& d : script_.decls) {
      if (d->kind == StmtKind::kFn && d->name == name) {
        decl = d.get();
        break;
      }
    }
    if (decl == nullptr) return 0;
    on_stack->insert(name);
    double cost = BodyCost(decl->body, on_stack);
    on_stack->erase(name);
    // Only memoize cycle-free results: a cost computed while the cycle head
    // was on the stack would under-report the recursive branch.
    if (std::isfinite(cost)) fn_cost_[name] = cost;
    return cost;
  }

  size_t Depth(const std::string& name,
               std::unordered_set<std::string>* on_stack) {
    if (on_stack->count(name)) return 0;  // cycle (only under kFull)
    on_stack->insert(name);
    size_t best = 0;
    for (const CallSite& site : calls_[name]) {
      best = std::max(best, Depth(site.callee, on_stack));
    }
    on_stack->erase(name);
    return best + 1;
  }

  void AddEntry(VerifyReport* report, std::string name, bool is_handler,
                SourceLoc loc, uint32_t effects, double cost,
                AccessSummary access) {
    EntryFacts entry;
    entry.name = std::move(name);
    entry.is_handler = is_handler;
    entry.loc = loc;
    entry.facts.effects = effects;
    entry.facts.cost = std::isfinite(cost) ? cost : 0;
    entry.facts.cost_unbounded = !std::isfinite(cost);
    entry.facts.access = std::move(access);
    report->effects |= effects;
    if (entry.facts.cost_unbounded) {
      if (options_.cost_budget > 0) {
        sink_->Error(
            DiagPass::kCost, loc,
            "'" + entry.name +
                "' is recursive; its worst-case cost is statically unbounded "
                "and cannot meet the cost budget of " +
                StringFormat("%.0f", options_.cost_budget) + " units");
      }
    } else {
      if (cost > report->max_entry_cost) {
        report->max_entry_cost = cost;
        report->max_entry_name = entry.name;
      }
      if (options_.cost_budget > 0 && cost > options_.cost_budget) {
        sink_->Error(
            DiagPass::kCost, loc,
            "'" + entry.name + "' has a worst-case cost of " +
                StringFormat("%.0f", cost) +
                " units per invocation, over the budget of " +
                StringFormat("%.0f", options_.cost_budget) + " units");
      }
    }
    report->entries.push_back(std::move(entry));
  }

  VerifyReport CostPassAndReport() {
    if (options_.cost.constants != nullptr) {
      constants_ = *options_.cost.constants;
    }
    VerifyReport report;
    report.stats = CountNodes(script_);
    for (const auto& [name, fn] : script_.functions) {
      (void)fn;
      std::unordered_set<std::string> on_stack;
      report.max_call_depth = std::max(report.max_call_depth,
                                       Depth(name, &on_stack));
    }

    if (!script_.top_level.empty()) {
      uint32_t eff = 0;
      for (const auto& s : script_.top_level) DirectEffectsStmt(*s, &eff);
      std::vector<CallSite> sites;
      for (const auto& s : script_.top_level) CollectCalls(*s, &sites);
      for (const CallSite& site : sites) eff |= TransitiveEffects(site.callee);
      std::unordered_set<std::string> on_stack;
      double cost = 0;
      for (const auto& s : script_.top_level) cost += StmtCost(*s, &on_stack);
      // The top level has no parameters, so every write it reaches is
      // foreign by construction.
      AccessSummary access = Flatten(BodyAccess(script_.top_level, ParamMap{}));
      AddEntry(&report, "<top level>", /*is_handler=*/false,
               LocOf(*script_.top_level.front()), eff, cost,
               std::move(access));
    }
    for (const auto& d : script_.decls) {
      if (d->kind != StmtKind::kFn && d->kind != StmtKind::kOn) continue;
      bool is_handler = d->kind == StmtKind::kOn;
      std::string name = is_handler ? "on " + d->name : d->name;
      uint32_t eff;
      double cost;
      AccessSummary access;
      if (is_handler) {
        eff = 0;
        for (const auto& b : d->body) DirectEffectsStmt(*b, &eff);
        std::vector<CallSite> sites;
        for (const auto& b : d->body) CollectCalls(*b, &sites);
        for (const CallSite& site : sites) {
          eff |= TransitiveEffects(site.callee);
        }
        std::unordered_set<std::string> on_stack;
        cost = 0;
        for (const auto& b : d->body) cost += StmtCost(*b, &on_stack);
        access = Flatten(BodyAccess(d->body, UntaintedParams(*d)));
      } else {
        eff = TransitiveEffects(d->name);
        std::unordered_set<std::string> on_stack;
        cost = FunctionCost(d->name, &on_stack);
        access = Flatten(FnAccessOf(d->name));
      }
      AddEntry(&report, std::move(name), is_handler, LocOf(*d), eff, cost,
               std::move(access));
    }
    // Pack-level conflict graph: every unordered entry pair, tested with
    // the public conflict rule (deterministic (a, b) order).
    for (size_t i = 0; i < report.entries.size(); ++i) {
      for (size_t j = i + 1; j < report.entries.size(); ++j) {
        std::string reason;
        if (AccessConflicts(report.entries[i], report.entries[j], &reason)) {
          report.conflicts.push_back(ConflictEdge{i, j, std::move(reason)});
        }
      }
    }
    return report;
  }

  const Script& script_;
  const VerifierOptions& options_;
  DiagnosticSink* sink_;
  planner::CostConstants constants_;
  std::unordered_map<std::string, std::vector<CallSite>> calls_;
  std::unordered_map<std::string, uint32_t> effects_;
  std::unordered_map<std::string, double> fn_cost_;
  std::unordered_map<std::string, FnAccess> fn_access_;
  std::unordered_set<std::string> access_stack_;
  FnAccess top_access_;
};

}  // namespace

bool AccessConflicts(const EntryFacts& a, const EntryFacts& b,
                     std::string* reason) {
  auto conflict = [reason](std::string why) {
    if (reason != nullptr) *reason = std::move(why);
    return true;
  };
  const uint32_t both = a.facts.effects | b.facts.effects;
  if (both & kEffectSpawn) {
    return conflict("spawn() allocates entity ids");
  }
  if (both & kEffectFire) {
    return conflict("fire() cascades into trigger handlers");
  }
  const AccessSummary& aa = a.facts.access;
  const AccessSummary& ba = b.facts.access;
  if (aa.unknown_write && TouchesWorld(b)) {
    return conflict("'" + a.name + "' has statically unknown writes");
  }
  if (ba.unknown_write && TouchesWorld(a)) {
    return conflict("'" + b.name + "' has statically unknown writes");
  }
  if (aa.unknown_read && HasFieldWrites(b)) {
    return conflict("'" + a.name + "' has statically unknown reads");
  }
  if (ba.unknown_read && HasFieldWrites(a)) {
    return conflict("'" + b.name + "' has statically unknown reads");
  }
  for (const auto& [ka, bits_a] : aa.fields) {
    for (const auto& [kb, bits_b] : ba.fields) {
      if (!KeysOverlap(ka, kb)) continue;
      const std::string where = ka == kb ? ka : ka + " vs " + kb;
      if ((bits_a & kAccessWriteAny) && (bits_b & kAccessWriteAny)) {
        return conflict("write/write overlap on " + where);
      }
      if ((bits_a & kAccessWriteAny) && (bits_b & kAccessRead)) {
        return conflict("write/read overlap on " + where);
      }
      if ((bits_a & kAccessRead) && (bits_b & kAccessWriteAny)) {
        return conflict("read/write overlap on " + where);
      }
    }
  }
  return false;
}

bool DirectWriteEligible(const EntryFacts& entry, std::string* reason) {
  auto no = [reason](std::string why) {
    if (reason != nullptr) *reason = std::move(why);
    return false;
  };
  const AccessSummary& a = entry.facts.access;
  if (entry.facts.effects & kEffectSpawn) return no("spawns entities");
  if (entry.facts.effects & kEffectFire) {
    return no("fires trigger events (handler effects run mid-phase)");
  }
  if (a.structural_write) {
    return no("changes table membership (add/remove/destroy)");
  }
  if (a.unknown_write) return no("writes a statically unknown table/field");
  bool writes = false;
  for (const auto& [key, bits] : a.fields) {
    if (bits & kAccessWriteAny) {
      writes = true;
      break;
    }
  }
  // Read-only entries never record a mutation, so there is nothing an
  // in-place fast path could reorder.
  if (!writes) return true;
  if (a.unknown_read) {
    return no("writes fields while reading a statically unknown table");
  }
  if (entry.facts.effects & kEffectEmit) {
    // kDefer drains effect channels *before* replaying deferred writes; an
    // in-place write would land before the drain and flip that order.
    return no("emits effects while writing fields (channel applies would "
              "observe mid-tick writes)");
  }
  for (const auto& [key, bits] : a.fields) {
    if ((bits & kAccessWriteForeign) != 0) {
      return no("writes " + key + " on entities other than the ticked "
                "entity");
    }
  }
  for (const auto& [kw, bits_w] : a.fields) {
    if ((bits_w & kAccessWriteAny) == 0) continue;
    for (const auto& [kr, bits_r] : a.fields) {
      if ((bits_r & kAccessRead) == 0) continue;
      if (KeysOverlap(kw, kr)) {
        const std::string where = kw == kr ? kw : kw + " vs " + kr;
        return no("writes overlap reads on " + where +
                  " (tick-start snapshot would differ)");
      }
    }
  }
  return true;
}

VerifyReport Verify(const Script& script, const VerifierOptions& options,
                    DiagnosticSink* sink) {
  Verifier verifier(script, options, sink);
  return verifier.Run();
}

Status Analyze(const Script& script, Restriction restriction,
               const std::function<bool(const std::string&)>& is_builtin,
               AnalysisReport* report) {
  VerifierOptions options;
  options.restriction = restriction;
  options.is_builtin = is_builtin;
  DiagnosticSink sink;
  VerifyReport full = Verify(script, options, &sink);
  if (report != nullptr) {
    report->stats = full.stats;
    report->max_call_depth = full.max_call_depth;
  }
  // Historical contract: fail on the first *structural* finding only (the
  // verifier's phase/bindings/cost findings need host context to be
  // meaningful and are surfaced through Verify()).
  for (const Diagnostic& d : sink.diagnostics()) {
    if (d.severity != Severity::kError || d.pass != DiagPass::kStructure) {
      continue;
    }
    if (d.loc.valid()) {
      return Status::ParseError(
          StringFormat("line %d: %s", d.loc.line, d.message.c_str()));
    }
    return Status::ParseError(d.message);
  }
  return Status::OK();
}

}  // namespace gamedb::script
