#pragma once

/// \file analyzer.h
/// Static analysis of GSL scripts. Two layers:
///
///  1. The historical *restriction levels* the tutorial reports from
///     industry: "some studios have taken drastic measures — such as
///     removing support for iteration and recursion from their scripting
///     languages — to keep their designers from producing computationally
///     expensive behavior" [10]. E10 measures what that buys. `Analyze()`
///     is the original fail-fast entry point for these checks.
///
///  2. A multi-pass load-time *verifier* (`Verify()`) that answers the
///     same "expensive/unsafe behavior" problem with analysis instead of
///     amputation. Passes, in fixed order (diagnostic order is part of the
///     testable surface):
///       structure — undefined functions, loop/recursion restriction
///                   levels, break/continue placement;
///       phase     — each function/handler's *transitive* effect set over
///                   the call graph (pure read, view read, emit, gated
///                   write, spawn, fire), checked against the execution
///                   phase the script will run in. A write or spawn that
///                   would only fail at runtime mid-tick inside ScriptHost
///                   (MutationPolicy::kReject, the in-phase spawn ban)
///                   becomes a load-time error with line/column;
///       bindings  — every component/field name in get/set/add/remove/...
///                   and every view name in view_* resolved against the
///                   reflection registry / ViewCatalog at load time, plus
///                   arity and comparison-operator literals;
///       cost      — worst-case per-entity cost of each entry point priced
///                   in the planner's calibrated cost units
///                   (planner/plan.h CostConstants) with an optional
///                   budget, so unbounded designer logic is rejected
///                   before it ever eats a frame.
///
/// All passes report into a DiagnosticSink (script/diagnostics.h): every
/// finding, source-located, not just the first.

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "script/ast.h"
#include "script/diagnostics.h"

namespace gamedb::planner {
struct CostConstants;
}  // namespace gamedb::planner

namespace gamedb::script {

/// What language power a script is allowed to use.
enum class Restriction : uint8_t {
  /// Everything: loops, recursion.
  kFull,
  /// Loops allowed; direct or mutual recursion rejected statically.
  kNoRecursion,
  /// Additionally rejects while/foreach — designers must express bulk
  /// operations through the declarative aggregate builtins (sum, count,
  /// nearest, ...), which the engine executes with indexes.
  kDeclarative,
};

const char* RestrictionName(Restriction r);

/// How a host treats verifier findings at load time.
enum class Strictness : uint8_t {
  /// Findings are logged and retrievable, the load proceeds (existing
  /// packs keep loading — the default).
  kWarn,
  /// Error-severity findings reject the load.
  kStrict,
};

/// Execution phase the verified script will run in — determines which
/// effects are legal. Mirrors bindings.h MutationPolicy.
enum class PhaseContext : uint8_t {
  /// Single-threaded interpreter, direct mutations (MutationPolicy::kDirect).
  kSequential,
  /// ScriptHost parallel query phase with gated-deferred writes
  /// (MutationPolicy::kDefer): spawn is banned (no id allocation before
  /// the apply phase); set/add/remove/destroy defer and are fine.
  kParallelDefer,
  /// Read-only parallel query phase (MutationPolicy::kReject): all world
  /// mutations and spawn are banned — scripts must emit() effects.
  kParallelReject,
};

const char* PhaseContextName(PhaseContext p);

/// Effect lattice: what a function/handler may do to the world, computed
/// transitively over the static call graph.
enum EffectBit : uint32_t {
  kEffectNone = 0,
  kEffectWorldRead = 1u << 0,   ///< get/has/is_alive/queries/aggregates
  kEffectViewRead = 1u << 1,    ///< view_count/contains/members/aggregate
  kEffectEmit = 1u << 2,        ///< emit() — the sanctioned parallel write
  kEffectGatedWrite = 1u << 3,  ///< set/add/remove/destroy (deferrable)
  kEffectSpawn = 1u << 4,       ///< spawn() — never deferrable
  kEffectFire = 1u << 5,        ///< fire() — trigger cascade
};

/// "pure" or e.g. "read|emit|write" — stable tokens for reports and tests.
std::string EffectSetName(uint32_t effects);

/// Field-granular access kind, per "Comp.field" key of an AccessSummary.
/// Writes distinguish *self* (the entry point's first parameter — the
/// entity the host ticks) from *foreign* (any other entity expression):
/// self-only writes touch disjoint rows across a parallel tick, foreign
/// writes may collide.
enum AccessBit : uint8_t {
  kAccessRead = 1u << 0,
  kAccessWriteSelf = 1u << 1,
  kAccessWriteForeign = 1u << 2,
};

/// Transitive, field-granular access summary of one entry point: which
/// table fields it may read or write (keys are "Comp.field", or "Comp.*"
/// when the field — but not the table — is data-dependent), plus a spatial
/// footprint (the largest radius literal reachable through within(); ⊤ when
/// a radius is computed at runtime). Computed over the static call graph
/// with parameter substitution, so a write through a helper's parameter
/// that is only ever bound to the entry's own entity still counts as self.
struct AccessSummary {
  /// "Comp.field" / "Comp.*" -> AccessBit mask. Ordered for deterministic
  /// rendering (golden tests pin AccessSummaryToString output).
  std::map<std::string, uint8_t> fields;
  /// Reads a table the analysis could not name (computed component name,
  /// or a recursion cycle — the ⊤ element of the read lattice).
  bool unknown_read = false;
  /// Writes a table/field the analysis could not name (computed component
  /// name, destroy(), or recursion — the ⊤ element of the write lattice).
  bool unknown_write = false;
  /// Changes table membership (add/remove/destroy), not just field values.
  bool structural_write = false;
  /// Largest statically-known within() radius reached (0 = no spatial
  /// queries); radius_unbounded when any reachable radius is computed.
  double radius = 0.0;
  bool radius_unbounded = false;
};

/// Stable one-line rendering, e.g.
///   "reads{Combat.attack, Health.hp} writes{Health.hp:self} radius 0"
/// Unknown (⊤) reads/writes render as "*"; write annotations are ":self",
/// ":foreign" or ":self+foreign"; a structural summary appends
/// " structural"; a data-dependent footprint renders "radius unbounded".
std::string AccessSummaryToString(const AccessSummary& s);

/// Name-resolution sources for the bindings pass. Every callback is
/// optional: a null std::function skips that family of checks (e.g.
/// gsl_lint run without a view catalog cannot validate view names).
struct SchemaCatalog {
  /// Does a component table with this name exist?
  std::function<bool(const std::string& comp)> has_component;
  /// Does `comp` (known to exist) have this field?
  std::function<bool(const std::string& comp, const std::string& field)>
      has_field;
  /// Is this a registered LiveView name?
  std::function<bool(const std::string& view)> has_view;
  /// Is this a wired effect channel? Unknown channels are *warnings* —
  /// contributions to them are silently dropped (and counted) at runtime.
  std::function<bool(const std::string& channel)> has_channel;
  /// Is this a handled trigger event? fire() with an event nothing handles
  /// is a *warning* (handlers may live in a pack loaded later). Hosts
  /// typically back this with the interpreter's cross-pack handler set.
  std::function<bool(const std::string& event)> has_event;

  /// Optional name enumerators for did-you-mean suggestions: when an
  /// unknown component/field/view/channel diagnostic fires and the matching
  /// enumerator is set, the closest name within edit distance 2 is appended
  /// to the message ("unknown component 'Helth'; did you mean 'Health'?").
  std::function<std::vector<std::string>()> component_names;
  std::function<std::vector<std::string>(const std::string& comp)>
      field_names;
  std::function<std::vector<std::string>()> view_names;
  std::function<std::vector<std::string>()> channel_names;
};

/// SchemaCatalog backed by the global reflection registry
/// (core/reflect.h): component and field names (and their did-you-mean
/// enumerators) resolve against TypeRegistry::Global(). View/channel
/// callbacks are left unset.
SchemaCatalog ReflectionSchema();

/// Static cost model: prices worst-case per-entity work in the planner's
/// calibrated cost units (CostConstants — one unit ≈ 1/7 of a reflective
/// row visit; see planner/plan.h). Load-time analysis cannot know table
/// sizes, so per-row work is priced against the assumed_* sizes below;
/// the point is a calibrated *bound*, not a prediction.
struct CostModelOptions {
  /// Query-cost constants; null uses a default-constructed CostConstants
  /// (the calibrated defaults).
  const planner::CostConstants* constants = nullptr;
  /// Rows a table scan / aggregate visits.
  double assumed_rows = 1024;
  /// Trip count for while loops and foreach over non-query iterables.
  double assumed_loop_iterations = 64;
  /// Members a view_members() snapshot returns (and foreach over it).
  double assumed_view_members = 256;
  /// One interpreted AST node (≈ a couple of units of interpretive
  /// overhead per node evaluated — the fuel metric, priced).
  double ast_node = 2.0;
  /// Any other native builtin call (math, list ops, get/set field access
  /// ≈ one reflective row visit).
  double builtin_call = 7.0;
};

/// Configuration for Verify().
struct VerifierOptions {
  Restriction restriction = Restriction::kFull;
  PhaseContext phase = PhaseContext::kSequential;
  /// Names resolvable as native builtins (Interpreter::IsBuiltin). Null:
  /// no names are builtins.
  std::function<bool(const std::string&)> is_builtin;
  /// Name sources for the bindings pass.
  SchemaCatalog schema;
  CostModelOptions cost;
  /// Per-entry-point worst-case cost budget in cost units; <= 0 disables
  /// budget enforcement (costs are still computed into the report).
  double cost_budget = 0.0;
  /// Require the script's top level to be free of emit/write/spawn/fire
  /// effects, transitively (ScriptHost runs the top level once per shard;
  /// side effects would be applied shard_count times — today a runtime
  /// rejection, with this a load-time one).
  bool top_level_must_be_pure = false;
};

/// Per-function (or handler) analysis facts.
struct FunctionFacts {
  /// Transitive EffectBit mask over the static call graph.
  uint32_t effects = 0;
  /// Worst-case per-invocation cost in cost units.
  double cost = 0.0;
  /// Cost is statically unbounded (recursion under Restriction::kFull).
  bool cost_unbounded = false;
  /// Transitive field-granular access summary (the dataflow pass).
  AccessSummary access;
};

/// One entry point (named function or event handler) of a verified script.
struct EntryFacts {
  std::string name;  ///< function name, or "on <event>" for handlers
  bool is_handler = false;
  SourceLoc loc;  ///< declaration site
  FunctionFacts facts;
};

/// Node counters + call-graph depth (the historical report).
struct AnalysisReport {
  AstStats stats;
  /// Maximum static call-graph depth from any root (top level / handler).
  size_t max_call_depth = 0;
};

/// One edge of the pack-level conflict graph: entries `a` and `b`
/// (indices into VerifyReport::entries, a < b) cannot safely run in the
/// same parallel phase, for `reason`.
struct ConflictEdge {
  size_t a = 0;
  size_t b = 0;
  std::string reason;
};

/// Result of a full Verify() run.
struct VerifyReport {
  AstStats stats;
  size_t max_call_depth = 0;
  /// Union of every entry point's transitive effects.
  uint32_t effects = 0;
  /// Entry points in declaration order.
  std::vector<EntryFacts> entries;
  /// Pack-level conflict graph over `entries` (a < b, ordered by (a, b)):
  /// two entries conflict iff one's writes overlap the other's reads or
  /// writes on the same table.field, or either has ⊤ writes, spawns, or
  /// fires trigger events. Edge-free pairs are provably safe to co-schedule.
  std::vector<ConflictEdge> conflicts;
  /// Most expensive entry point (ties: first in declaration order).
  double max_entry_cost = 0.0;
  std::string max_entry_name;
};

/// The pairwise conflict rule behind VerifyReport::conflicts, exposed for
/// schedulers. When it returns true and `reason` is non-null, *reason names
/// the first offending overlap.
bool AccessConflicts(const EntryFacts& a, const EntryFacts& b,
                     std::string* reason = nullptr);

/// Whether ScriptHost may run this entry with in-place writes during the
/// parallel query phase (MutationPolicy::kDirectChecked) and still be
/// bit-identical to the deferred replay. Requires: no spawn/fire, no
/// structural or ⊤ writes, every write self-targeted, write keys disjoint
/// from every read key, and no emit() alongside writes (channel applies
/// would observe different state). Read-only entries are trivially
/// eligible. On false, *reason (when non-null) explains the fallback.
bool DirectWriteEligible(const EntryFacts& entry,
                         std::string* reason = nullptr);

/// Runs every verifier pass over `script`, appending all findings to
/// `sink` (never fail-fast: the verdict is sink->has_errors()). The passes
/// run unconditionally; checks whose name sources are absent from
/// `options.schema` are skipped per call site. Returns the report.
VerifyReport Verify(const Script& script, const VerifierOptions& options,
                    DiagnosticSink* sink);

/// Historical fail-fast entry point — structure checks only (undefined
/// script functions, restriction-level loop/recursion bans, break/continue
/// placement), first finding returned as a ParseError Status. Kept for
/// standalone Interpreter loads; hosts run Verify().
Status Analyze(const Script& script, Restriction restriction,
               const std::function<bool(const std::string&)>& is_builtin,
               AnalysisReport* report = nullptr);

}  // namespace gamedb::script
