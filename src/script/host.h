#pragma once

/// \file host.h
/// ScriptHost: executes a GSL behavior over a set of entities as a true
/// *parallel query phase* — the set-at-a-time script processing the paper's
/// follow-up work (Sowell et al., "From Declarative Languages to Declarative
/// Processing in Computer Games") argues scripts written in the state-effect
/// style admit: scripts "parallelize like joins".
///
/// One Interpreter per shard shares a single parsed Script; entities are
/// partitioned with ThreadPool::ParallelForChunks; each shard runs the
/// script's per-entity tick function read-only against tick-start state with
/// writes flowing only through ScriptEffects channels (emit) or DeferredOps
/// (gated set/add/remove/destroy). A deterministic apply phase then drains
/// channels in registration order and replays deferred ops in shard order.
///
/// Determinism contract: for a fixed entity order, running a tick with 1, 2
/// or 8 threads produces bit-identical world state. The pieces that make
/// this hold:
///   - chunking assigns contiguous ascending entity ranges to ascending
///     shard ids, so shard-order drains reproduce the single-thread order;
///   - the script-visible RNG is re-seeded per entity from
///     (base seed, world tick, entity id), so random() streams do not
///     depend on which shard an entity landed in;
///   - mutation builtins never touch the World during the query phase.
/// Scripts should treat interpreter globals as read-only during a parallel
/// tick: global writes are per-shard and their final values depend on the
/// partition (print() output is safe — it is drained in shard order).

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/state_effect.h"
#include "script/bindings.h"
#include "script/interpreter.h"
#include "telemetry/sink.h"

namespace gamedb::views {
class ViewCatalog;
}  // namespace gamedb::views

namespace gamedb::script {

/// Configuration for a ScriptHost.
struct ScriptHostOptions {
  /// Worker threads for the query phase (also the shard count). 1 gives a
  /// sequential but still phase-separated (and identically-behaving) host.
  size_t num_threads = 1;
  /// Base options for every per-shard interpreter. `rng_seed` acts as the
  /// base of the per-entity random() streams.
  InterpreterOptions interpreter;
  /// What the mutation builtins do during the query phase. kDirect is not
  /// allowed here — it is exactly the data race the host exists to prevent.
  /// kDirectChecked arms the analysis-gated fast path: ticks whose entry
  /// function the verifier's access-summary pass proved disjoint
  /// (DirectWriteEligible + no conflict-graph edge) apply set() writes in
  /// place during the query phase, skipping the DeferredOps value replay;
  /// every other tick silently falls back to kDefer behavior
  /// (ScriptTickStats::fallback_reason says why). Requires strictness !=
  /// kOff for the analysis to exist — otherwise every tick falls back.
  MutationPolicy mutations = MutationPolicy::kDefer;
  /// Optional cost-based query planner (planner/planner.h QueryPlanner):
  /// the query builtins of every shard plan through it. Its Execute must
  /// be thread-safe — QueryPlanner's is. The tick loop refreshes its
  /// statistics (QueryPlanner::OnQuiescent) at the sequential point before
  /// RunTick; the host never does. nullptr keeps the hard-coded access
  /// paths (PlannerPolicy::kOff equivalent).
  QueryPlanHook* planner = nullptr;
  /// Optional live-view catalog (views/maintainer.h): the view read
  /// builtins (view_count / view_contains / view_members / view_aggregate)
  /// are bound on every shard interpreter. The tick loop calls its
  /// Maintain() at the sequential point before RunTick, so shards read a
  /// consistent tick-start snapshot of every view; the host never does.
  views::ViewCatalog* views = nullptr;
  /// Static-verifier strictness for Load (analyzer.h Verify): the verifier
  /// checks phase safety (writes/spawn against `mutations`), schema
  /// bindings (components/fields/views/channels against the reflection
  /// registry, the view catalog and the wired channels) and static cost.
  ///   kOff    — historical behavior: structural analysis only.
  ///   kWarn   — full verifier; phase/bindings/cost findings are logged and
  ///             kept readable via diagnostics(), the load proceeds
  ///             (structural errors still reject, as they always have).
  ///   kStrict — any error-severity finding rejects the load.
  Strictness strictness = Strictness::kWarn;
  /// Per-entry-point worst-case cost budget for the verifier's cost pass,
  /// in planner cost units (analyzer.h CostModelOptions); 0 disables
  /// budget enforcement.
  double script_cost_budget = 0.0;
  /// Optional telemetry hook (telemetry/sink.h). When a metrics registry is
  /// present the host folds its per-tick counters and its query and apply
  /// timings into `script.*` instruments; when a tracer is present RunTick
  /// records the query-phase, per-shard and apply spans. Both pointers are
  /// non-owning and must outlive the host.
  telemetry::TelemetrySink telemetry{};
};

/// Outcome of one scripted parallel tick.
struct ScriptTickStats {
  /// Entities offered to the query phase (dead ids are skipped silently).
  size_t entities = 0;
  /// tick-function invocations that returned an error. The tick keeps
  /// running (one bad entity must not wedge the shard); the error for the
  /// earliest entity in tick order is preserved in `first_error`.
  size_t script_errors = 0;
  Status first_error = Status::OK();
  /// Effect contributions emitted during the query phase, and how many were
  /// discarded because no apply function was registered for their channel.
  size_t effect_contributions = 0;
  size_t dropped_contributions = 0;
  /// Mutations deferred during the query phase, and how many no longer
  /// applied at replay time (e.g. set after destroy of the same entity).
  size_t deferred_ops = 0;
  size_t deferred_skipped = 0;
  /// Interpreter fuel burned across all shards this tick.
  uint64_t fuel_used = 0;
  /// MutationPolicy::kDirectChecked telemetry. `direct_checked` is true
  /// when this tick ran the in-place fast path; otherwise (under that
  /// policy) `fallback_reason` says why the tick used deferred replay.
  /// `direct_writes` counts set() calls applied in place,
  /// `direct_redirected` counts writes the gate bounced back to the
  /// deferred buffer (0 unless the analysis verdict was wrong — asserted
  /// by the differential tests).
  bool direct_checked = false;
  size_t direct_writes = 0;
  size_t direct_redirected = 0;
  /// A tick runs one entry function, so it has at most one fallback reason;
  /// the host's `fallback_reason_counts()` accumulates them across ticks.
  std::string fallback_reason;
};

/// Parallel scripted query phase over a World. See file comment.
///
/// Typical flow:
///   ScriptHost host(&world, {.num_threads = 8});
///   host.OnChannel("damage", [&](EntityId e, double v) { ... });
///   host.Load(source);
///   each frame: world.AdvanceTick();
///               planner.OnQuiescent();  // when options.planner is set
///               catalog.Maintain();     // when options.views is set
///               host.RunTickOver("tick", "ScriptRef");
class ScriptHost {
 public:
  explicit ScriptHost(World* world, ScriptHostOptions options = {});
  GAMEDB_DISALLOW_COPY(ScriptHost);

  /// Parses `source` once and loads the shared Script into every shard
  /// interpreter. The script's top level must not mutate the world or emit
  /// effects (it runs once per shard; duplicated side effects would be
  /// applied shard_count times).
  Status Load(std::string_view source, std::string_view origin = "<host>");

  /// Registers the apply function for an effect channel. The apply phase
  /// drains channels in registration order; contributions to channels with
  /// no registered apply are dropped (and counted per tick).
  void OnChannel(std::string name, std::function<void(EntityId, double)> apply);

  /// Runs `fn(entity)` for every live entity in `entities` (in order) as a
  /// parallel query phase, then applies effects and deferred mutations.
  /// Fails only on host-level problems (unknown function); per-entity
  /// script errors are reported through the stats.
  Result<ScriptTickStats> RunTick(const std::string& fn,
                                  const std::vector<EntityId>& entities);

  /// Convenience: RunTick over all entities carrying the named component
  /// (deterministic table order).
  Result<ScriptTickStats> RunTickOver(const std::string& fn,
                                      const std::string& component);

  /// Sets a global in every shard interpreter (host -> script parameters).
  void SetGlobal(const std::string& name, const Value& v);

  /// print() lines from all shards in tick order (shard order == entity
  /// order), clearing the per-shard buffers.
  std::vector<std::string> DrainOutput();

  size_t shard_count() const { return shards_.size(); }
  ScriptEffects& effects() { return effects_; }
  /// Per-shard interpreter access (tests, per-shard globals).
  Interpreter& interpreter(size_t shard) { return *shards_[shard]; }

  /// Verifier findings from the most recent Load (empty under
  /// Strictness::kOff, and cleared at the start of every Load).
  const DiagnosticSink& diagnostics() const { return diagnostics_; }
  /// Verifier report (effects, per-entry costs) from the most recent Load.
  const VerifyReport& verify_report() const { return verify_report_; }

  /// kDirectChecked tick counters since construction: ticks that ran the
  /// in-place fast path vs. ticks that fell back to deferred replay.
  uint64_t direct_ticks() const { return direct_ticks_; }
  uint64_t fallback_ticks() const { return fallback_ticks_; }

  /// Accumulated fallback composition since construction: reason text ->
  /// number of ticks that fell back for that reason.
  const std::map<std::string, uint64_t>& fallback_reason_counts() const {
    return fallback_reason_counts_;
  }

  /// Load-time direct-write verdict for entry function `fn`: (eligible,
  /// reason-when-not). Missing entries (never analyzed) report ineligible.
  std::pair<bool, std::string> DirectVerdict(const std::string& fn) const;

 private:
  /// Load-time analysis verdict for one entry point under kDirectChecked.
  struct DirectEntry {
    bool eligible = false;
    std::string reason;
    /// Component names the entry writes (for the per-tick observer check).
    std::vector<std::string> written_components;
  };

  /// Ensures every registered component type has a store before the query
  /// phase: reads through the bindings must not grow World's store map from
  /// pool threads.
  void PrewarmStores();

  World* world_;
  ScriptHostOptions options_;
  StateEffectExecutor exec_;
  ScriptEffects effects_;
  DeferredOps deferred_;
  std::vector<std::unique_ptr<Interpreter>> shards_;
  /// (channel name, apply fn) in registration order.
  std::vector<std::pair<std::string, std::function<void(EntityId, double)>>>
      channels_;
  DiagnosticSink diagnostics_;
  VerifyReport verify_report_;
  /// kDirectChecked state: the gate shards read during the query phase,
  /// and the per-entry verdicts computed at Load from the verify report.
  DirectWriteGate gate_;
  std::unordered_map<std::string, DirectEntry> direct_eligible_;
  uint64_t direct_ticks_ = 0;
  uint64_t fallback_ticks_ = 0;
  std::map<std::string, uint64_t> fallback_reason_counts_;

  /// Cached registry instruments (resolved once in the constructor; all
  /// nullptr when options_.telemetry.metrics is null).
  struct TickInstruments {
    telemetry::Counter* ticks = nullptr;
    telemetry::Counter* entities = nullptr;
    telemetry::Counter* script_errors = nullptr;
    telemetry::Counter* effect_contributions = nullptr;
    telemetry::Counter* dropped_contributions = nullptr;
    telemetry::Counter* deferred_ops = nullptr;
    telemetry::Counter* deferred_skipped = nullptr;
    telemetry::Counter* direct_ticks = nullptr;
    telemetry::Counter* fallback_ticks = nullptr;
    telemetry::Counter* direct_writes = nullptr;
    telemetry::Counter* direct_redirected = nullptr;
    telemetry::Histogram* query_phase_ns = nullptr;
    telemetry::Histogram* apply_phase_ns = nullptr;
  };
  TickInstruments instruments_;
};

}  // namespace gamedb::script
