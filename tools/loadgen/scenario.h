#pragma once

/// \file scenario.h
/// The MMO scenario load harness: seed-deterministic hostile workloads
/// driven against the *full* gamedb stack — World mutations, the ScriptHost
/// parallel query phase, the cost-based planner, ViewCatalog live views,
/// interest-managed client sync, and the WAL/checkpoint persistence tier —
/// with per-tick latency histograms (p50/p99/p99.9), per-phase breakdowns
/// and sync bytes/client, serialized as machine-readable
/// BENCH_e15_<scenario>.json (metrics.h) so the perf trajectory is
/// diffable PR-over-PR.
///
/// Paper: the tutorial's core claim is that a declarative, database-backed
/// engine can sustain massive multiplayer workloads; the Sowell et al.
/// follow-up argues the payoff shows up under rich, *shifting* query
/// workloads. The scenario library is exactly that shifting load: login
/// storms, hotspot flash crowds, mass spawn waves, chases that move every
/// client's interest — not one subsystem in isolation (e01–e14), the whole
/// tick loop.
///
/// Determinism contract (tests/loadgen, tests/stress): for a fixed
/// (scenario, seed, clients, npcs, ticks), the final world-state hash — and
/// every counter in ScenarioReport's deterministic section — is identical
/// at 1 vs N ScriptHost threads and with the planner on vs off. Latency
/// timings are observational only and never feed back into the simulation.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "telemetry/bundle.h"
#include "telemetry/registry.h"

namespace gamedb::telemetry {
class Tracer;
}  // namespace gamedb::telemetry

namespace gamedb::loadgen {

/// Parameters of one scenario run. Defaults are the bench-scale
/// configuration; tests run reduced scale, the stress tier larger.
struct ScenarioConfig {
  std::string scenario = "steady_state";
  /// Simulated clients (each: an avatar entity + an interest-synced
  /// replica). Scenario phases may connect/disconnect a subset.
  size_t clients = 32;
  /// Initial NPC population (spawn waves may grow it).
  size_t npcs = 2000;
  size_t ticks = 120;
  uint64_t seed = 2026;
  /// ScriptHost query-phase threads (also the shard count).
  size_t threads = 1;
  /// Cost-based planner on (PlannerPolicy::kOn) or off (built-in paths).
  bool planner_on = true;
  float arena = 1000.0f;
  float interest_radius = 80.0f;
  /// When false, the emitted JSON omits the timing section entirely — the
  /// whole report is then byte-identical for a given (scenario, seed) at
  /// any thread count (the scenario-replay regression tier asserts exactly
  /// this) — and, without a `metrics` registry, the tick is not timed.
  bool collect_timing = true;
  /// Load the behavior pack under Strictness::kStrict — any error-severity
  /// finding from the GSL static verifier (script/analyzer.h) rejects the
  /// load and fails Init. The default kWarn keeps findings observable via
  /// Driver::script_diagnostics() without gating.
  bool strict_scripts = false;
  /// Tick-latency SLO targets in milliseconds; <= 0 disables that gate.
  /// Violations are recorded in the report (and fail the CLI under
  /// --enforce-slo); they never abort the run.
  double slo_p50_ms = 0.0;
  double slo_p99_ms = 0.0;
  double slo_p999_ms = 0.0;
  /// Optional telemetry taps (telemetry/registry.h, telemetry/trace.h),
  /// threaded into every subsystem the Driver builds. Non-owning; the
  /// caller (loadgen --metrics/--trace) owns them and must keep them alive
  /// across RunScenario. The registry also holds the tick-phase histograms
  /// the report's timing section is read from, so give each run its own;
  /// a timed run without one times its phases into a private registry.
  /// Telemetry is observational only — it never feeds back into the
  /// simulation, so the determinism contract above holds with or without
  /// these taps.
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::Tracer* tracer = nullptr;
  /// Continuous-observability pair (PR 10): when set, the Driver samples
  /// the recorder and evaluates the watchdog at the sequential point of
  /// every tick (after persistence, before the next tick's mutations).
  /// Non-owning, same lifetime contract as metrics/tracer; observational
  /// only, so the determinism contract still holds.
  telemetry::FlightRecorder* recorder = nullptr;
  telemetry::Watchdog* watchdog = nullptr;
  /// Clear the tracer at each tick start so it only ever holds the current
  /// tick's spans — what a flight-recorder bundle wants. Mutually
  /// exclusive with whole-run --trace output (loadgen refuses both).
  bool trace_last_tick_only = false;
  /// When non-null, RunScenario turns on planner runtime collection and
  /// fills this with EXPLAIN ANALYZE text of the hottest cached plans
  /// after the tick loop — before the Driver (and its planner) is torn
  /// down, so a bundle can include them even when Finish() fails.
  std::vector<std::string>* hot_plans_out = nullptr;
};

/// The tick's phases in execution order. Driver::Tick runs each inside one
/// telemetry::TraceSpan that records the registry histogram `<phase>_ns`;
/// whatever the phases leave of `tick_ns` is recorded as
/// `tick.unattributed_ns`.
enum TickPhase : size_t {
  kPhaseMutate,
  kPhasePlannerRefresh,
  kPhaseMaintainPreScript,
  kPhaseRunTick,
  kPhaseOnEvent,
  kPhaseMaintainPreSync,
  kPhaseSync,
  kPhaseTickEnd,
  kTickPhaseCount,
};

/// Phase names, by TickPhase: shardbench's layer names.
inline constexpr const char* kTickPhases[kTickPhaseCount] = {
    "core.mutate",
    "planner.refresh",
    "views.maintain_pre_script",
    "script.run_tick",
    "persist.on_event",
    "views.maintain_pre_sync",
    "replication.sync",
    "persist.tick_end",
};

/// Everything one scenario run produced. Fields above `tick` are the
/// deterministic section (thread- and planner-invariant, timing-free);
/// the histogram digests and the SLO verdict are observational.
struct ScenarioReport {
  ScenarioConfig config;

  // --- Deterministic section --------------------------------------------
  /// CRC-32C (hex) of the final world snapshot: the whole-system
  /// differential discipline of PRs 3–5 extended to scenario scale.
  std::string world_hash;
  uint64_t final_entities = 0;
  uint64_t peak_entities = 0;
  uint64_t logins = 0;
  uint64_t logouts = 0;
  uint64_t spawns = 0;
  uint64_t despawns = 0;
  uint64_t deaths = 0;
  uint64_t sync_bytes_total = 0;
  uint64_t sync_rows_total = 0;
  uint64_t sync_removals_total = 0;
  /// Σ over ticks of connected clients — the denominator of bytes/client.
  uint64_t client_ticks = 0;
  double sync_bytes_per_client_tick = 0.0;
  uint64_t script_errors = 0;
  uint64_t effect_contributions = 0;
  uint64_t deferred_ops = 0;
  uint64_t view_rounds = 0;
  uint64_t view_change_records = 0;
  /// Final membership of the two global monitoring views.
  uint64_t wounded_final = 0;
  uint64_t critical_final = 0;
  uint64_t checkpoints = 0;
  uint64_t wal_records = 0;
  /// Post-run crash-recovery check: tick a fresh Recover() restored to.
  uint64_t recovery_tick = 0;

  // --- Timing section (empty when !config.collect_timing) ---------------
  /// Registry digests in nanoseconds: `tick_ns`, then `<phase>_ns` for
  /// each of kTickPhases in order, then `tick.unattributed_ns`.
  telemetry::HistogramSummary tick;
  std::vector<telemetry::HistogramSummary> phases;
  bool slo_evaluated = false;
  bool slo_violated = false;
  std::string slo_detail;
  /// One structured entry per configured SLO gate (violated or not), so
  /// breach reporting can say which metric tripped with measured vs
  /// allowed values — the same records a flight-recorder bundle embeds.
  std::vector<telemetry::SloCheck> slo_checks;
};

/// Names of every registered scenario, in registry order.
std::vector<std::string> ScenarioNames();
bool IsScenarioName(const std::string& name);
/// One-line description of a scenario ("" when unknown).
std::string ScenarioDescription(const std::string& name);

/// Bench-scale default configuration for a scenario, including its default
/// latency SLO targets. InvalidArgument on an unknown name.
Result<ScenarioConfig> DefaultConfig(const std::string& name);

/// Runs one scenario to completion. Fails only on harness-level errors
/// (unknown scenario, script load failure); script errors and SLO
/// violations are reported through the ScenarioReport.
Result<ScenarioReport> RunScenario(const ScenarioConfig& cfg);

}  // namespace gamedb::loadgen
