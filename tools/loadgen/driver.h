#pragma once

/// \file driver.h
/// The scenario driver: owns one full-stack shard (World + QueryPlanner +
/// ViewCatalog + ScriptHost + interest SyncServer + WAL/checkpoint
/// PersistenceManager) and exposes the deterministic mutation vocabulary
/// scenarios are written in (login/logout, spawn/despawn waves, movement,
/// health churn, retargeting).
///
/// Every stochastic decision flows through one Rng seeded from
/// ScenarioConfig::seed, and every mutation runs at the sequential point of
/// the tick (before the parallel script phase), so a scenario is a pure
/// function of its config — the replay-determinism property the regression
/// tier asserts. See scenario.h for the public entry points.

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/world.h"
#include "loadgen/scenario.h"
#include "persist/manager.h"
#include "persist/storage.h"
#include "planner/planner.h"
#include "replication/sync.h"
#include "script/host.h"
#include "views/maintainer.h"

namespace gamedb::loadgen {

/// One simulated client slot.
struct ClientSlot {
  size_t sync_index = 0;  ///< index in the SyncServer
  EntityId avatar;
  bool connected = false;
};

class Driver {
 public:
  explicit Driver(const ScenarioConfig& cfg);
  ~Driver();
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// Builds the stack, loads the behavior script, registers the global
  /// monitoring views and spawns the initial population + clients.
  Status Init();

  /// Runs one tick: the phases of kTickPhases in order — scenario
  /// mutations via `step`, planner stats refresh, view maintenance, the
  /// scripted parallel phase, game events, a second view maintenance,
  /// client sync and persistence. Each phase is timed once, into the
  /// registry, when the run has one.
  Status Tick(uint64_t t,
              const std::function<void(Driver&, uint64_t)>& step);

  /// Final report: world hash, counters, quantile digests, SLO verdict,
  /// and the post-run recovery check.
  Result<ScenarioReport> Finish();

  // --- Scenario mutation vocabulary (sequential point only) ---------------

  /// Connects a new client: spawns an avatar and registers it with the
  /// sync server, whose next sync sends it every row in its interest.
  size_t Login();
  /// Disconnects an rng-chosen connected client and despawns its avatar.
  /// No-op when none are connected.
  void LogoutOne();
  EntityId SpawnNpc();
  /// Despawns up to `n` oldest live NPCs; returns how many died.
  size_t DespawnNpcs(size_t n);
  /// Tracked position jitter on ~fraction of live NPCs.
  void JitterPositions(double fraction, float amplitude);
  /// Tracked hp rewrites on ~fraction of live NPCs.
  void ChurnHealth(double fraction);
  /// Points ~fraction of live NPCs' Combat.target at other live NPCs.
  void Retarget(double fraction);
  /// Moves ~fraction of live NPCs `step` units toward `target`.
  void MoveNpcsToward(const Vec3& target, float step, double fraction);
  void MoveEntityToward(EntityId e, const Vec3& target, float step);

  // --- State scenarios read ----------------------------------------------

  const ScenarioConfig& config() const { return cfg_; }
  World& world() { return world_; }
  Rng& rng() { return rng_; }
  size_t connected_clients() const;
  std::vector<ClientSlot>& clients() { return clients_; }
  std::vector<EntityId>& npcs() { return npcs_; }
  /// A live NPC chosen by rng, or Invalid when none are left.
  EntityId RandomLiveNpc();
  /// Static-verifier findings from the behavior-pack load (host Load runs
  /// the GSL verifier; see ScriptHostOptions::strictness). Valid after
  /// Init().
  const script::DiagnosticSink& script_diagnostics() const {
    return host_->diagnostics();
  }
  /// The shard's planner (EXPLAIN ANALYZE of hot plans for bundles).
  planner::QueryPlanner& planner() { return planner_; }
  Vec3 RandomPoint();
  /// Per-scenario scratch (e.g. chase quarry assignments).
  std::vector<EntityId> scratch;

 private:
  /// The tick's game events (persist.on_event): an autosave mark every 10
  /// ticks, and rng-rolled boss kills and quest steps.
  Status GameEvents(uint64_t t);
  void SpawnAvatarComponents(EntityId e);
  void CountEntities();

  ScenarioConfig cfg_;
  World world_;
  Rng rng_;
  planner::QueryPlanner planner_;
  views::ViewCatalog catalog_;
  std::unique_ptr<script::ScriptHost> host_;
  persist::MemStorage storage_;
  std::unique_ptr<persist::PersistenceManager> persistence_;
  std::unique_ptr<replication::SyncServer> sync_;

  std::vector<ClientSlot> clients_;
  std::vector<EntityId> npcs_;
  std::vector<replication::SyncStats> sync_scratch_;

  // Deterministic counters.
  uint64_t logins_ = 0, logouts_ = 0, spawns_ = 0, despawns_ = 0;
  uint64_t deaths_ = 0;
  uint64_t peak_entities_ = 0;
  uint64_t sync_bytes_ = 0, sync_rows_ = 0, sync_removals_ = 0;
  uint64_t client_ticks_ = 0;
  uint64_t script_errors_ = 0, effect_contributions_ = 0, deferred_ops_ = 0;
  Status first_script_error_ = Status::OK();

  // Tick timers (null when the run is untimed and has no registry): the
  // series the report's timing section and the watchdog's default SLO
  // rules read. A timed run given no registry records into its own.
  std::unique_ptr<telemetry::MetricsRegistry> own_metrics_;
  telemetry::Histogram* m_tick_ns_ = nullptr;
  std::array<telemetry::Histogram*, kTickPhaseCount> m_phase_ns_{};
  telemetry::Histogram* m_unattributed_ns_ = nullptr;
  telemetry::Gauge* m_entities_ = nullptr;
  telemetry::Gauge* m_clients_ = nullptr;
};

}  // namespace gamedb::loadgen
