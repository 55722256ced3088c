#include "loadgen/scenario.h"

#include <algorithm>

#include "common/macros.h"
#include "common/rng.h"
#include "loadgen/driver.h"

namespace gamedb::loadgen {

namespace {

/// One registered scenario: a name, a one-liner for --list, per-scenario
/// SLO defaults, and the per-tick mutation step. Every step draws all
/// randomness from driver.rng() and runs at the tick's sequential point.
struct Scenario {
  const char* name;
  const char* description;
  double slo_p50_ms;
  double slo_p99_ms;
  double slo_p999_ms;
  void (*step)(Driver&, uint64_t);
};

/// Logs clients in/out toward `target` connected, at most `burst` per tick.
void RampClients(Driver& d, size_t target, size_t burst) {
  size_t connected = d.connected_clients();
  for (size_t i = 0; connected < target && i < burst; ++i, ++connected) {
    d.Login();
  }
  for (size_t i = 0; connected > target && i < burst; ++i, --connected) {
    d.LogoutOne();
  }
}

// --- login_storm ------------------------------------------------------------
// Connection churn is the load: ramp everyone on in the first third (each
// login cold-syncs a replica with every row in its interest),
// hold steady, then a disconnect storm down to a quarter — while the world
// itself stays comparatively calm.
void StepLoginStorm(Driver& d, uint64_t t) {
  const ScenarioConfig& cfg = d.config();
  const size_t burst = std::max<size_t>(1, cfg.clients / 8);
  if (t * 3 <= cfg.ticks) {
    RampClients(d, cfg.clients, burst);
  } else if (t * 3 <= cfg.ticks * 2) {
    RampClients(d, cfg.clients, 1);  // top up slots freed by logouts
  } else {
    RampClients(d, std::max<size_t>(1, cfg.clients / 4), burst);
  }
  d.JitterPositions(0.10, 8.0f);
  d.ChurnHealth(0.02);
  d.Retarget(0.02);
}

// --- flash_crowd ------------------------------------------------------------
// Everyone converges on one hotspot that relocates every quarter-run: the
// worst case for spatial density stats, interest overlap (every client's
// interest covers the same crowd) and the pair-wise damage load.
void StepFlashCrowd(Driver& d, uint64_t t) {
  const ScenarioConfig& cfg = d.config();
  if (t == 1) RampClients(d, cfg.clients, cfg.clients);
  // The hotspot is a pure function of (seed, period index): every run sees
  // the same jump sequence without threading state between ticks.
  const uint64_t period = std::max<uint64_t>(1, cfg.ticks / 4);
  Rng hot(cfg.seed ^ (0x9e3779b97f4a7c15ULL * ((t - 1) / period + 1)));
  const Vec3 hotspot{hot.NextFloat(0.0f, cfg.arena), 0.0f,
                     hot.NextFloat(0.0f, cfg.arena)};
  d.MoveNpcsToward(hotspot, 25.0f, 0.8);
  for (ClientSlot& slot : d.clients()) {
    if (slot.connected) d.MoveEntityToward(slot.avatar, hotspot, 20.0f);
  }
  d.ChurnHealth(0.03);
  d.Retarget(0.05);
}

// --- spawn_wave -------------------------------------------------------------
// Mass spawn waves with trailing despawns: the entity allocator, change
// capture `added`/`removed` coalescing, view (re)entries and replica
// removals all churn; population breathes between 1× and ~1.6× npcs.
void StepSpawnWave(Driver& d, uint64_t t) {
  const ScenarioConfig& cfg = d.config();
  if (t == 1) RampClients(d, cfg.clients, cfg.clients);
  const size_t wave = std::max<size_t>(1, cfg.npcs / 8);
  if (t % 8 == 2) {
    for (size_t i = 0; i < wave; ++i) d.SpawnNpc();
  }
  if (t % 8 == 6 && d.npcs().size() > cfg.npcs) {
    d.DespawnNpcs(wave);
  }
  d.JitterPositions(0.15, 10.0f);
  d.ChurnHealth(0.03);
  d.Retarget(0.03);
}

// --- chase ------------------------------------------------------------------
// The aggro/chase workload: every avatar sprints after a fleeing quarry, so
// every client's interest center moves every tick and rows enter and leave
// its radius from every side at full client count.
void StepChase(Driver& d, uint64_t t) {
  const ScenarioConfig& cfg = d.config();
  if (t == 1) RampClients(d, cfg.clients, cfg.clients);
  std::vector<ClientSlot>& clients = d.clients();
  d.scratch.resize(clients.size(), EntityId::Invalid());
  for (size_t i = 0; i < clients.size(); ++i) {
    if (!clients[i].connected || !d.world().Alive(clients[i].avatar)) continue;
    EntityId quarry = d.scratch[i];
    if (!d.world().Alive(quarry)) {
      quarry = d.RandomLiveNpc();
      d.scratch[i] = quarry;
    }
    if (!quarry.valid()) continue;
    const Position* qp = d.world().Get<Position>(quarry);
    const Position* ap = d.world().Get<Position>(clients[i].avatar);
    if (qp == nullptr || ap == nullptr) continue;
    // Quarry flees directly away from its hunter; hunter closes at higher
    // speed, so catches happen and a new quarry is picked.
    Vec3 flee{qp->value.x * 2.0f - ap->value.x, 0.0f,
              qp->value.z * 2.0f - ap->value.z};
    d.MoveEntityToward(quarry, flee, 12.0f);
    d.MoveEntityToward(clients[i].avatar, qp->value, 16.0f);
    const Position* qp2 = d.world().Get<Position>(quarry);
    const Position* ap2 = d.world().Get<Position>(clients[i].avatar);
    if (qp2 != nullptr && ap2 != nullptr &&
        qp2->value.DistanceSquaredTo(ap2->value) < 4.0f) {
      d.scratch[i] = EntityId::Invalid();  // caught; pick a new quarry
    }
  }
  d.JitterPositions(0.10, 6.0f);
  d.ChurnHealth(0.02);
  d.Retarget(0.02);
}

// --- steady_state -----------------------------------------------------------
// The mixed background workload every other scenario deviates from: modest
// movement, health churn, retargeting, a trickle of spawns/despawns and
// connection churn, all at once.
void StepSteadyState(Driver& d, uint64_t t) {
  const ScenarioConfig& cfg = d.config();
  if (t == 1) RampClients(d, cfg.clients, cfg.clients);
  d.JitterPositions(0.20, 10.0f);
  d.ChurnHealth(0.05);
  d.Retarget(0.03);
  if (d.rng().NextBool(0.25)) d.SpawnNpc();
  if (d.rng().NextBool(0.25)) d.DespawnNpcs(1);
  if (d.rng().NextBool(0.05)) d.LogoutOne();
  if (d.rng().NextBool(0.05) && d.connected_clients() < cfg.clients) {
    d.Login();
  }
}

constexpr Scenario kScenarios[] = {
    {"login_storm",
     "connection churn: login/logout storms with cold replica syncs",
     20.0, 60.0, 200.0, StepLoginStorm},
    // flash_crowd's targets are looser than the rest: with every client and
    // npc converging on one bubble, interest sets approach the whole world
    // and sync volume is ~100x login_storm's (see docs/BASELINES.md).
    {"flash_crowd",
     "hotspot convergence: every entity and client piles onto one bubble",
     60.0, 120.0, 300.0, StepFlashCrowd},
    {"spawn_wave",
     "mass spawn/despawn waves: allocator + change-capture churn",
     20.0, 60.0, 200.0, StepSpawnWave},
    {"chase",
     "moving interest: every avatar chases a fleeing quarry",
     25.0, 80.0, 250.0, StepChase},
    {"steady_state",
     "mixed background load: movement, churn, trickle spawns and logins",
     15.0, 50.0, 150.0, StepSteadyState},
};

const Scenario* FindScenario(const std::string& name) {
  for (const Scenario& s : kScenarios) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

}  // namespace

std::vector<std::string> ScenarioNames() {
  std::vector<std::string> names;
  for (const Scenario& s : kScenarios) names.emplace_back(s.name);
  return names;
}

bool IsScenarioName(const std::string& name) {
  return FindScenario(name) != nullptr;
}

std::string ScenarioDescription(const std::string& name) {
  const Scenario* s = FindScenario(name);
  return s != nullptr ? s->description : "";
}

Result<ScenarioConfig> DefaultConfig(const std::string& name) {
  const Scenario* s = FindScenario(name);
  if (s == nullptr) {
    return Status::InvalidArgument("unknown scenario: " + name);
  }
  ScenarioConfig cfg;
  cfg.scenario = s->name;
  cfg.slo_p50_ms = s->slo_p50_ms;
  cfg.slo_p99_ms = s->slo_p99_ms;
  cfg.slo_p999_ms = s->slo_p999_ms;
  return cfg;
}

Result<ScenarioReport> RunScenario(const ScenarioConfig& cfg) {
  const Scenario* s = FindScenario(cfg.scenario);
  if (s == nullptr) {
    return Status::InvalidArgument("unknown scenario: " + cfg.scenario);
  }
  Driver driver(cfg);
  GAMEDB_RETURN_NOT_OK(driver.Init());
  for (uint64_t t = 1; t <= cfg.ticks; ++t) {
    GAMEDB_RETURN_NOT_OK(driver.Tick(t, [&](Driver& d, uint64_t tick) {
      s->step(d, tick);
    }));
  }
  // Hot plans are harvested before Finish: the recovery differential can
  // fail Finish, and the diagnostic bundle wants the plans precisely then.
  if (cfg.hot_plans_out != nullptr) {
    *cfg.hot_plans_out = driver.planner().HottestPlans(5);
  }
  return driver.Finish();
}

}  // namespace gamedb::loadgen
