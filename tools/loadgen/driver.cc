#include "loadgen/driver.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/crc32.h"
#include "core/serialize.h"
#include "loadgen_combat_gsl.h"
#include "telemetry/sink.h"

namespace gamedb::loadgen {

namespace {

// The per-entity behavior every scenario runs through the parallel script
// phase ships as assets/scripts/loadgen_combat.gsl, embedded at build time
// (cmake/EmbedGsl.cmake) as kLoadgenCombatScript.

uint64_t HashSnapshot(const World& world) {
  std::string snapshot;
  EncodeWorldSnapshot(world, &snapshot);
  return Crc32c(snapshot.data(), snapshot.size());
}

std::string HashHex(uint64_t h) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08" PRIx64, h);
  return buf;
}

}  // namespace

static telemetry::TelemetrySink MakeSink(const ScenarioConfig& cfg) {
  telemetry::TelemetrySink sink;
  sink.metrics = cfg.metrics;
  sink.tracer = cfg.tracer;
  sink.recorder = cfg.recorder;
  sink.watchdog = cfg.watchdog;
  return sink;
}

static planner::PlannerOptions MakePlannerOptions(const ScenarioConfig& cfg) {
  planner::PlannerOptions opts;
  opts.policy = cfg.planner_on ? planner::PlannerPolicy::kOn
                               : planner::PlannerPolicy::kOff;
  opts.telemetry = MakeSink(cfg);
  return opts;
}

Driver::Driver(const ScenarioConfig& cfg)
    : cfg_(cfg),
      rng_(cfg.seed),
      planner_(&world_, MakePlannerOptions(cfg)),
      catalog_(&world_, &planner_) {
  catalog_.SetTelemetry(MakeSink(cfg));
}

Driver::~Driver() = default;

Status Driver::Init() {
  RegisterStandardComponents();

  // Harness-level instruments: the tick timers and the populations. The
  // subsystems feed their own instruments through the sinks below.
  telemetry::MetricsRegistry* metrics = cfg_.metrics;
  if (metrics == nullptr && cfg_.collect_timing) {
    own_metrics_ = std::make_unique<telemetry::MetricsRegistry>();
    own_metrics_->SetEnabled(true);
    metrics = own_metrics_.get();
  }
  if (metrics != nullptr) {
    m_tick_ns_ = metrics->GetHistogram("tick_ns");
    for (size_t i = 0; i < kTickPhaseCount; ++i) {
      m_phase_ns_[i] = metrics->GetHistogram(std::string(kTickPhases[i]) +
                                             "_ns");
    }
    m_unattributed_ns_ = metrics->GetHistogram("tick.unattributed_ns");
    m_entities_ = metrics->GetGauge("loadgen.entities");
    m_clients_ = metrics->GetGauge("loadgen.clients");
  }
  // EXPLAIN ANALYZE needs runtime collection; bundles ask for it via
  // hot_plans_out. Row counting is observational — determinism holds.
  if (cfg_.hot_plans_out != nullptr) planner_.SetCollectRuntime(true);

  // Initial NPC population.
  for (size_t i = 0; i < cfg_.npcs; ++i) SpawnNpc();
  planner_.Analyze();

  // Global monitoring views: the scripted behavior reads
  // `loadgen_wounded` every entity-tick; `loadgen_critical` is an AVG
  // view, which costs maintenance no more than a plain one (its
  // Aggregate() folds on read). Final memberships land in the
  // deterministic report section.
  views::ViewDef wounded;
  wounded.name = "loadgen_wounded";
  wounded.where = {{"Health", "hp", CmpOp::kLt, 30.0}};
  GAMEDB_RETURN_NOT_OK(catalog_.Register(std::move(wounded)).status());
  views::ViewDef critical;
  critical.name = "loadgen_critical";
  critical.where = {{"Health", "hp", CmpOp::kLt, 10.0}};
  critical.aggregate = views::AggKind::kAvg;
  critical.agg_component = "Health";
  critical.agg_field = "hp";
  GAMEDB_RETURN_NOT_OK(catalog_.Register(std::move(critical)).status());

  // Interest-managed client replication.
  replication::SyncOptions sopts;
  sopts.strategy = replication::SyncStrategy::kInterest;
  sopts.interest_radius = cfg_.interest_radius;
  sopts.telemetry = MakeSink(cfg_);
  sync_ = std::make_unique<replication::SyncServer>(&world_, sopts);

  // WAL + checkpoint persistence (importance-aware policy, as the
  // mmo_shard example wires it).
  persist::PersistenceOptions popts;
  popts.mode = persist::DurabilityMode::kWalAndCheckpoint;
  popts.telemetry = MakeSink(cfg_);
  persistence_ = std::make_unique<persist::PersistenceManager>(
      &storage_,
      std::make_unique<persist::HybridPolicy>(/*max_interval_ticks=*/25,
                                              /*accumulate_threshold=*/60.0,
                                              /*urgent_threshold=*/40.0),
      popts);

  // Parallel scripted behavior.
  script::ScriptHostOptions hopts;
  hopts.num_threads = cfg_.threads;
  hopts.planner = &planner_;
  hopts.views = &catalog_;
  hopts.interpreter.rng_seed = cfg_.seed ^ 0x5ca1ab1eULL;
  hopts.telemetry = MakeSink(cfg_);
  if (cfg_.strict_scripts) hopts.strictness = script::Strictness::kStrict;
  host_ = std::make_unique<script::ScriptHost>(&world_, hopts);
  host_->OnChannel("damage", [this](EntityId e, double total) {
    bool dead = false;
    world_.Patch<Health>(e, [&](Health& h) {
      h.hp -= static_cast<float>(total);
      dead = h.hp <= 0.0f;
    });
    if (dead) {
      world_.Destroy(e);
      ++deaths_;
    }
  });
  host_->OnChannel("regen", [this](EntityId e, double total) {
    world_.Patch<Health>(e, [&](Health& h) {
      h.hp = std::min(h.hp + static_cast<float>(total), h.max_hp);
    });
  });
  return host_->Load(kLoadgenCombatScript, kLoadgenCombatScriptName);
}

Status Driver::Tick(uint64_t t,
                    const std::function<void(Driver&, uint64_t)>& step) {
  // Flight-recorder mode keeps only the current tick's spans, so a bundle
  // cut at tick T shows exactly tick T's phase breakdown.
  if (cfg_.trace_last_tick_only && cfg_.tracer != nullptr) {
    cfg_.tracer->Clear();
  }
  uint64_t tick_ns = 0;
  uint64_t attributed_ns = 0;
  // Runs `body` as phase `p`: one span, which also feeds the phase's
  // histogram and the tick's attributed total.
  auto phase = [&](TickPhase p, const auto& body) {
    telemetry::TraceSpan span(cfg_.tracer, kTickPhases[p], 0, m_phase_ns_[p],
                              &attributed_ns);
    return body();
  };
  script::ScriptTickStats stats;
  {
    telemetry::TraceSpan tick_span(cfg_.tracer, "tick", 0, m_tick_ns_,
                                   &tick_ns);
    world_.AdvanceTick();
    phase(kPhaseMutate, [&] { step(*this, t); });
    phase(kPhasePlannerRefresh, [&] { planner_.OnQuiescent(); });
    phase(kPhaseMaintainPreScript, [&] { catalog_.Maintain(); });
    GAMEDB_ASSIGN_OR_RETURN(stats, phase(kPhaseRunTick, [&] {
                              return host_->RunTickOver("tick", "Combat");
                            }));
    GAMEDB_RETURN_NOT_OK(phase(kPhaseOnEvent, [&] { return GameEvents(t); }));
    // A second round, kept in shardbench's phase order (the sync reads no
    // view).
    phase(kPhaseMaintainPreSync, [&] { catalog_.Maintain(); });
    GAMEDB_RETURN_NOT_OK(
        phase(kPhaseSync, [&] { return sync_->SyncAll(&sync_scratch_); }));
    GAMEDB_RETURN_NOT_OK(phase(kPhaseTickEnd, [&] {
      return persistence_->OnTickEnd(world_).status();
    }));
  }
  if (m_unattributed_ns_ != nullptr) {
    m_unattributed_ns_->Record(tick_ns - attributed_ns);
  }

  // Report bookkeeping and continuous observability at the sequential
  // point, outside the timed tick. Nothing here feeds the simulation.
  script_errors_ += stats.script_errors;
  if (stats.script_errors > 0 && first_script_error_.ok()) {
    first_script_error_ = stats.first_error;
  }
  effect_contributions_ += stats.effect_contributions;
  deferred_ops_ += stats.deferred_ops;
  for (const auto& s : sync_scratch_) {
    sync_bytes_ += s.bytes_sent;
    sync_rows_ += s.rows_sent;
    sync_removals_ += s.removals_sent;
  }
  client_ticks_ += sync_->connected_count();
  CountEntities();
  if (m_entities_ != nullptr) {
    m_entities_->Set(static_cast<int64_t>(world_.AliveCount()));
  }
  if (m_clients_ != nullptr) {
    m_clients_->Set(static_cast<int64_t>(sync_->connected_count()));
  }
  for (const std::string& rule : MakeSink(cfg_).TickHeartbeat(t)) {
    std::fprintf(stderr, "loadgen: watchdog TRIPPED at tick %llu: %s\n",
                 static_cast<unsigned long long>(t), rule.c_str());
  }
  return Status::OK();
}

Status Driver::GameEvents(uint64_t t) {
  // Game events feed the checkpoint policy (and the WAL). The periodic
  // autosave mark guarantees a WAL-traffic floor even on an rng stream that
  // never rolls an organic event (short runs do hit that).
  if (t % 10 == 0) {
    GAMEDB_RETURN_NOT_OK(
        persistence_->OnEvent(world_.tick(), 1.0, "autosave_mark"));
  }
  if (rng_.NextBool(0.02)) {
    return persistence_->OnEvent(world_.tick(), 50.0, "boss_kill");
  }
  if (rng_.NextBool(0.2)) {
    return persistence_->OnEvent(world_.tick(), 1.0, "quest_step");
  }
  return Status::OK();
}

Result<ScenarioReport> Driver::Finish() {
  ScenarioReport r;
  r.config = cfg_;

  const uint64_t final_hash = HashSnapshot(world_);
  r.world_hash = HashHex(final_hash);
  r.final_entities = world_.AliveCount();
  r.peak_entities = peak_entities_;
  r.logins = logins_;
  r.logouts = logouts_;
  r.spawns = spawns_;
  r.despawns = despawns_;
  r.deaths = deaths_;
  r.sync_bytes_total = sync_bytes_;
  r.sync_rows_total = sync_rows_;
  r.sync_removals_total = sync_removals_;
  r.client_ticks = client_ticks_;
  r.sync_bytes_per_client_tick =
      client_ticks_ == 0
          ? 0.0
          : static_cast<double>(sync_bytes_) / static_cast<double>(client_ticks_);
  r.script_errors = script_errors_;
  if (script_errors_ > 0) {
    return Status::Aborted("scenario script errors: " +
                           first_script_error_.ToString());
  }
  r.effect_contributions = effect_contributions_;
  r.deferred_ops = deferred_ops_;
  r.view_rounds = catalog_.stats().rounds;
  r.view_change_records = catalog_.stats().change_records;
  const views::LiveView* wounded = catalog_.Find("loadgen_wounded");
  const views::LiveView* critical = catalog_.Find("loadgen_critical");
  r.wounded_final = wounded != nullptr ? wounded->size() : 0;
  r.critical_final = critical != nullptr ? critical->size() : 0;
  r.checkpoints = persistence_->metrics().checkpoints;
  r.wal_records = persistence_->metrics().wal_records;

  // Post-run crash-recovery differential: force a final checkpoint, recover
  // into a fresh world, and require the recovered snapshot to hash
  // identically — the persistence tier must round-trip scenario-scale state.
  GAMEDB_RETURN_NOT_OK(persistence_->ForceCheckpoint(world_));
  World recovered;
  GAMEDB_ASSIGN_OR_RETURN(persist::RecoveryOutcome outcome,
                          persist::PersistenceManager::Recover(storage_,
                                                               &recovered));
  r.recovery_tick = outcome.recovered_tick;
  if (HashSnapshot(recovered) != final_hash) {
    return Status::Corruption("recovered world hash differs from live world");
  }

  if (cfg_.collect_timing) {
    r.tick = m_tick_ns_->Summarize("tick_ns");
    for (size_t i = 0; i < kTickPhaseCount; ++i) {
      r.phases.push_back(
          m_phase_ns_[i]->Summarize(std::string(kTickPhases[i]) + "_ns"));
    }
    r.phases.push_back(m_unattributed_ns_->Summarize("tick.unattributed_ns"));

    auto check = [&](const char* name, double target_ms, uint64_t got_ns) {
      if (target_ms <= 0.0) return;
      r.slo_evaluated = true;
      double got_ms = static_cast<double>(got_ns) / 1e6;
      telemetry::SloCheck sc;
      sc.name = name;
      sc.target_ms = target_ms;
      sc.measured_ms = got_ms;
      sc.violated = got_ms > target_ms;
      r.slo_checks.push_back(sc);
      if (got_ms > target_ms) {
        r.slo_violated = true;
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%s %.3fms > target %.3fms; ", name,
                      got_ms, target_ms);
        r.slo_detail += buf;
      }
    };
    check("tick_p50", cfg_.slo_p50_ms, r.tick.p50);
    check("tick_p99", cfg_.slo_p99_ms, r.tick.p99);
    check("tick_p999", cfg_.slo_p999_ms, r.tick.p999);
  }
  return r;
}

// --- Mutation vocabulary ----------------------------------------------------

void Driver::SpawnAvatarComponents(EntityId e) {
  world_.Set(e, Position{RandomPoint()});
  world_.Set(e, Health{100.0f, 100.0f});
  Combat c;
  c.attack = 2.0f;
  c.range = 8.0f;
  world_.Set(e, c);
  Actor a;
  a.account_id = static_cast<int64_t>(logins_);
  a.is_player = true;
  world_.Set(e, a);
}

size_t Driver::Login() {
  EntityId avatar = world_.Create();
  SpawnAvatarComponents(avatar);
  ClientSlot slot;
  slot.avatar = avatar;
  slot.connected = true;
  slot.sync_index = sync_->AddClient(avatar);
  clients_.push_back(slot);
  ++logins_;
  return clients_.size() - 1;
}

void Driver::LogoutOne() {
  // rng-chosen among connected, scanning from an rng start for
  // determinism without building a temporary index.
  if (clients_.empty()) return;
  size_t n = clients_.size();
  size_t start = static_cast<size_t>(rng_.NextBounded(n));
  for (size_t k = 0; k < n; ++k) {
    ClientSlot& slot = clients_[(start + k) % n];
    if (!slot.connected) continue;
    sync_->RemoveClient(slot.sync_index);
    if (world_.Alive(slot.avatar)) world_.Destroy(slot.avatar);
    slot.connected = false;
    ++logouts_;
    return;
  }
}

EntityId Driver::SpawnNpc() {
  EntityId e = world_.Create();
  world_.Set(e, Position{RandomPoint()});
  world_.Set(e, Health{rng_.NextFloat(40.0f, 100.0f), 100.0f});
  Combat c;
  c.attack = rng_.NextFloat(1.0f, 4.0f);
  c.range = 6.0f;
  world_.Set(e, c);
  world_.Set(e, Faction{static_cast<int32_t>(spawns_ % 4)});
  npcs_.push_back(e);
  ++spawns_;
  return e;
}

size_t Driver::DespawnNpcs(size_t n) {
  size_t killed = 0;
  size_t scan = 0;
  while (killed < n && scan < npcs_.size()) {
    EntityId e = npcs_[scan++];
    if (!world_.Alive(e)) continue;
    world_.Destroy(e);
    ++killed;
    ++despawns_;
  }
  if (scan > 0) npcs_.erase(npcs_.begin(), npcs_.begin() + scan);
  return killed;
}

void Driver::JitterPositions(double fraction, float amplitude) {
  for (EntityId e : npcs_) {
    if (!world_.Alive(e) || !rng_.NextBool(fraction)) continue;
    world_.Patch<Position>(e, [&](Position& p) {
      p.value.x = std::clamp(p.value.x + rng_.NextFloat(-amplitude, amplitude),
                             0.0f, cfg_.arena);
      p.value.z = std::clamp(p.value.z + rng_.NextFloat(-amplitude, amplitude),
                             0.0f, cfg_.arena);
    });
  }
}

void Driver::ChurnHealth(double fraction) {
  for (EntityId e : npcs_) {
    if (!world_.Alive(e) || !rng_.NextBool(fraction)) continue;
    world_.Patch<Health>(e, [&](Health& h) {
      h.hp = rng_.NextFloat(5.0f, 100.0f);
    });
  }
}

void Driver::Retarget(double fraction) {
  for (EntityId e : npcs_) {
    if (!world_.Alive(e) || !rng_.NextBool(fraction)) continue;
    EntityId target = RandomLiveNpc();
    if (target == e || !target.valid()) continue;
    world_.Patch<Combat>(e, [&](Combat& c) { c.target = target; });
  }
}

void Driver::MoveNpcsToward(const Vec3& target, float step, double fraction) {
  for (EntityId e : npcs_) {
    if (!world_.Alive(e) || !rng_.NextBool(fraction)) continue;
    MoveEntityToward(e, target, step);
  }
}

void Driver::MoveEntityToward(EntityId e, const Vec3& target, float step) {
  if (!world_.Alive(e)) return;
  world_.Patch<Position>(e, [&](Position& p) {
    Vec3 d{target.x - p.value.x, 0.0f, target.z - p.value.z};
    float len = std::sqrt(d.x * d.x + d.z * d.z);
    if (len < 1e-3f) return;
    float s = std::min(step, len) / len;
    p.value.x = std::clamp(p.value.x + d.x * s, 0.0f, cfg_.arena);
    p.value.z = std::clamp(p.value.z + d.z * s, 0.0f, cfg_.arena);
  });
}

size_t Driver::connected_clients() const {
  return sync_ != nullptr ? sync_->connected_count() : 0;
}

EntityId Driver::RandomLiveNpc() {
  if (npcs_.empty()) return EntityId::Invalid();
  // Bounded rejection scan: deterministic, and cheap as long as most of the
  // pool is alive (despawn compacts the dead prefix).
  for (int tries = 0; tries < 8; ++tries) {
    EntityId e = npcs_[rng_.NextBounded(npcs_.size())];
    if (world_.Alive(e)) return e;
  }
  return EntityId::Invalid();
}

Vec3 Driver::RandomPoint() {
  return {rng_.NextFloat(0.0f, cfg_.arena), 0.0f,
          rng_.NextFloat(0.0f, cfg_.arena)};
}

void Driver::CountEntities() {
  peak_entities_ = std::max(peak_entities_,
                            static_cast<uint64_t>(world_.AliveCount()));
}

}  // namespace gamedb::loadgen
