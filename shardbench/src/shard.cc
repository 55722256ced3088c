#include <algorithm>
#include <cmath>

#include "bench.h"
#include "replication/divergence.h"

namespace shardbench {

namespace replication = gamedb::replication;
namespace script = gamedb::script;
namespace views = gamedb::views;
using gamedb::Combat;
using gamedb::Health;
using gamedb::Position;

namespace {
constexpr uint64_t kBossKillPhase = 7;
}  // namespace

Shard::Shard(const Inputs& in, persist::MemStorage storage, size_t threads,
             SpanRecorder* trace)
    : in_(in),
      trace_(trace),
      planner_(&world_),
      catalog_(&world_, &planner_),
      storage_(std::move(storage)) {
  // loadgen's persistence wiring: WAL + checkpoints under HybridPolicy(25,
  // 60, 40); the WAL syncs every append (MemStorage counts the Sync).
  persist::PersistenceOptions popts;
  popts.mode = persist::DurabilityMode::kWalAndCheckpoint;
  persistence_ = std::make_unique<persist::PersistenceManager>(
      &storage_, std::make_unique<persist::HybridPolicy>(25, 60.0, 40.0),
      popts);

  script::ScriptHostOptions hopts;
  hopts.num_threads = threads;
  hopts.planner = &planner_;
  hopts.views = &catalog_;
  hopts.interpreter.rng_seed = in.seed ^ 0x5ca1ab1eULL;
  hopts.strictness = script::Strictness::kStrict;
  host_ = std::make_unique<script::ScriptHost>(&world_, hopts);
  host_->OnChannel("damage", [this](EntityId e, double total) {
    bool dead = false;
    world_.Patch<Health>(e, [&](Health& h) {
      h.hp -= static_cast<float>(total);
      dead = h.hp <= 0.0f;
    });
    if (dead) {
      world_.Destroy(e);
      ++tick_counts_->destroyed;
    }
  });
  host_->OnChannel("regen", [this](EntityId e, double total) {
    world_.Patch<Health>(e, [&](Health& h) {
      h.hp = std::min(h.hp + static_cast<float>(total), h.max_hp);
    });
  });

  replication::SyncOptions sopts;
  sopts.strategy = replication::SyncStrategy::kInterestView;
  sopts.interest_radius = in.spec.interest_radius;
  sopts.view_catalog = &catalog_;
  sync_ = std::make_unique<replication::SyncServer>(&world_, sopts);
}

Shard::~Shard() = default;

Status Shard::ColdStart() {
  {
    ScopedSpan s(trace_, "persist.recover");
    GAMEDB_RETURN_NOT_OK(
        persist::PersistenceManager::Recover(storage_, &world_).status());
  }
  {
    ScopedSpan s(trace_, "planner.analyze");
    planner_.Analyze();
  }
  {
    // loadgen's global monitoring views; the combat pack reads the first.
    ScopedSpan s(trace_, "views.register");
    views::ViewDef wounded;
    wounded.name = "loadgen_wounded";
    wounded.where = {{"Health", "hp", gamedb::CmpOp::kLt, 30.0}};
    GAMEDB_RETURN_NOT_OK(catalog_.Register(std::move(wounded)).status());
    views::ViewDef critical;
    critical.name = "loadgen_critical";
    critical.where = {{"Health", "hp", gamedb::CmpOp::kLt, 10.0}};
    critical.aggregate = views::AggKind::kAvg;
    critical.agg_component = "Health";
    critical.agg_field = "hp";
    GAMEDB_RETURN_NOT_OK(catalog_.Register(std::move(critical)).status());
  }
  {
    ScopedSpan s(trace_, "script.load");
    GAMEDB_RETURN_NOT_OK(host_->Load(in_.pack_source, in_.pack_origin));
  }
  {
    ScopedSpan s(trace_, "replication.reconnect");
    slots_.resize(in_.avatars.size());
    for (size_t i = 0; i < slots_.size(); ++i) {
      slots_[i].avatar = in_.avatars[i];
      slots_[i].sync_index = sync_->AddClient(in_.avatars[i]);
      slots_[i].connected = true;
    }
    GAMEDB_RETURN_NOT_OK(sync_->SyncAll(&sync_stats_));
  }
  return Status::OK();
}

Status Shard::Tick(uint64_t t, Counts* c) {
  tick_counts_ = c;
  t_ = t;
  if (trace_ != nullptr) trace_->set_tick(static_cast<uint32_t>(t));
  script::ScriptTickStats st;
  {
    ScopedSpan tick(trace_, "tick");
    {
      ScopedSpan s(trace_, "core.advance_tick");
      world_.AdvanceTick();
    }
    {
      ScopedSpan s(trace_, "core.mutate");
      in_.spec.step(*this, t);
    }
    GAMEDB_RETURN_NOT_OK(step_status_);
    {
      ScopedSpan s(trace_, "planner.refresh");
      planner_.OnQuiescent();
    }
    if (trace_ != nullptr) AddViewWork(c, -1);
    {
      ScopedSpan s(trace_, "views.maintain_pre_script");
      catalog_.Maintain();
    }
    {
      ScopedSpan s(trace_, "script.run_tick");
      Result<script::ScriptTickStats> r = host_->RunTickOver("tick", "Combat");
      GAMEDB_RETURN_NOT_OK(r.status());
      st = std::move(*r);
    }
    // Game events feed the checkpoint policy: an autosave mark every 10
    // ticks, a boss kill (forces a checkpoint) once per 20 ticks, quest
    // steps at random. So 5% of ticks checkpoint, every 1000-tick episode
    // holds exactly 50 of them on every seed, and the boss-kill phase (7)
    // meets no other periodic event of any workload.
    Rng ev = TickRng(in_, t, 1);
    const uint64_t now = world_.tick();
    auto event = [&](double importance, const char* label) -> Status {
      ScopedSpan s(trace_, "persist.on_event");
      return persistence_->OnEvent(now, importance, label);
    };
    if (t % 10 == 0) GAMEDB_RETURN_NOT_OK(event(1.0, "autosave_mark"));
    if (t % 20 == kBossKillPhase) {
      GAMEDB_RETURN_NOT_OK(event(50.0, "boss_kill"));
    } else if (ev.NextBool(0.2)) {
      GAMEDB_RETURN_NOT_OK(event(1.0, "quest_step"));
    }
    {
      ScopedSpan s(trace_, "views.maintain_pre_sync");
      catalog_.Maintain();
    }
    {
      ScopedSpan s(trace_, "replication.sync");
      GAMEDB_RETURN_NOT_OK(sync_->SyncAll(&sync_stats_));
    }
    if (trace_ != nullptr) AddViewWork(c, +1);
    {
      ScopedSpan s(trace_, "persist.tick_end");
      Result<bool> r = persistence_->OnTickEnd(world_);
      GAMEDB_RETURN_NOT_OK(r.status());
      checkpointed_ = *r;
    }
  }
  ++c->ticks;
  c->alive_sum += world_.AliveCount();
  c->entity_ticks += st.entities;
  c->script_errors += st.script_errors;
  c->fuel += st.fuel_used;
  c->effects += st.effect_contributions;
  c->dropped_effects += st.dropped_contributions;
  c->client_syncs += sync_->connected_count();
  for (const replication::SyncStats& s : sync_stats_) {
    c->sync_bytes += s.bytes_sent;
    c->sync_rows += s.rows_sent;
    c->sync_removals += s.removals_sent;
  }
  c->checkpoints += checkpointed_ ? 1 : 0;
  return Status::OK();
}

void Shard::AddViewWork(Counts* c, int sign) const {
  uint64_t reevaluated = 0, useful = 0, repopulations = 0;
  for (const std::string& name : catalog_.ViewNames()) {
    const views::ViewStats& s = catalog_.Find(name)->stats();
    reevaluated += s.reevaluated;
    useful += s.enters + s.exits + s.updates;
    repopulations += s.repopulations;
  }
  // Unsigned wrap-around cancels between the -1 and +1 snapshots.
  c->reevaluations += sign * reevaluated;
  c->useful += sign * useful;
  c->repopulations += sign * repopulations;
}

void Shard::SnapshotLayers(Counts* c, int sign) const {
  uint64_t versions = 0;
  world_.ForEachStore(
      [&](const gamedb::TypeInfo&, const gamedb::ComponentStore& store) {
        versions += store.last_version();
      });
  const persist::PersistenceMetrics& pm = persistence_->metrics();
  const auto add = [sign](uint64_t* field, uint64_t v) { *field += sign * v; };
  add(&c->rows_written, versions);
  add(&c->stats_refreshes, planner_.stats_refreshes());
  add(&c->spatial_builds, planner_.spatial_index_builds());
  add(&c->plan_hits, planner_.plan_cache_hits());
  add(&c->plan_misses, planner_.plan_cache_misses());
  add(&c->change_records, catalog_.stats().change_records);
  add(&c->wal_bytes, pm.wal_bytes);
  add(&c->checkpoint_bytes, pm.checkpoint_bytes);
  add(&c->storage_syncs, storage_.syncs());
}

size_t Shard::DivergedReplicas() const {
  size_t diverged = 0;
  for (const Slot& s : slots_) {
    if (!s.connected) continue;
    const replication::DivergenceReport d = replication::MeasureDivergence(
        world_, sync_->client(s.sync_index).world());
    if (d.compared == 0 || d.position_rmse != 0.0 ||
        d.max_position_error != 0.0 || d.hp_mean_abs_error != 0.0) {
      ++diverged;
    }
  }
  return diverged;
}

Status Shard::CheckRecovery(uint32_t live_hash) {
  GAMEDB_RETURN_NOT_OK(persistence_->ForceCheckpoint(world_));
  World recovered;
  GAMEDB_RETURN_NOT_OK(
      persist::PersistenceManager::Recover(storage_, &recovered).status());
  if (HashWorld(recovered) != live_hash) {
    return Status::Corruption("recovered world hash differs from live world");
  }
  return Status::OK();
}

// --- Mutation vocabulary ----------------------------------------------------

Vec3 Shard::Clamp(Vec3 p) const {
  const float a = in_.spec.arena;
  return {std::clamp(p.x, 0.0f, a), 0.0f, std::clamp(p.z, 0.0f, a)};
}

void Shard::Login(const std::vector<std::pair<size_t, Vec3>>& slots_at) {
  for (const auto& [slot, at] : slots_at) {
    slots_[slot].avatar =
        CreateAvatar(world_, Clamp(at), static_cast<int64_t>(slot));
    ++tick_counts_->created;
  }
  for (const auto& [slot, at] : slots_at) {
    ScopedSpan s(trace_, "replication.add_client");
    slots_[slot].sync_index = sync_->AddClient(slots_[slot].avatar);
    slots_[slot].connected = true;
  }
}

void Shard::Logout(size_t slot) {
  {
    ScopedSpan s(trace_, "replication.remove_client");
    sync_->RemoveClient(slots_[slot].sync_index);
  }
  world_.Destroy(slots_[slot].avatar);
  slots_[slot].connected = false;
  ++tick_counts_->destroyed;
}

void Shard::MoveToward(EntityId e, const Vec3& target, float step) {
  world_.Patch<Position>(e, [&](Position& p) {
    const float dx = target.x - p.value.x;
    const float dz = target.z - p.value.z;
    const float len = std::sqrt(dx * dx + dz * dz);
    if (len < 1e-3f) return;
    const float s = std::min(step, len) / len;
    p.value = Clamp({p.value.x + dx * s, 0.0f, p.value.z + dz * s});
  });
}

void Shard::Jitter(EntityId e, float amplitude, Rng& rng) {
  world_.Patch<Position>(e, [&](Position& p) {
    p.value = Clamp({p.value.x + rng.NextFloat(-amplitude, amplitude), 0.0f,
                     p.value.z + rng.NextFloat(-amplitude, amplitude)});
  });
}

void Shard::SetHp(EntityId e, float hp) {
  world_.Patch<Health>(e, [&](Health& h) { h.hp = hp; });
}

void Shard::SetTarget(EntityId e, EntityId target) {
  world_.Patch<Combat>(e, [&](Combat& c) { c.target = target; });
}

void Shard::Spawn(const char* prefab, const Vec3& at, const Vec3& vel,
                  uint64_t lifetime) {
  EntityId e;
  {
    ScopedSpan s(trace_, "content.instantiate");
    Result<EntityId> r = in_.prefabs.Instantiate(&world_, prefab);
    if (!r.ok()) {
      if (step_status_.ok()) step_status_ = r.status();
      return;
    }
    e = *r;
  }
  world_.Set(e, Position{Clamp(at)});
  if (vel.x != 0.0f || vel.z != 0.0f) {
    world_.Set(e, gamedb::Velocity{vel, 0.0f});
  }
  short_lived_.push_back({e, t_ + lifetime});
  ++tick_counts_->created;
  ++tick_counts_->instantiated;
}

void Shard::AdvanceShortLived(uint64_t t) {
  size_t kept = 0;
  for (const ShortLived& s : short_lived_) {
    if (s.expires <= t) {
      world_.Destroy(s.e);
      ++tick_counts_->destroyed;
      continue;
    }
    const gamedb::Velocity* v = world_.Get<gamedb::Velocity>(s.e);
    if (v != nullptr && (v->value.x != 0.0f || v->value.z != 0.0f)) {
      const Vec3 vel = v->value;
      world_.Patch<Position>(s.e, [&](Position& p) {
        p.value = Clamp({p.value.x + vel.x, 0.0f, p.value.z + vel.z});
      });
    }
    short_lived_[kept++] = s;
  }
  short_lived_.resize(kept);
}

bool Counts::operator==(const Counts& o) const {
  return ticks == o.ticks && alive_sum == o.alive_sum &&
         entity_ticks == o.entity_ticks && script_errors == o.script_errors &&
         fuel == o.fuel && effects == o.effects &&
         dropped_effects == o.dropped_effects &&
         client_syncs == o.client_syncs && sync_bytes == o.sync_bytes &&
         sync_rows == o.sync_rows && sync_removals == o.sync_removals &&
         created == o.created && destroyed == o.destroyed &&
         instantiated == o.instantiated && checkpoints == o.checkpoints &&
         rows_written == o.rows_written &&
         stats_refreshes == o.stats_refreshes &&
         spatial_builds == o.spatial_builds &&
         plan_hits + plan_misses == o.plan_hits + o.plan_misses &&
         change_records == o.change_records &&
         wal_bytes == o.wal_bytes && checkpoint_bytes == o.checkpoint_bytes &&
         storage_syncs == o.storage_syncs &&
         reevaluations == o.reevaluations && useful == o.useful &&
         repopulations == o.repopulations;
}

}  // namespace shardbench
