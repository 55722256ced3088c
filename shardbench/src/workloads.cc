#include <algorithm>
#include <cmath>

#include "bench.h"
#include "common/crc32.h"
#include "core/serialize.h"
#include "txn/txn.h"

namespace shardbench {

using gamedb::Combat;
using gamedb::Health;
using gamedb::Position;

uint32_t HashWorld(const World& world) {
  std::string snapshot;
  gamedb::EncodeWorldSnapshot(world, &snapshot);
  return gamedb::Crc32c(snapshot.data(), snapshot.size());
}

Rng TickRng(const Inputs& in, uint64_t t, uint64_t stream) {
  return Rng(in.seed ^ (0x9E3779B97F4A7C15ULL * (t * 8 + stream + 1)));
}

EntityId CreateAvatar(World& world, const Vec3& at, int64_t account) {
  EntityId e = world.Create();
  world.Set(e, Position{at});
  world.Set(e, Health{100.0f, 100.0f});
  Combat c;
  c.attack = 2.0f;
  c.range = 8.0f;
  world.Set(e, c);
  gamedb::Actor a;
  a.account_id = account;
  a.is_player = true;
  world.Set(e, a);
  return e;
}

namespace {

Vec3 RandomPoint(Rng& rng, float lo, float hi) {
  return {rng.NextFloat(lo, hi), 0.0f, rng.NextFloat(lo, hi)};
}

Vec3 RandomInDisc(Rng& rng, const Vec3& c, float r) {
  const float a = rng.NextFloat(0.0f, 6.2831853f);
  const float d = r * std::sqrt(rng.NextFloat(0.0f, 1.0f));
  return {c.x + d * std::cos(a), 0.0f, c.z + d * std::sin(a)};
}

void MakeNpc(Inputs& in, World& world, const Vec3& at, Rng& rng) {
  EntityId e = world.Create();
  world.Set(e, Position{at});
  world.Set(e, Health{rng.NextFloat(40.0f, 100.0f), 100.0f});
  Combat c;
  c.attack = rng.NextFloat(1.0f, 4.0f);
  c.range = 6.0f;
  world.Set(e, c);
  world.Set(e, gamedb::Faction{static_cast<int32_t>(in.npcs.size() % 4)});
  in.npcs.push_back(e);
}

/// NPCs over the whole arena, one per cell of a square grid at a random
/// spot in its cell: random placement, but every client's interest disc
/// holds about the same number of NPCs whatever the seed.
void SpreadNpcs(Inputs& in, World& world, Rng& rng) {
  const size_t side = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(in.spec.npcs))));
  const float cell = in.spec.arena / static_cast<float>(side);
  for (size_t i = 0; i < in.spec.npcs; ++i) {
    const float x = static_cast<float>(i % side) * cell;
    const float z = static_cast<float>(i / side) * cell;
    const Vec3 at{x + rng.NextFloat(0.0f, cell), 0.0f,
                  z + rng.NextFloat(0.0f, cell)};
    MakeNpc(in, world, at, rng);
  }
}

void MakeAvatar(Inputs& in, World& world, const Vec3& at) {
  in.avatars.push_back(
      CreateAvatar(world, at, static_cast<int64_t>(in.avatars.size())));
}

// --- Shared mutation mixes --------------------------------------------------

/// Rewrites hp on ~`fraction` of NPCs and points ~`retarget` of them at
/// other NPCs: the combat pack's damage and regen paths stay busy.
void ChurnCombat(Shard& s, Rng& rng, double fraction, double retarget) {
  const std::vector<EntityId>& npcs = s.inputs().npcs;
  for (EntityId e : npcs) {
    if (!s.world().Alive(e)) continue;
    if (rng.NextBool(fraction)) s.SetHp(e, rng.NextFloat(5.0f, 100.0f));
    if (rng.NextBool(retarget)) {
      s.SetTarget(e, npcs[rng.NextBounded(npcs.size())]);
    }
  }
}

/// Light traffic through every layer on crowd and horde: one client
/// reconnects every 25 ticks and one loot drop lands every 10 ticks (and
/// expires 20 ticks later), so every per-layer time is measured on every
/// workload.
void Background(Shard& s, uint64_t t, Rng& rng, const Vec3& near) {
  s.AdvanceShortLived(t);
  if (t % 25 == 0) {
    const size_t slot = (t / 25) % s.clients();
    const Vec3 at = s.world().Get<Position>(s.avatar(slot))->value;
    s.Logout(slot);
    s.Login({{slot, at}});
  }
  if (t % 10 == 0) s.Spawn("loot", RandomInDisc(rng, near, 40.0f), {}, 20);
}

// --- crowd ------------------------------------------------------------------
// Everyone converges on a hotspot that jumps 120 units every 40 ticks;
// NPCs keep milling around their place in the crowd, so every interest view
// covers nearly the whole world and most rows change every tick.

constexpr uint64_t kCrowdPeriod = 40;
constexpr float kCrowdRadius = 60.0f;
constexpr float kCrowdJump = 120.0f;

void CrowdLayout(Inputs& in, World& world, Rng& rng) {
  const size_t periods =
      (in.spec.warmup_ticks + in.spec.timed_ticks) / kCrowdPeriod + 2;
  // Every jump has the same length, in a seeded direction (reversed when
  // it would leave the central area), so every seed pays the same transit.
  const float a = in.spec.arena;
  Vec3 hot = RandomPoint(rng, 0.3f * a, 0.7f * a);
  for (size_t k = 0; k < periods; ++k) {
    in.hotspots.push_back(hot);
    const Vec3 dir = rng.NextDirXZ();
    const float x = hot.x + kCrowdJump * dir.x;
    const float z = hot.z + kCrowdJump * dir.z;
    const bool inside =
        std::min(x, z) >= 0.15f * a && std::max(x, z) <= 0.85f * a;
    hot = inside ? Vec3{x, 0.0f, z}
                 : Vec3{hot.x - kCrowdJump * dir.x, 0.0f,
                        hot.z - kCrowdJump * dir.z};
  }
  for (size_t i = 0; i < in.spec.npcs; ++i) {
    in.offsets.push_back(RandomInDisc(rng, {}, kCrowdRadius));
    const Vec3& o = in.offsets.back();
    MakeNpc(in, world, {in.hotspots[0].x + o.x, 0.0f, in.hotspots[0].z + o.z},
            rng);
  }
  for (size_t i = 0; i < in.spec.clients; ++i) {
    MakeAvatar(in, world, RandomInDisc(rng, in.hotspots[0], 20.0f));
  }
}

void CrowdStep(Shard& s, uint64_t t) {
  const Inputs& in = s.inputs();
  const Vec3 hot = in.hotspots[std::min<size_t>((t - 1) / kCrowdPeriod,
                                                in.hotspots.size() - 1)];
  Rng rng = TickRng(in, t, 0);
  for (size_t i = 0; i < in.npcs.size(); ++i) {
    if (!s.world().Alive(in.npcs[i]) || !rng.NextBool(0.8)) continue;
    const Vec3 place{hot.x + in.offsets[i].x + rng.NextFloat(-4.0f, 4.0f),
                     0.0f,
                     hot.z + in.offsets[i].z + rng.NextFloat(-4.0f, 4.0f)};
    s.MoveToward(in.npcs[i], place, 25.0f);
  }
  for (size_t slot = 0; slot < s.clients(); ++slot) {
    s.MoveToward(s.avatar(slot), RandomInDisc(rng, hot, 20.0f), 20.0f);
  }
  ChurnCombat(s, rng, 0.03, 0.05);
  Background(s, t, rng, hot);
}

// --- horde ------------------------------------------------------------------
// NPCs spread over the whole arena wander; four clients sit in the corners,
// each seeing a small share of the world. The horde pack's within() probe
// per entity-tick puts the planner's KD-tree on the script path.

void HordeLayout(Inputs& in, World& world, Rng& rng) {
  const float a = in.spec.arena;
  SpreadNpcs(in, world, rng);
  for (size_t i = 0; i < in.spec.clients; ++i) {
    in.homes.push_back({(i % 2 == 0 ? 0.1f : 0.9f) * a, 0.0f,
                        ((i / 2) % 2 == 0 ? 0.1f : 0.9f) * a});
    MakeAvatar(in, world, in.homes.back());
  }
}

void HordeStep(Shard& s, uint64_t t) {
  const Inputs& in = s.inputs();
  Rng rng = TickRng(in, t, 0);
  for (EntityId e : in.npcs) {
    if (s.world().Alive(e) && rng.NextBool(0.25)) s.Jitter(e, 6.0f, rng);
  }
  for (size_t slot = 0; slot < s.clients(); ++slot) {
    s.MoveToward(s.avatar(slot), RandomInDisc(rng, in.homes[slot], 10.0f),
                 3.0f);
  }
  ChurnCombat(s, rng, 0.02, 0.03);
  Background(s, t, rng, in.homes[t % in.homes.size()]);
}

// --- churn ------------------------------------------------------------------
// Scripted NPCs beside waves of unscripted short-lived entities
// (projectiles near avatars, loot near NPCs) and login/logout storms;
// every connected avatar moves every tick.

// Every destroy costs every client a longer removal-log scan on every later
// tick (SyncServer never trims the log), so more projectiles per tick add
// replication work faster than core and content work.
constexpr size_t kProjectilesPerTick = 40;
constexpr uint64_t kProjectileLifetime = 5;
constexpr size_t kLootPerDrop = 20;

void ChurnLayout(Inputs& in, World& world, Rng& rng) {
  SpreadNpcs(in, world, rng);
  // Clients spread over a grid of homes, so interest discs seldom overlap
  // and every seed sees about the same traffic.
  const size_t side = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(in.spec.clients))));
  const float cell = in.spec.arena / static_cast<float>(side);
  for (size_t i = 0; i < in.spec.clients; ++i) {
    in.homes.push_back({(static_cast<float>(i % side) + 0.5f) * cell, 0.0f,
                        (static_cast<float>(i / side) + 0.5f) * cell});
    MakeAvatar(in, world, RandomInDisc(rng, in.homes.back(), 20.0f));
  }
}

void ChurnStep(Shard& s, uint64_t t) {
  const Inputs& in = s.inputs();
  Rng rng = TickRng(in, t, 0);
  s.AdvanceShortLived(t);
  for (EntityId e : in.npcs) {
    if (s.world().Alive(e) && rng.NextBool(0.15)) s.Jitter(e, 6.0f, rng);
  }
  ChurnCombat(s, rng, 0.03, 0.03);
  // One storm per 200 ticks: half the clients log out at once and log
  // back in together 10 ticks later. Storm ticks are 0.5% of all ticks,
  // fewer than the 1% tail tick_p99_ms reads.
  if (t % 200 == 100) {
    for (size_t slot = 0; slot < s.clients(); slot += 2) s.Logout(slot);
  }
  if (t % 200 == 110) {
    std::vector<std::pair<size_t, Vec3>> logins;
    for (size_t slot = 0; slot < s.clients(); ++slot) {
      if (!s.connected(slot)) {
        logins.emplace_back(slot, RandomInDisc(rng, in.homes[slot], 20.0f));
      }
    }
    s.Login(logins);
  }
  std::vector<Vec3> avatars;
  for (size_t slot = 0; slot < s.clients(); ++slot) {
    if (!s.connected(slot)) continue;
    s.MoveToward(s.avatar(slot), RandomInDisc(rng, in.homes[slot], 30.0f),
                 8.0f);
    avatars.push_back(s.world().Get<Position>(s.avatar(slot))->value);
  }
  // Waves: projectiles around the avatars every tick (they fly until they
  // expire), loot beside NPCs every 5 ticks.
  for (size_t k = 0; k < kProjectilesPerTick; ++k) {
    const Vec3& from = avatars[k % avatars.size()];
    const Vec3 dir = rng.NextDirXZ();
    s.Spawn("projectile", RandomInDisc(rng, from, 20.0f),
            {dir.x * 6.0f, 0.0f, dir.z * 6.0f}, kProjectileLifetime);
  }
  if (t % 5 == 0) {
    for (size_t k = 0; k < kLootPerDrop; ++k) {
      EntityId e = in.npcs[rng.NextBounded(in.npcs.size())];
      const Position* p = s.world().Get<Position>(e);
      if (p != nullptr) {
        s.Spawn("loot", RandomInDisc(rng, p->value, 5.0f), {}, 25);
      }
    }
  }
}

const WorkloadSpec kWorkloads[] = {
    {"crowd", 600, 10, 1000.0f, 80.0f, 20, 1000, false, CrowdLayout,
     CrowdStep},
    {"horde", 1200, 4, 700.0f, 150.0f, 10, 1000, true, HordeLayout,
     HordeStep},
    {"churn", 400, 10, 700.0f, 80.0f, 20, 1000, false, ChurnLayout,
     ChurnStep},
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Status Generate(const WorkloadSpec& spec, uint64_t seed,
                const std::string& pack_source, const std::string& pack_origin,
                content::PrefabLibrary prefabs, Inputs* in) {
  in->spec = spec;
  in->seed = seed;
  in->pack_source = pack_source;
  in->pack_origin = pack_origin;
  in->prefabs = std::move(prefabs);
  Rng rng(seed);
  World world;
  spec.layout(*in, world, rng);
  for (EntityId e : in->npcs) {
    world.Patch<Combat>(e, [&](Combat& c) {
      c.target = in->npcs[rng.NextBounded(in->npcs.size())];
    });
  }

  // The stored shard: a checkpoint at tick 100, then a WAL tail of moves
  // over ticks 101..110 that recovery must replay.
  world.SetTick(100);
  persist::PersistenceOptions popts;
  popts.mode = persist::DurabilityMode::kWalAndCheckpoint;
  persist::PersistenceManager writer(
      &in->stored, std::make_unique<persist::PeriodicPolicy>(1000), popts);
  GAMEDB_RETURN_NOT_OK(writer.ForceCheckpoint(world));
  for (uint64_t tick = 101; tick <= 110; ++tick) {
    world.SetTick(tick);
    for (EntityId e : in->npcs) {
      if (!rng.NextBool(0.05)) continue;
      gamedb::txn::GameTxn move;
      move.type = gamedb::txn::TxnType::kMove;
      move.a = e;
      const Vec3 p = world.Get<Position>(e)->value;
      move.dest = {std::clamp(p.x + rng.NextFloat(-5.0f, 5.0f), 0.0f,
                              spec.arena),
                   0.0f,
                   std::clamp(p.z + rng.NextFloat(-5.0f, 5.0f), 0.0f,
                              spec.arena)};
      GAMEDB_RETURN_NOT_OK(writer.OnTxn(move, tick));
      gamedb::txn::ApplyTxn(&world, move);
    }
  }
  in->start_tick = world.tick();
  in->stored_hash = HashWorld(world);
  return Status::OK();
}

}  // namespace shardbench
