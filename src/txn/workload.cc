#include "txn/workload.h"

#include <algorithm>

#include "core/query.h"

namespace gamedb::txn {

MmoWorkload::MmoWorkload(const WorkloadOptions& options)
    : options_(options),
      rng_(options.seed),
      zipf_(std::max<uint64_t>(options.num_entities, 1),
            options.hotspot_alpha) {
  RegisterStandardComponents();
  const float extent = options_.area_extent;
  // The hotspot "town" occupies a small square in one corner.
  const float town = std::max(extent * 0.05f, options_.interaction_radius);
  for (uint32_t i = 0; i < options_.num_entities; ++i) {
    EntityId e = world_.Create();
    entities_.push_back(e);

    Vec3 pos;
    bool clustered = rng_.NextDouble() < options_.clustered_fraction;
    if (clustered) {
      pos = {rng_.NextFloat(0, town), 0, rng_.NextFloat(0, town)};
    } else {
      pos = {rng_.NextFloat(0, extent), 0, rng_.NextFloat(0, extent)};
    }
    world_.Set(e, Position{pos});

    Velocity vel;
    vel.value = rng_.NextDirXZ() * rng_.NextFloat(0, options_.max_speed);
    vel.max_accel = rng_.NextFloat(0, options_.max_accel);
    world_.Set(e, vel);

    world_.Set(e, Health{100.0f, 100.0f});
    Combat combat;
    combat.attack = rng_.NextFloat(5.0f, 15.0f);
    combat.defense = rng_.NextFloat(0.0f, 5.0f);
    combat.range = options_.interaction_radius;
    world_.Set(e, combat);

    Actor actor;
    actor.account_id = i;
    actor.gold = 1000;
    actor.is_player = (i % 4 != 0);  // 3:1 players to NPCs
    world_.Set(e, actor);
    world_.Set(e, Faction{static_cast<int32_t>(i % 2)});
  }
}

EntityId MmoWorkload::PickEntity(Rng* rng) {
  // Zipf rank 0 = hottest. Entities are already shuffled by construction
  // order, so rank order is fine as identity.
  uint64_t idx = options_.hotspot_alpha > 0.0
                     ? zipf_.Next(*rng)
                     : rng->NextBounded(entities_.size());
  return entities_[idx];
}

std::vector<EntityId> MmoWorkload::NeighborsOf(EntityId e,
                                               float radius) const {
  std::vector<EntityId> out;
  const Position* p = world_.Get<Position>(e);
  if (p == nullptr) return out;
  float r2 = radius * radius;
  const auto* table = world_.TableIfExists<Position>();
  table->ForEach([&](EntityId other, const Position& op) {
    if (other == e) return;
    if (op.value.DistanceSquaredTo(p->value) <= r2) out.push_back(other);
  });
  return out;
}

std::vector<GameTxn> MmoWorkload::NextBatch() {
  std::vector<GameTxn> batch;
  auto count = static_cast<size_t>(options_.txns_per_entity *
                                   static_cast<float>(entities_.size()));
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    EntityId a = PickEntity(&rng_);
    double roll = rng_.NextDouble();
    GameTxn t;
    t.a = a;
    t.work_units = options_.txn_work_units;
    if (roll < options_.attack_fraction) {
      auto neighbors = NeighborsOf(a, options_.interaction_radius);
      if (!neighbors.empty()) {
        t.type = TxnType::kAttack;
        t.b = neighbors[rng_.NextBounded(neighbors.size())];
        batch.push_back(std::move(t));
        continue;
      }
      // No one in range: fall through to a move toward someone.
    } else if (roll < options_.attack_fraction + options_.trade_fraction) {
      auto neighbors = NeighborsOf(a, options_.interaction_radius);
      if (!neighbors.empty()) {
        t.type = TxnType::kTrade;
        t.b = neighbors[rng_.NextBounded(neighbors.size())];
        t.amount = static_cast<float>(rng_.NextInt(1, 50));
        batch.push_back(std::move(t));
        continue;
      }
    }
    t.type = TxnType::kMove;
    const Position* p = world_.Get<Position>(a);
    Vec3 step = rng_.NextDirXZ() * rng_.NextFloat(0, options_.max_speed);
    t.dest = (p ? p->value : Vec3{}) + step;
    t.dest.x = std::clamp(t.dest.x, 0.0f, options_.area_extent);
    t.dest.z = std::clamp(t.dest.z, 0.0f, options_.area_extent);
    batch.push_back(std::move(t));
  }
  return batch;
}

void MmoWorkload::AdvancePositions(float dt) {
  // Patch (not in-place View mutation) so the movement reaches the change
  // log that delta replication, views and aggregates read.
  for (EntityId e : entities_) {
    const Velocity* v = world_.Get<Velocity>(e);
    if (v == nullptr) continue;
    Vec3 step = v->value * dt;
    bool bounce_x = false, bounce_z = false;
    world_.Patch<Position>(e, [&](Position& p) {
      p.value += step;
      if (p.value.x < 0 || p.value.x > options_.area_extent) {
        bounce_x = true;
        p.value.x = std::clamp(p.value.x, 0.0f, options_.area_extent);
      }
      if (p.value.z < 0 || p.value.z > options_.area_extent) {
        bounce_z = true;
        p.value.z = std::clamp(p.value.z, 0.0f, options_.area_extent);
      }
    });
    if (bounce_x || bounce_z) {
      world_.Patch<Velocity>(e, [&](Velocity& vel) {
        if (bounce_x) vel.value.x = -vel.value.x;
        if (bounce_z) vel.value.z = -vel.value.z;
      });
    }
  }
}

int64_t MmoWorkload::TotalGold() const {
  int64_t total = 0;
  const auto* table = world_.TableIfExists<Actor>();
  if (table != nullptr) {
    table->ForEach([&](EntityId, const Actor& a) { total += a.gold; });
  }
  return total;
}

double MmoWorkload::TotalHp() const {
  double total = 0;
  const auto* table = world_.TableIfExists<Health>();
  if (table != nullptr) {
    table->ForEach([&](EntityId, const Health& h) { total += h.hp; });
  }
  return total;
}

}  // namespace gamedb::txn
