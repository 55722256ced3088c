#include "replication/sync.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <string>

#include "common/coding.h"
#include "common/rng.h"
#include "replication/divergence.h"
#include "views/maintainer.h"

namespace gamedb::replication {
namespace {

class SyncTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterStandardComponents();
    for (int i = 0; i < 20; ++i) {
      EntityId e = server.Create();
      ids.push_back(e);
      server.Set(e, Position{{float(i) * 10, 0, 0}});
      server.Set(e, Health{100, 100});
    }
  }

  void MutateSome() {
    server.AdvanceTick();
    server.Patch<Position>(ids[0], [](Position& p) { p.value.x += 1; });
    server.Patch<Health>(ids[1], [](Health& h) { h.hp -= 5; });
  }

  World server;
  std::vector<EntityId> ids;
};

/// Bytes a delta sync puts on the wire for `e`'s T row: the 8-byte entity
/// id and the length-prefixed component encoding.
template <typename T>
uint64_t RowBytes(const World& world, EntityId e) {
  const TypeInfo* info = TypeRegistry::Global().Find(TypeRegistry::IdOf<T>());
  std::string payload;
  info->EncodeComponent(world.Get<T>(e), &payload);
  std::string row;
  PutFixed64(&row, e.Raw());
  PutLengthPrefixed(&row, payload);
  return row.size();
}

TEST_F(SyncTest, FullSnapshotReplicatesEverything) {
  SyncServer sync(&server, SyncOptions{SyncStrategy::kFullSnapshot});
  sync.AddClient(ids[0]);
  std::vector<SyncStats> stats;
  ASSERT_TRUE(sync.SyncAll(&stats).ok());
  auto report = MeasureDivergence(server, sync.client(0).world());
  EXPECT_EQ(report.missing_on_client, 0u);
  EXPECT_DOUBLE_EQ(report.position_rmse, 0.0);
  EXPECT_GT(stats[0].bytes_sent, 0u);
}

TEST_F(SyncTest, DeltaConvergesAndSecondSyncIsCheap) {
  SyncServer sync(&server, SyncOptions{SyncStrategy::kDelta});
  sync.AddClient(ids[0]);
  std::vector<SyncStats> stats;
  ASSERT_TRUE(sync.SyncAll(&stats).ok());
  uint64_t first_bytes = stats[0].bytes_sent;

  // Nothing changed: the next delta should be (near) empty.
  ASSERT_TRUE(sync.SyncAll(&stats).ok());
  EXPECT_EQ(stats[0].bytes_sent, 0u);

  // One position + one hp change: tiny delta.
  MutateSome();
  ASSERT_TRUE(sync.SyncAll(&stats).ok());
  EXPECT_GT(stats[0].bytes_sent, 0u);
  EXPECT_LT(stats[0].bytes_sent, first_bytes / 4);
  EXPECT_EQ(stats[0].rows_sent, 2u);

  auto report = MeasureDivergence(server, sync.client(0).world());
  EXPECT_DOUBLE_EQ(report.position_rmse, 0.0);
  EXPECT_DOUBLE_EQ(report.hp_mean_abs_error, 0.0);
}

TEST_F(SyncTest, DeltaPropagatesRemovals) {
  SyncServer sync(&server, SyncOptions{SyncStrategy::kDelta});
  sync.AddClient(ids[0]);
  std::vector<SyncStats> stats;
  ASSERT_TRUE(sync.SyncAll(&stats).ok());
  ASSERT_TRUE(sync.client(0).world().Has<Health>(ids[5]));

  server.Remove<Health>(ids[5]);
  ASSERT_TRUE(sync.SyncAll(&stats).ok());
  EXPECT_FALSE(sync.client(0).world().Has<Health>(ids[5]));
  EXPECT_GE(stats[0].removals_sent, 1u);
}

TEST_F(SyncTest, InterestOnlyReplicatesNearbyEntities) {
  SyncOptions opts;
  opts.strategy = SyncStrategy::kInterest;
  opts.interest_radius = 25.0f;  // positions are x = 0,10,...,190
  SyncServer sync(&server, opts);
  sync.AddClient(ids[0]);  // avatar at x=0
  std::vector<SyncStats> stats;
  ASSERT_TRUE(sync.SyncAll(&stats).ok());

  World& replica = sync.client(0).world();
  EXPECT_TRUE(replica.Has<Position>(ids[0]));
  EXPECT_TRUE(replica.Has<Position>(ids[2]));   // x=20, inside
  EXPECT_FALSE(replica.Has<Position>(ids[5]));  // x=50, outside
  auto report = MeasureDivergence(server, replica);
  EXPECT_GT(report.missing_on_client, 0u);
}

TEST_F(SyncTest, InterestHandlesEnterAndLeave) {
  SyncOptions opts;
  opts.strategy = SyncStrategy::kInterest;
  opts.interest_radius = 25.0f;
  SyncServer sync(&server, opts);
  sync.AddClient(ids[0]);
  std::vector<SyncStats> stats;
  ASSERT_TRUE(sync.SyncAll(&stats).ok());
  World& replica = sync.client(0).world();
  ASSERT_FALSE(replica.Has<Position>(ids[5]));

  // ids[5] walks into interest range.
  server.AdvanceTick();
  server.Patch<Position>(ids[5], [](Position& p) { p.value.x = 15; });
  ASSERT_TRUE(sync.SyncAll(&stats).ok());
  EXPECT_TRUE(replica.Has<Position>(ids[5]));
  EXPECT_TRUE(replica.Has<Health>(ids[5]));  // full row on enter

  // ...and walks back out.
  server.AdvanceTick();
  server.Patch<Position>(ids[5], [](Position& p) { p.value.x = 120; });
  ASSERT_TRUE(sync.SyncAll(&stats).ok());
  EXPECT_FALSE(replica.Has<Position>(ids[5]));
  EXPECT_FALSE(replica.Has<Health>(ids[5]));
}

TEST_F(SyncTest, EventualSkipsRoundsAndDiverges) {
  SyncOptions opts;
  opts.strategy = SyncStrategy::kEventual;
  opts.period_ticks = 5;
  SyncServer sync(&server, opts);
  sync.AddClient(ids[0]);
  std::vector<SyncStats> stats;
  ASSERT_TRUE(sync.SyncAll(&stats).ok());  // initial sync

  // Ticks 1..3: mutations without sync traffic.
  uint64_t bytes_between = 0;
  for (int i = 0; i < 3; ++i) {
    MutateSome();
    ASSERT_TRUE(sync.SyncAll(&stats).ok());
    bytes_between += stats[0].bytes_sent;
  }
  EXPECT_EQ(bytes_between, 0u);  // inside the period: silence
  auto drift = MeasureDivergence(server, sync.client(0).world());
  EXPECT_GT(drift.position_rmse, 0.0);  // visibly stale

  // Cross the period boundary: one sync collapses divergence to zero. The
  // two rows written in all five rounds are each sent once.
  MutateSome();
  MutateSome();
  ASSERT_TRUE(sync.SyncAll(&stats).ok());
  EXPECT_EQ(stats[0].rows_sent, 2u);
  EXPECT_EQ(stats[0].bytes_sent, RowBytes<Position>(server, ids[0]) +
                                     RowBytes<Health>(server, ids[1]));
  auto after = MeasureDivergence(server, sync.client(0).world());
  EXPECT_DOUBLE_EQ(after.position_rmse, 0.0);
}

// The kInterest oracle, computed from the server alone: the replica's live
// entities are exactly the avatar plus every server-alive entity whose
// Position is within `radius` of the avatar's (d² <= r², so a NaN
// coordinate is inside no radius), and each of them carries exactly the
// server's Position and Health rows.
void ExpectReplicaHoldsTheInterestSet(const World& server,
                                      const World& replica, EntityId avatar,
                                      float radius) {
  const Vec3 center = server.Get<Position>(avatar)->value;
  std::set<uint64_t> expected = {avatar.Raw()};
  server.ForEachEntity([&](EntityId e) {
    const Position* p = server.Get<Position>(e);
    if (p != nullptr && p->value.DistanceSquaredTo(center) <= radius * radius) {
      expected.insert(e.Raw());
    }
  });
  std::set<uint64_t> held;
  replica.ForEachEntity([&](EntityId e) {
    held.insert(e.Raw());
    ASSERT_TRUE(server.Alive(e)) << "replica holds a dead entity";
    ASSERT_EQ(replica.Has<Position>(e), server.Has<Position>(e));
    ASSERT_EQ(replica.Has<Health>(e), server.Has<Health>(e));
    if (const Position* p = server.Get<Position>(e)) {
      EXPECT_EQ(replica.Get<Position>(e)->value, p->value);
    }
    if (const Health* h = server.Get<Health>(e)) {
      EXPECT_EQ(replica.Get<Health>(e)->hp, h->hp);
      EXPECT_EQ(replica.Get<Health>(e)->max_hp, h->max_hp);
    }
  });
  EXPECT_EQ(held, expected);
}

// kInterest against the oracle while everyone wanders, the avatar included,
// and hp changes. Each tick an NPC dies, a random one inside the radius
// when there is one, and a new entity takes its slot inside the radius, so
// the replica evicts stale generations of reused slots.
TEST_F(SyncTest, InterestMatchesTheOracleAsEveryoneWanders) {
  Rng rng(99);
  SyncOptions opts;
  opts.strategy = SyncStrategy::kInterest;
  opts.interest_radius = 25.0f;
  SyncServer sync(&server, opts);
  sync.AddClient(ids[0]);

  std::vector<SyncStats> stats;
  size_t reused_inside = 0;
  for (int tick = 0; tick < 12; ++tick) {
    SCOPED_TRACE("tick " + std::to_string(tick));
    server.AdvanceTick();
    for (EntityId e : ids) {
      server.Patch<Position>(e, [&](Position& p) {
        p.value.x += rng.NextFloat(-12, 12);
        p.value.z += rng.NextFloat(-12, 12);
      });
      if (rng.NextBool(0.3)) {
        server.Patch<Health>(e, [&](Health& h) {
          h.hp = rng.NextFloat(0, 100);
        });
      }
    }
    const Vec3 avatar = server.Get<Position>(ids[0])->value;
    std::vector<size_t> inside;
    for (size_t i = 1; i < ids.size(); ++i) {
      if (server.Get<Position>(ids[i])->value.DistanceTo(avatar) <= 25.0f) {
        inside.push_back(i);
      }
    }
    size_t victim = inside.empty() ? 1 + rng.NextBounded(ids.size() - 1)
                                   : inside[rng.NextBounded(inside.size())];
    server.Destroy(ids[victim]);
    EntityId successor = server.Create();
    ASSERT_EQ(successor.index, ids[victim].index);  // the slot is reused
    server.Set(successor, Position{{avatar.x + 5, 0, avatar.z}});
    server.Set(successor, Health{rng.NextFloat(0, 100), 100});
    ids[victim] = successor;
    reused_inside += inside.empty() ? 0 : 1;
    ASSERT_TRUE(sync.SyncAll(&stats).ok());
    ExpectReplicaHoldsTheInterestSet(server, sync.client(0).world(), ids[0],
                                     opts.interest_radius);
  }
  EXPECT_GT(reused_inside, 0u);  // slots were reused inside the radius
}

// kInterest against the oracle around a still avatar at x=0: NPCs cross
// the radius both ways, one NPC stands exactly on it (x=25, inside under
// d² <= r²), and an NPC inside the radius gets a NaN z.
TEST_F(SyncTest, InterestMatchesTheOracleAroundAStillAvatar) {
  Rng rng(7);
  SyncOptions opts;
  opts.strategy = SyncStrategy::kInterest;
  opts.interest_radius = 25.0f;
  SyncServer sync(&server, opts);
  sync.AddClient(ids[0]);
  EntityId edge = server.Create();
  server.Set(edge, Position{{25, 0, 0}});
  server.Set(edge, Health{100, 100});

  std::vector<SyncStats> stats;
  size_t crossings = 0;
  EntityId nan_npc;  // an NPC inside the radius whose z becomes NaN
  for (int tick = 0; tick < 16; ++tick) {
    SCOPED_TRACE("tick " + std::to_string(tick));
    server.AdvanceTick();
    for (size_t i = 1; i < ids.size(); ++i) {
      server.Patch<Position>(ids[i], [&](Position& p) {
        const bool inside = p.value.x <= 25.0f;
        p.value.x = std::max(0.0f, p.value.x + rng.NextFloat(-15, 15));
        crossings += inside != (p.value.x <= 25.0f) ? 1 : 0;
      });
    }
    if (tick == 8) {
      for (size_t i = 1; i < ids.size() && !nan_npc.valid(); ++i) {
        if (sync.client(0).world().Has<Position>(ids[i])) nan_npc = ids[i];
      }
      ASSERT_TRUE(nan_npc.valid());
      server.Patch<Position>(nan_npc, [](Position& p) {
        p.value.z = std::numeric_limits<float>::quiet_NaN();
      });
    }
    ASSERT_TRUE(sync.SyncAll(&stats).ok());
    const World& replica = sync.client(0).world();
    ExpectReplicaHoldsTheInterestSet(server, replica, ids[0],
                                     opts.interest_radius);
    EXPECT_TRUE(replica.Has<Position>(edge));
    if (nan_npc.valid()) {
      EXPECT_FALSE(replica.Alive(nan_npc));  // a NaN is inside no radius
    }
  }
  EXPECT_GT(crossings, 0u);  // the radius was actually crossed
}

// A component removed and re-added between two syncs is a net update:
// every delta strategy sends the new row and must not then erase it with
// the removal, at that sync or any later one.
TEST_F(SyncTest, RemoveThenReAddBetweenSyncsKeepsTheRow) {
  std::vector<std::unique_ptr<SyncServer>> syncs;
  for (SyncStrategy strategy : {SyncStrategy::kDelta, SyncStrategy::kInterest,
                                SyncStrategy::kEventual}) {
    SyncOptions opts;
    opts.strategy = strategy;
    opts.interest_radius = 1000.0f;  // the whole world is in interest
    opts.period_ticks = 1;
    syncs.push_back(std::make_unique<SyncServer>(&server, opts));
    syncs.back()->AddClient(ids[0]);
  }
  std::vector<SyncStats> stats;
  auto sync_all = [&] {
    server.AdvanceTick();
    for (auto& sync : syncs) ASSERT_TRUE(sync->SyncAll(&stats).ok());
  };
  sync_all();
  server.Remove<Health>(ids[5]);
  server.Set(ids[5], Health{42, 100});
  sync_all();
  sync_all();

  for (size_t i = 0; i < syncs.size(); ++i) {
    const World& replica = syncs[i]->client(0).world();
    ASSERT_TRUE(replica.Has<Health>(ids[5])) << "strategy " << i;
    EXPECT_EQ(replica.Get<Health>(ids[5])->hp, 42.0f) << "strategy " << i;
    auto report = MeasureDivergence(server, replica);
    EXPECT_EQ(report.missing_on_client, 0u) << "strategy " << i;
    EXPECT_DOUBLE_EQ(report.position_rmse, 0.0) << "strategy " << i;
    EXPECT_DOUBLE_EQ(report.hp_mean_abs_error, 0.0) << "strategy " << i;
  }
}

// Spawns and destroys under a view catalog that reads Position and three
// clients, one of which logs out and back in: every server change log is
// empty after each sync (each reader has read it all), and a client that
// logs in is sent no removal from before it joined.
TEST_F(SyncTest, ChangeLogsStayEmptyAcrossSyncsAndRelogins) {
  views::ViewCatalog catalog(&server);
  views::ViewDef near;  // a Position reader beside the sync's cursors
  near.name = "near_origin";
  near.has_near = true;
  near.near = {"Position", "value", {0, 0, 0}, 60.0f};
  ASSERT_TRUE(catalog.Register(near).ok());
  SyncOptions opts;
  opts.strategy = SyncStrategy::kInterest;
  opts.interest_radius = 60.0f;
  SyncServer sync(&server, opts);
  sync.AddClient(ids[0]);
  sync.AddClient(ids[10]);
  size_t roamer = sync.AddClient(ids[19]);

  Rng rng(5);
  std::vector<EntityId> spawned;
  std::vector<SyncStats> stats;
  uint64_t removals = 0;
  for (int tick = 0; tick < 40; ++tick) {
    server.AdvanceTick();
    for (int i = 0; i < 3; ++i) {
      EntityId e = server.Create();
      server.Set(e, Position{{rng.NextFloat(0, 190), 0, 0}});
      server.Set(e, Health{50, 100});
      spawned.push_back(e);
    }
    while (spawned.size() > 10) {
      size_t k = rng.NextBounded(spawned.size());
      server.Destroy(spawned[k]);
      spawned[k] = spawned.back();
      spawned.pop_back();
    }
    if (tick % 10 == 4) sync.RemoveClient(roamer);
    const bool relogin = tick % 10 == 5;
    if (relogin) roamer = sync.AddClient(ids[19]);

    catalog.Maintain();
    ASSERT_TRUE(sync.SyncAll(&stats).ok());
    for (const SyncStats& s : stats) removals += s.removals_sent;
    if (relogin) {
      EXPECT_EQ(stats[roamer].removals_sent, 0u) << "tick " << tick;
    }
    server.ForEachStore([&](const TypeInfo& info, ComponentStore& store) {
      EXPECT_EQ(store.changes().size(), 0u)
          << info.name() << " tick " << tick;
    });
  }
  EXPECT_GT(removals, 0u);  // destroys did reach the clients
  EXPECT_EQ(sync.connected_count(), 3u);
}

// A removal is sent only for a row the replica holds. Under kInterest an
// entity destroyed outside interest was never replicated;
// under kDelta and kEventual a component added and removed between two
// syncs never reached the replica. Neither sends a removal, and every
// replica still matches the server where it holds rows.
TEST_F(SyncTest, RemovalsOnlyForRowsTheReplicaHolds) {
  const std::vector<SyncStrategy> strategies = {
      SyncStrategy::kDelta, SyncStrategy::kEventual, SyncStrategy::kInterest};
  std::vector<std::unique_ptr<SyncServer>> syncs;
  for (SyncStrategy strategy : strategies) {
    SyncOptions opts;
    opts.strategy = strategy;
    opts.interest_radius = 25.0f;  // ids[0..2] around the avatar at x=0
    opts.period_ticks = 1;
    syncs.push_back(std::make_unique<SyncServer>(&server, opts));
    syncs.back()->AddClient(ids[0]);
  }
  std::vector<std::vector<SyncStats>> stats(syncs.size());
  auto sync_all = [&] {
    server.AdvanceTick();
    for (size_t i = 0; i < syncs.size(); ++i) {
      ASSERT_TRUE(syncs[i]->SyncAll(&stats[i]).ok());
    }
  };
  sync_all();

  server.Destroy(ids[10]);  // x=100: outside interest
  EntityId flicker = server.Create();
  server.Set(flicker, Health{1, 100});  // added and removed between syncs
  server.Remove<Health>(flicker);
  sync_all();

  for (size_t i = 0; i < syncs.size(); ++i) {
    const bool interest = strategies[i] == SyncStrategy::kInterest;
    // kDelta / kEventual held ids[10]'s Position and Health rows.
    EXPECT_EQ(stats[i][0].removals_sent, interest ? 0u : 2u)
        << SyncStrategyName(strategies[i]);
    const World& replica = syncs[i]->client(0).world();
    EXPECT_FALSE(replica.Has<Position>(ids[10]));
    auto report = MeasureDivergence(server, replica);
    EXPECT_EQ(report.missing_on_client, interest ? 16u : 0u)
        << SyncStrategyName(strategies[i]);
    EXPECT_DOUBLE_EQ(report.position_rmse, 0.0);
    EXPECT_DOUBLE_EQ(report.hp_mean_abs_error, 0.0);
  }
}

TEST_F(SyncTest, MultipleClientsTrackIndependently) {
  SyncOptions opts;
  opts.strategy = SyncStrategy::kInterest;
  opts.interest_radius = 15.0f;
  SyncServer sync(&server, opts);
  sync.AddClient(ids[0]);   // near x=0
  sync.AddClient(ids[19]);  // near x=190
  std::vector<SyncStats> stats;
  ASSERT_TRUE(sync.SyncAll(&stats).ok());
  EXPECT_TRUE(sync.client(0).world().Has<Position>(ids[1]));
  EXPECT_FALSE(sync.client(0).world().Has<Position>(ids[18]));
  EXPECT_TRUE(sync.client(1).world().Has<Position>(ids[18]));
  EXPECT_FALSE(sync.client(1).world().Has<Position>(ids[1]));
}

// The send rule, pinned for every delta strategy: a row is sent when the
// change log names it as written since the client's last sync, or when
// the replica lacks it, and once however many records name it.
class SyncSendRuleTest : public SyncTest {
 protected:
  static constexpr SyncStrategy kStrategies[] = {
      SyncStrategy::kDelta, SyncStrategy::kEventual, SyncStrategy::kInterest};

  /// One single-client server per strategy, each synced once: kEventual
  /// is due every tick, and kInterest's radius covers every entity.
  void SetUp() override {
    SyncTest::SetUp();
    for (SyncStrategy strategy : kStrategies) {
      SyncOptions opts;
      opts.strategy = strategy;
      opts.interest_radius = 1000.0f;
      opts.period_ticks = 1;
      syncs.push_back(std::make_unique<SyncServer>(&server, opts));
      syncs.back()->AddClient(ids[0]);
    }
    stats.resize(syncs.size());
    SyncEach();
  }

  /// Advances the server tick and syncs every strategy's server once.
  void SyncEach() {
    server.AdvanceTick();
    for (size_t i = 0; i < syncs.size(); ++i) {
      ASSERT_TRUE(syncs[i]->SyncAll(&stats[i]).ok());
    }
  }

  const SyncStats& Sent(size_t i) const { return stats[i][0]; }
  const World& Replica(size_t i) { return syncs[i]->client(0).world(); }
  static const char* Name(size_t i) { return SyncStrategyName(kStrategies[i]); }

  std::vector<std::unique_ptr<SyncServer>> syncs;
  std::vector<std::vector<SyncStats>> stats;
};

TEST_F(SyncSendRuleTest, RowWrittenSeveralTimesIsSentOnce) {
  server.Patch<Health>(ids[3], [](Health& h) { h.hp -= 1; });
  server.Patch<Health>(ids[3], [](Health& h) { h.hp -= 1; });
  server.Set(ids[3], Health{7, 100});
  server.Patch<Position>(ids[4], [](Position& p) { p.value.y = 2; });
  SyncEach();
  const uint64_t bytes =
      RowBytes<Health>(server, ids[3]) + RowBytes<Position>(server, ids[4]);
  for (size_t i = 0; i < syncs.size(); ++i) {
    EXPECT_EQ(Sent(i).rows_sent, 2u) << Name(i);
    EXPECT_EQ(Sent(i).removals_sent, 0u) << Name(i);
    EXPECT_EQ(Sent(i).bytes_sent, bytes) << Name(i);
    EXPECT_EQ(Replica(i).Get<Health>(ids[3])->hp, 7.0f) << Name(i);
  }

  SyncEach();  // nothing written since
  for (size_t i = 0; i < syncs.size(); ++i) {
    EXPECT_EQ(Sent(i).bytes_sent, 0u) << Name(i);
  }
}

TEST_F(SyncSendRuleTest, UntrackedWriteIsSentOnlyAfterTouch) {
  server.GetMutableUntracked<Health>(ids[3])->hp = 9;
  SyncEach();
  for (size_t i = 0; i < syncs.size(); ++i) {
    EXPECT_EQ(Sent(i).bytes_sent, 0u) << Name(i);
    EXPECT_EQ(Replica(i).Get<Health>(ids[3])->hp, 100.0f) << Name(i);
  }

  server.Table<Health>().Touch(ids[3]);
  SyncEach();
  for (size_t i = 0; i < syncs.size(); ++i) {
    EXPECT_EQ(Sent(i).rows_sent, 1u) << Name(i);
    EXPECT_EQ(Sent(i).bytes_sent, RowBytes<Health>(server, ids[3]))
        << Name(i);
    EXPECT_EQ(Replica(i).Get<Health>(ids[3])->hp, 9.0f) << Name(i);
  }

  SyncEach();
  for (size_t i = 0; i < syncs.size(); ++i) {
    EXPECT_EQ(Sent(i).bytes_sent, 0u) << Name(i);
  }
}

// A slot reused between two syncs: the server destroys ids[5], which the
// replica holds with Position and Health, and a new entity takes its slot
// with a Position only. The row walk evicts the stale generation from the
// replica, so the sync sends the new row and no removal. Reading a table's
// removals before its rows would send ids[5]'s Position removal as well.
TEST_F(SyncSendRuleTest, ReusedSlotSendsTheNewRowAndNoRemoval) {
  server.Destroy(ids[5]);
  EntityId reused = server.Create();
  ASSERT_EQ(reused.index, ids[5].index);
  server.Set(reused, Position{{55, 0, 0}});
  SyncEach();
  for (size_t i = 0; i < syncs.size(); ++i) {
    EXPECT_EQ(Sent(i).rows_sent, 1u) << Name(i);
    EXPECT_EQ(Sent(i).removals_sent, 0u) << Name(i);
    EXPECT_EQ(Sent(i).bytes_sent, RowBytes<Position>(server, reused))
        << Name(i);
    EXPECT_FALSE(Replica(i).Alive(ids[5])) << Name(i);
    EXPECT_TRUE(Replica(i).Has<Position>(reused)) << Name(i);
    EXPECT_FALSE(Replica(i).Has<Health>(reused)) << Name(i);
  }
}

}  // namespace
}  // namespace gamedb::replication
