#include "replication/sync.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>

#include "common/rng.h"
#include "planner/planner.h"
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

  // Cross the period boundary: one sync collapses divergence to zero.
  MutateSome();
  MutateSome();
  ASSERT_TRUE(sync.SyncAll(&stats).ok());
  EXPECT_GT(stats[0].bytes_sent, 0u);
  auto after = MeasureDivergence(server, sync.client(0).world());
  EXPECT_DOUBLE_EQ(after.position_rmse, 0.0);
}

// kInterestView must replicate exactly what kInterest replicates — the
// LiveView-backed interest set only changes *how* the set is computed
// (incremental deltas + recenter instead of a per-row radius test). Each
// tick an NPC dies and a new entity takes its slot inside the radius, so
// replicas evict stale generations of reused slots.
TEST_F(SyncTest, InterestViewReplicatesExactlyLikeInterest) {
  Rng rng(99);
  SyncOptions scan_opts;
  scan_opts.strategy = SyncStrategy::kInterest;
  scan_opts.interest_radius = 25.0f;
  SyncServer scan_sync(&server, scan_opts);
  scan_sync.AddClient(ids[0]);

  planner::QueryPlanner planner(&server);
  views::ViewCatalog catalog(&server, &planner);
  SyncOptions view_opts = scan_opts;
  view_opts.strategy = SyncStrategy::kInterestView;
  view_opts.view_catalog = &catalog;
  SyncServer view_sync(&server, view_opts);
  view_sync.AddClient(ids[0]);

  std::vector<SyncStats> scan_stats, view_stats;
  size_t reused_inside = 0;
  for (int tick = 0; tick < 12; ++tick) {
    server.AdvanceTick();
    // Wander everyone, including the avatar (exercises Recenter), so
    // entities churn in and out of the interest bubble.
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
    // One NPC dies, a random one inside the radius when there is one, and
    // a new entity takes its slot inside the radius.
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
    ASSERT_TRUE(scan_sync.SyncAll(&scan_stats).ok());
    catalog.Maintain();  // the tick loop's pre-sync round
    ASSERT_TRUE(view_sync.SyncAll(&view_stats).ok());

    // Same replicated rows, same values, same traffic, tick for tick.
    EXPECT_EQ(scan_stats[0].rows_sent, view_stats[0].rows_sent)
        << "tick " << tick;
    EXPECT_EQ(scan_stats[0].removals_sent, view_stats[0].removals_sent)
        << "tick " << tick;
    const World& a = scan_sync.client(0).world();
    const World& b = view_sync.client(0).world();
    for (EntityId e : ids) {
      ASSERT_EQ(a.Has<Position>(e), b.Has<Position>(e)) << "tick " << tick;
      ASSERT_EQ(a.Has<Health>(e), b.Has<Health>(e)) << "tick " << tick;
      if (a.Has<Position>(e)) {
        EXPECT_EQ(a.Get<Position>(e)->value, b.Get<Position>(e)->value);
        EXPECT_EQ(a.Get<Health>(e)->hp, b.Get<Health>(e)->hp);
      }
    }
    // Neither replica keeps an entity the server has destroyed.
    for (const World* replica : {&a, &b}) {
      replica->ForEachEntity([&](EntityId e) {
        EXPECT_TRUE(server.Alive(e)) << "tick " << tick;
      });
    }
    auto report = MeasureDivergence(server, b);
    EXPECT_EQ(report.missing_on_client,
              MeasureDivergence(server, a).missing_on_client);
  }
  EXPECT_GT(reused_inside, 0u);  // slots were reused inside the radius
}

// The same equivalence with the avatar standing still: the interest view is
// never recentered, so only the catalog's maintenance round before each
// sync can move entities in and out of it as they cross the radius.
TEST_F(SyncTest, InterestViewTracksCrossingsAroundAStillAvatar) {
  Rng rng(7);
  SyncOptions scan_opts;
  scan_opts.strategy = SyncStrategy::kInterest;
  scan_opts.interest_radius = 25.0f;
  SyncServer scan_sync(&server, scan_opts);
  scan_sync.AddClient(ids[0]);

  planner::QueryPlanner planner(&server);
  views::ViewCatalog catalog(&server, &planner);
  SyncOptions view_opts = scan_opts;
  view_opts.strategy = SyncStrategy::kInterestView;
  view_opts.view_catalog = &catalog;
  SyncServer view_sync(&server, view_opts);
  view_sync.AddClient(ids[0]);

  std::vector<SyncStats> scan_stats, view_stats;
  size_t crossings = 0;
  EntityId nan_npc;  // an NPC inside the radius whose z becomes NaN
  for (int tick = 0; tick < 16; ++tick) {
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
        if (scan_sync.client(0).world().Has<Position>(ids[i])) {
          nan_npc = ids[i];
        }
      }
      ASSERT_TRUE(nan_npc.valid());
      server.Patch<Position>(nan_npc, [](Position& p) {
        p.value.z = std::numeric_limits<float>::quiet_NaN();
      });
    }
    ASSERT_TRUE(scan_sync.SyncAll(&scan_stats).ok());
    catalog.Maintain();
    ASSERT_TRUE(view_sync.SyncAll(&view_stats).ok());

    EXPECT_EQ(scan_stats[0].rows_sent, view_stats[0].rows_sent)
        << "tick " << tick;
    EXPECT_EQ(scan_stats[0].removals_sent, view_stats[0].removals_sent)
        << "tick " << tick;
    const World& a = scan_sync.client(0).world();
    const World& b = view_sync.client(0).world();
    for (EntityId e : ids) {
      ASSERT_EQ(a.Has<Position>(e), b.Has<Position>(e)) << "tick " << tick;
      if (a.Has<Position>(e)) {
        EXPECT_EQ(a.Get<Position>(e)->value, b.Get<Position>(e)->value);
      }
    }
    if (nan_npc.valid()) {
      // A NaN position is inside no radius: both replicas drop it.
      EXPECT_FALSE(a.Has<Position>(nan_npc)) << "tick " << tick;
      EXPECT_FALSE(b.Has<Position>(nan_npc)) << "tick " << tick;
    }
  }
  EXPECT_GT(crossings, 0u);  // the radius was actually crossed
}

// A torn-down kInterestView server must release its catalog views so a
// successor (shard restart, reconnect) can register cleanly.
TEST_F(SyncTest, InterestViewServersShareACatalogAcrossRestarts) {
  planner::QueryPlanner planner(&server);
  views::ViewCatalog catalog(&server, &planner);
  SyncOptions opts;
  opts.strategy = SyncStrategy::kInterestView;
  opts.interest_radius = 25.0f;
  opts.view_catalog = &catalog;

  std::vector<SyncStats> stats;
  {
    SyncServer first(&server, opts);
    first.AddClient(ids[0]);
    catalog.Maintain();
    ASSERT_TRUE(first.SyncAll(&stats).ok());
    EXPECT_EQ(catalog.view_count(), 1u);
  }
  EXPECT_EQ(catalog.view_count(), 0u);  // destructor unregistered

  SyncServer second(&server, opts);
  second.AddClient(ids[0]);  // same client index: name must not collide
  catalog.Maintain();
  ASSERT_TRUE(second.SyncAll(&stats).ok());
  EXPECT_TRUE(second.client(0).world().Has<Position>(ids[1]));
}

// A component removed and re-added between two syncs is a net update:
// every delta strategy sends the new row and must not then erase it with
// the removal, at that sync or any later one.
TEST_F(SyncTest, RemoveThenReAddBetweenSyncsKeepsTheRow) {
  planner::QueryPlanner planner(&server);
  views::ViewCatalog catalog(&server, &planner);
  std::vector<std::unique_ptr<SyncServer>> syncs;
  for (SyncStrategy strategy :
       {SyncStrategy::kDelta, SyncStrategy::kInterest,
        SyncStrategy::kEventual, SyncStrategy::kInterestView}) {
    SyncOptions opts;
    opts.strategy = strategy;
    opts.interest_radius = 1000.0f;  // the whole world is in interest
    opts.period_ticks = 1;
    opts.view_catalog = &catalog;
    syncs.push_back(std::make_unique<SyncServer>(&server, opts));
    syncs.back()->AddClient(ids[0]);
  }
  std::vector<SyncStats> stats;
  auto sync_all = [&] {
    server.AdvanceTick();
    catalog.Maintain();
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

// Spawns and destroys under a view catalog and three clients, one of which
// logs out and back in: every server change log is empty after each sync
// (each reader has read it all), and a client that logs in is sent no
// removal from before it joined.
TEST_F(SyncTest, ChangeLogsStayEmptyAcrossSyncsAndRelogins) {
  planner::QueryPlanner planner(&server);
  views::ViewCatalog catalog(&server, &planner);
  SyncOptions opts;
  opts.strategy = SyncStrategy::kInterestView;
  opts.interest_radius = 60.0f;
  opts.view_catalog = &catalog;
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

// A removal is sent only for a row the replica holds. Under the interest
// strategies an entity destroyed outside interest was never replicated;
// under kDelta and kEventual a component added and removed between two
// syncs never reached the replica. Neither sends a removal, and every
// replica still matches the server where it holds rows.
TEST_F(SyncTest, RemovalsOnlyForRowsTheReplicaHolds) {
  planner::QueryPlanner planner(&server);
  views::ViewCatalog catalog(&server, &planner);
  const std::vector<SyncStrategy> strategies = {
      SyncStrategy::kDelta, SyncStrategy::kEventual, SyncStrategy::kInterest,
      SyncStrategy::kInterestView};
  std::vector<std::unique_ptr<SyncServer>> syncs;
  for (SyncStrategy strategy : strategies) {
    SyncOptions opts;
    opts.strategy = strategy;
    opts.interest_radius = 25.0f;  // ids[0..2] around the avatar at x=0
    opts.period_ticks = 1;
    opts.view_catalog = &catalog;
    syncs.push_back(std::make_unique<SyncServer>(&server, opts));
    syncs.back()->AddClient(ids[0]);
  }
  std::vector<std::vector<SyncStats>> stats(syncs.size());
  auto sync_all = [&] {
    server.AdvanceTick();
    catalog.Maintain();
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
    const bool interest = strategies[i] == SyncStrategy::kInterest ||
                          strategies[i] == SyncStrategy::kInterestView;
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

}  // namespace
}  // namespace gamedb::replication
