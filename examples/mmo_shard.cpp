// A miniature MMO shard tick loop: causality-bubble transaction execution,
// interest-managed client replication, intelligent checkpointing — then a
// simulated crash and recovery. The systems-integration example.
//
//   ./build/examples/mmo_shard
//   ./build/examples/mmo_shard --interest-view   # LiveView-backed interest
//
// With --interest-view, client replication reads each client's
// incrementally-maintained interest LiveView (ViewCatalog + cost-based
// planner) instead of rescanning the Position table per client — the
// kInterestView configuration the scenario harness (tools/loadgen) runs at
// scale.

#include <cstdio>
#include <cstring>
#include <memory>

#include "persist/manager.h"
#include "planner/planner.h"
#include "replication/divergence.h"
#include "replication/sync.h"
#include "txn/bubbles.h"
#include "txn/workload.h"
#include "views/maintainer.h"

using namespace gamedb;  // NOLINT

int main(int argc, char** argv) {
  bool interest_view = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--interest-view") == 0) {
      interest_view = true;
    } else {
      std::printf("usage: %s [--interest-view]\n", argv[0]);
      return 1;
    }
  }
  // --- World ------------------------------------------------------------
  txn::WorkloadOptions wopts;
  wopts.num_entities = 800;
  wopts.area_extent = 600.0f;
  wopts.attack_fraction = 0.5f;
  wopts.trade_fraction = 0.2f;
  wopts.clustered_fraction = 0.25f;  // a town square hotspot
  txn::MmoWorkload workload(wopts);
  World& world = workload.world();
  std::printf("shard up: %zu entities, %.0f x %.0f map\n", world.AliveCount(),
              wopts.area_extent, wopts.area_extent);

  // --- Subsystems ---------------------------------------------------------
  txn::BubbleOptions bopts;
  bopts.interaction_radius = wopts.interaction_radius;
  bopts.horizon_seconds = 0.5f;
  bopts.repartition_interval = 10;
  txn::BubbleExecutor executor(bopts);
  ThreadPool pool(4);

  // Interest replication: per-client Position rescan by default, or (with
  // --interest-view) a planner-executed LiveView per client, recentered as
  // its avatar moves. Planner + catalog must outlive the sync server.
  std::unique_ptr<planner::QueryPlanner> planner;
  std::unique_ptr<views::ViewCatalog> catalog;
  replication::SyncOptions sopts;
  sopts.interest_radius = 80.0f;
  if (interest_view) {
    planner = std::make_unique<planner::QueryPlanner>(&world);
    planner->Analyze();
    catalog = std::make_unique<views::ViewCatalog>(&world, planner.get());
    sopts.strategy = replication::SyncStrategy::kInterestView;
    sopts.view_catalog = catalog.get();
    std::printf("interest mode: LiveView (catalog + cost-based planner)\n");
  } else {
    sopts.strategy = replication::SyncStrategy::kInterest;
    std::printf("interest mode: per-client rescan\n");
  }
  replication::SyncServer sync(&world, sopts);
  sync.AddClient(workload.entities()[0]);
  sync.AddClient(workload.entities()[400]);

  persist::MemStorage storage;
  persist::PersistenceManager persistence(
      &storage,
      std::make_unique<persist::HybridPolicy>(/*max_interval=*/50,
                                              /*accumulate=*/80.0,
                                              /*urgent=*/40.0));
  Rng rng(77);

  // --- The tick loop ------------------------------------------------------
  uint64_t sync_bytes = 0;
  std::vector<replication::SyncStats> sync_stats;
  for (int tick = 1; tick <= 120; ++tick) {
    world.AdvanceTick();

    // 1. Execute this tick's player actions under bubble isolation.
    auto batch = workload.NextBatch();
    txn::ExecStats stats = executor.ExecuteBatch(&world, batch, &pool);

    // 2. Game events feed the checkpoint policy.
    if (rng.NextBool(0.03)) {
      persistence.OnEvent(world.tick(), 50.0, "boss_kill").ok();
    } else if (rng.NextBool(0.3)) {
      persistence.OnEvent(world.tick(), 1.0, "quest_step").ok();
    }

    // 3. Replicate to the connected clients. Interest views first absorb
    //    every move since the last sync.
    if (catalog != nullptr) catalog->Maintain();
    if (!sync.SyncAll(&sync_stats).ok()) return 1;
    for (const auto& s : sync_stats) sync_bytes += s.bytes_sent;

    // 4. Maybe checkpoint.
    auto ckpt = persistence.OnTickEnd(world);
    if (!ckpt.ok()) return 1;

    workload.AdvancePositions(0.05f);
    if (tick % 30 == 0) {
      std::printf(
          "tick %3d | txns %llu (cross %llu, bubbles %llu, max %llu) | "
          "ckpts %llu | pending importance %.1f\n",
          tick, static_cast<unsigned long long>(stats.committed),
          static_cast<unsigned long long>(stats.cross_bubble_txns),
          static_cast<unsigned long long>(stats.bubble_count),
          static_cast<unsigned long long>(stats.max_bubble_size),
          static_cast<unsigned long long>(persistence.metrics().checkpoints),
          persistence.pending_importance());
    }
  }

  auto divergence =
      replication::MeasureDivergence(world, sync.client(0).world());
  std::printf(
      "replication: %.1f KB total, client-0 rmse %.3f over %zu shared "
      "entities\n",
      double(sync_bytes) / 1024.0, divergence.position_rmse,
      divergence.compared);

  // --- Crash! ------------------------------------------------------------
  double hp_at_crash = workload.TotalHp();
  int64_t gold_at_crash = workload.TotalGold();
  std::printf("CRASH at tick %llu (total hp %.0f, gold %lld)\n",
              static_cast<unsigned long long>(world.tick()), hp_at_crash,
              static_cast<long long>(gold_at_crash));

  World recovered;
  auto outcome = persist::PersistenceManager::Recover(storage, &recovered);
  if (!outcome.ok()) {
    std::printf("recovery failed: %s\n",
                outcome.status().ToString().c_str());
    return 1;
  }
  double hp_recovered = 0;
  recovered.ForEachEntity([&](EntityId e) {
    if (const Health* h = recovered.Get<Health>(e)) hp_recovered += h->hp;
  });
  std::printf(
      "recovered to tick %llu from checkpoint@%llu (replayed %llu txns): "
      "%zu entities, total hp %.0f\n",
      static_cast<unsigned long long>(outcome->recovered_tick),
      static_cast<unsigned long long>(outcome->checkpoint_tick),
      static_cast<unsigned long long>(outcome->replayed_txns),
      recovered.AliveCount(), hp_recovered);
  std::printf("post-crash progress lost: ticks %llu..%llu\n",
              static_cast<unsigned long long>(outcome->recovered_tick + 1),
              static_cast<unsigned long long>(world.tick()));
  return recovered.AliveCount() == world.AliveCount() ? 0 : 1;
}
