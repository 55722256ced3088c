#include "txn/executors.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/aggregate.h"
#include "txn/bubbles.h"
#include "txn/workload.h"

namespace gamedb::txn {
namespace {

enum class EngineKind { kGlobal, k2pl, kOcc, kBubbles };

std::unique_ptr<TxnExecutor> MakeEngine(EngineKind kind) {
  switch (kind) {
    case EngineKind::kGlobal:
      return std::make_unique<GlobalLockExecutor>();
    case EngineKind::k2pl:
      return std::make_unique<EntityLockExecutor>();
    case EngineKind::kOcc:
      return std::make_unique<OccExecutor>();
    case EngineKind::kBubbles: {
      BubbleOptions opts;
      opts.interaction_radius = 12.0f;
      opts.horizon_seconds = 0.5f;
      return std::make_unique<BubbleExecutor>(opts);
    }
  }
  return nullptr;
}

class ExecutorParamTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ExecutorParamTest, InvariantsHoldUnderConcurrency) {
  WorkloadOptions opts;
  opts.num_entities = 400;
  opts.area_extent = 200.0f;
  opts.attack_fraction = 0.4f;
  opts.trade_fraction = 0.4f;
  opts.txns_per_entity = 2.0f;
  opts.seed = 42;
  MmoWorkload workload(opts);

  int64_t gold_before = workload.TotalGold();
  double hp_before = workload.TotalHp();

  auto engine = MakeEngine(GetParam());
  ThreadPool pool(4);
  uint64_t committed = 0;
  size_t txn_count = 0;
  for (int tick = 0; tick < 5; ++tick) {
    auto batch = workload.NextBatch();
    txn_count += batch.size();
    ExecStats stats = engine->ExecuteBatch(&workload.world(), batch, &pool);
    committed += stats.committed;
    workload.AdvancePositions(0.1f);
  }
  // Every transaction committed exactly once.
  EXPECT_EQ(committed, txn_count);
  // Gold is conserved by trades.
  EXPECT_EQ(workload.TotalGold(), gold_before);
  // Attacks strictly reduce total hp.
  EXPECT_LT(workload.TotalHp(), hp_before);
}

TEST_P(ExecutorParamTest, MatchesSerialOutcomeOnCommutativeWorkload) {
  // Attacks and trades are commutative, so any correct executor must land
  // on exactly the serial totals (per entity, since damage depends only on
  // static stats).
  WorkloadOptions opts;
  opts.num_entities = 200;
  opts.area_extent = 80.0f;  // dense -> heavy conflicts
  opts.attack_fraction = 0.6f;
  opts.trade_fraction = 0.4f;  // no moves
  opts.txns_per_entity = 3.0f;
  opts.seed = 7;

  // Serial reference.
  MmoWorkload ref_workload(opts);
  auto ref_batch = ref_workload.NextBatch();
  for (const GameTxn& t : ref_batch) ApplyTxn(&ref_workload.world(), t);

  // Engine under test, same seed -> identical batch.
  MmoWorkload workload(opts);
  auto batch = workload.NextBatch();
  ASSERT_EQ(batch.size(), ref_batch.size());
  auto engine = MakeEngine(GetParam());
  ThreadPool pool(8);
  engine->ExecuteBatch(&workload.world(), batch, &pool);

  for (size_t i = 0; i < workload.entities().size(); ++i) {
    EntityId e = workload.entities()[i];
    EntityId re = ref_workload.entities()[i];
    ASSERT_FLOAT_EQ(workload.world().Get<Health>(e)->hp,
                    ref_workload.world().Get<Health>(re)->hp)
        << "entity " << i;
    ASSERT_EQ(workload.world().Get<Actor>(e)->gold,
              ref_workload.world().Get<Actor>(re)->gold)
        << "entity " << i;
  }
}

TEST_P(ExecutorParamTest, EmptyBatchIsFine) {
  WorkloadOptions opts;
  opts.num_entities = 10;
  MmoWorkload workload(opts);
  auto engine = MakeEngine(GetParam());
  ThreadPool pool(2);
  ExecStats stats = engine->ExecuteBatch(&workload.world(), {}, &pool);
  EXPECT_EQ(stats.committed, 0u);
}

// The executors write untracked from pool threads; PublishBatchDirty's
// Touch pass then makes those writes ordinary tracked updates, so a
// maintained aggregate over the written table stays equal to a rescan.
TEST_P(ExecutorParamTest, PublishedBatchKeepsSumAggregateExact) {
  WorkloadOptions opts;
  opts.num_entities = 300;
  opts.area_extent = 150.0f;
  opts.attack_fraction = 0.6f;
  opts.trade_fraction = 0.2f;
  opts.seed = 11;
  MmoWorkload workload(opts);
  World& world = workload.world();
  SumAggregate<Health> total(world, [](const Health& h) { return h.hp; });

  auto engine = MakeEngine(GetParam());
  ThreadPool pool(4);
  const double hp_before = workload.TotalHp();
  for (int tick = 0; tick < 4; ++tick) {
    auto batch = workload.NextBatch();
    engine->ExecuteBatch(&world, batch, &pool);
    PublishBatchDirty(&world, batch);
    workload.AdvancePositions(0.1f);
    EXPECT_NEAR(total.sum(), workload.TotalHp(), 1e-6) << "tick " << tick;
    EXPECT_EQ(total.count(),
              static_cast<int64_t>(world.Table<Health>().Size()));
  }
  EXPECT_LT(total.sum(), hp_before);
}

INSTANTIATE_TEST_SUITE_P(Engines, ExecutorParamTest,
                         ::testing::Values(EngineKind::kGlobal,
                                           EngineKind::k2pl, EngineKind::kOcc,
                                           EngineKind::kBubbles),
                         [](const auto& info) {
                           switch (info.param) {
                             case EngineKind::kGlobal:
                               return "GlobalLock";
                             case EngineKind::k2pl:
                               return "Entity2pl";
                             case EngineKind::kOcc:
                               return "Occ";
                             case EngineKind::kBubbles:
                               return "Bubbles";
                           }
                           return "?";
                         });

TEST(OccExecutorTest, AbortsHappenUnderContentionButAllCommit) {
  // Hotspot: everyone trades with a tiny set of partners.
  WorkloadOptions opts;
  opts.num_entities = 100;
  opts.area_extent = 10.0f;  // everyone in range of everyone
  opts.attack_fraction = 0.0f;
  opts.trade_fraction = 1.0f;
  opts.txns_per_entity = 4.0f;
  MmoWorkload workload(opts);
  auto batch = workload.NextBatch();
  OccExecutor occ;
  ThreadPool pool(8);
  ExecStats stats = occ.ExecuteBatch(&workload.world(), batch, &pool);
  EXPECT_EQ(stats.committed, batch.size());
  // With 8 threads hammering a dense trade graph there should be conflicts.
  // (Not asserted as a hard bound — scheduling dependent — but tracked.)
  EXPECT_GE(stats.aborted, 0u);
}

TEST(LockManagerTest, GuardCountsDistinctStripes) {
  LockManager mgr(LockManagerOptions{64});
  std::vector<EntityId> dup = {EntityId(1, 0), EntityId(1, 0),
                               EntityId(2, 0)};
  LockManager::MultiGuard guard(&mgr, dup);
  EXPECT_LE(guard.lock_count(), 2u);
  EXPECT_GE(guard.lock_count(), 1u);
}

TEST(LockManagerTest, ConcurrentGuardsDoNotDeadlock) {
  LockManager mgr(LockManagerOptions{8});  // few stripes -> heavy overlap
  ThreadPool pool(8);
  Rng rng(5);
  std::vector<std::vector<EntityId>> sets;
  for (int i = 0; i < 400; ++i) {
    std::vector<EntityId> set;
    for (int j = 0; j < 6; ++j) {
      set.push_back(EntityId(static_cast<uint32_t>(rng.NextBounded(64)), 0));
    }
    sets.push_back(std::move(set));
  }
  std::atomic<int> done{0};
  pool.ParallelFor(sets.size(), [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      LockManager::MultiGuard guard(&mgr, sets[i]);
      done.fetch_add(1);
    }
  });
  EXPECT_EQ(done.load(), 400);
}

}  // namespace
}  // namespace gamedb::txn
