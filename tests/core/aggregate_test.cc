#include "core/aggregate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace gamedb {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

class AggregateTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterStandardComponents(); }

  /// Rescan of the Health table under the aggregates' rule: a NaN hp
  /// contributes nothing.
  struct Rescan {
    double sum = 0;
    int64_t count = 0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };
  Rescan RescanHp() {
    Rescan r;
    world.Table<Health>().ForEach([&](EntityId, const Health& h) {
      if (std::isnan(h.hp)) return;
      r.sum += h.hp;
      ++r.count;
      r.min = std::min(r.min, double(h.hp));
      r.max = std::max(r.max, double(h.hp));
    });
    return r;
  }
  void SetHp(EntityId e, float hp) {
    world.Patch<Health>(e, [hp](Health& h) { h.hp = hp; });
  }

  World world;
};

TEST_F(AggregateTest, SumTracksSetPatchErase) {
  SumAggregate<Health> total(world, [](const Health& h) { return h.hp; });
  EXPECT_DOUBLE_EQ(total.sum(), 0.0);
  EXPECT_EQ(total.count(), 0);

  EntityId a = world.Create(), b = world.Create();
  world.Set(a, Health{10, 100});
  world.Set(b, Health{20, 100});
  EXPECT_DOUBLE_EQ(total.sum(), 30.0);
  EXPECT_EQ(total.count(), 2);
  EXPECT_DOUBLE_EQ(total.average(), 15.0);

  world.Patch<Health>(a, [](Health& h) { h.hp = 50; });
  EXPECT_DOUBLE_EQ(total.sum(), 70.0);

  world.Set(b, Health{5, 100});  // overwrite counts as update
  EXPECT_DOUBLE_EQ(total.sum(), 55.0);

  world.Remove<Health>(a);
  EXPECT_DOUBLE_EQ(total.sum(), 5.0);
  EXPECT_EQ(total.count(), 1);

  world.Destroy(b);  // destroy removes components too
  EXPECT_DOUBLE_EQ(total.sum(), 0.0);
  EXPECT_EQ(total.count(), 0);
}

TEST_F(AggregateTest, SumFoldsPreexistingRows) {
  for (int i = 1; i <= 4; ++i) {
    world.Set(world.Create(), Health{float(i), 100});
  }
  SumAggregate<Health> total(world, [](const Health& h) { return h.hp; });
  EXPECT_DOUBLE_EQ(total.sum(), 10.0);
}

TEST_F(AggregateTest, SumIgnoresUntrackedWrites) {
  EntityId e = world.Create();
  world.Set(e, Health{10, 100});
  SumAggregate<Health> total(world, [](const Health& h) { return h.hp; });
  world.GetMutableUntracked<Health>(e)->hp = 999;  // bypasses tracking
  EXPECT_DOUBLE_EQ(total.sum(), 10.0);  // by design: see E1 ablation
}

// Touch is an ordinary tracked update: it publishes the untracked write
// before it to every aggregate.
TEST_F(AggregateTest, TouchPublishesUntrackedWrite) {
  EntityId a = world.Create(), b = world.Create();
  world.Set(a, Health{10, 100});
  world.Set(b, Health{20, 200});
  SumAggregate<Health> total(world, [](const Health& h) { return h.hp; });
  ExtremaAggregate<Health> ex(world, [](const Health& h) { return h.hp; });
  GroupedSumAggregate<Health> by_max(
      world, [](const Health& h) { return int64_t(h.max_hp); },
      [](const Health& h) { return h.hp; });

  world.GetMutableUntracked<Health>(a)->hp = 999;
  world.Table<Health>().Touch(a);
  EXPECT_DOUBLE_EQ(total.sum(), RescanHp().sum);
  EXPECT_DOUBLE_EQ(total.sum(), 1019.0);
  EXPECT_DOUBLE_EQ(ex.min(), 20.0);
  EXPECT_DOUBLE_EQ(ex.max(), 999.0);
  EXPECT_DOUBLE_EQ(by_max.SumOf(100), 999.0);
  EXPECT_DOUBLE_EQ(by_max.SumOf(200), 20.0);
}

// A tracked write after an untracked one retracts what the aggregate last
// folded for the row, not the untracked value it never saw.
TEST_F(AggregateTest, PatchAfterUntrackedWriteMatchesRescan) {
  EntityId e = world.Create();
  world.Set(e, Health{10, 100});
  SumAggregate<Health> total(world, [](const Health& h) { return h.hp; });
  world.GetMutableUntracked<Health>(e)->hp = 999;
  SetHp(e, 20);
  EXPECT_DOUBLE_EQ(total.sum(), RescanHp().sum);
  EXPECT_DOUBLE_EQ(total.sum(), 20.0);
  EXPECT_EQ(total.count(), 1);
}

// A NaN projection contributes nothing, and the row's contribution comes
// back when a later write makes it a number again.
TEST_F(AggregateTest, SumSkipsNaNAndRecovers) {
  EntityId a = world.Create(), b = world.Create();
  world.Set(a, Health{5, 100});
  world.Set(b, Health{3, 100});
  SumAggregate<Health> total(world, [](const Health& h) { return h.hp; });
  SetHp(b, kNaN);
  EXPECT_DOUBLE_EQ(total.sum(), RescanHp().sum);
  EXPECT_DOUBLE_EQ(total.sum(), 5.0);
  EXPECT_EQ(total.count(), 1);
  SetHp(b, 7);
  EXPECT_DOUBLE_EQ(total.sum(), RescanHp().sum);
  EXPECT_DOUBLE_EQ(total.sum(), 12.0);
  EXPECT_EQ(total.count(), 2);
}

TEST_F(AggregateTest, ExtremaSkipsNaNAndRecovers) {
  std::vector<EntityId> rows;
  for (int hp = 10; hp <= 15; ++hp) {
    rows.push_back(world.Create());
    world.Set(rows.back(), Health{float(hp), 100});
  }
  ExtremaAggregate<Health> ex(world, [](const Health& h) { return h.hp; });
  SetHp(rows[3], kNaN);  // the row holding 13
  EXPECT_DOUBLE_EQ(ex.min(), RescanHp().min);
  EXPECT_DOUBLE_EQ(ex.max(), RescanHp().max);
  SetHp(rows[3], 13);
  EXPECT_DOUBLE_EQ(ex.min(), 10.0);
  EXPECT_DOUBLE_EQ(ex.max(), 15.0);
  EXPECT_DOUBLE_EQ(ex.min(), RescanHp().min);
  EXPECT_DOUBLE_EQ(ex.max(), RescanHp().max);
}

TEST_F(AggregateTest, GroupedSkipsNaNAndRecovers) {
  EntityId a = world.Create(), b = world.Create(), c = world.Create();
  world.Set(a, Health{1, 100});
  world.Set(b, Health{2, 100});
  world.Set(c, Health{3, 200});
  GroupedSumAggregate<Health> by_max(
      world, [](const Health& h) { return int64_t(h.max_hp); },
      [](const Health& h) { return h.hp; });
  SetHp(b, kNaN);
  SetHp(c, kNaN);
  EXPECT_DOUBLE_EQ(by_max.SumOf(100), 1.0);
  EXPECT_EQ(by_max.CountOf(100), 1);
  EXPECT_EQ(by_max.group_count(), 1u) << "a group of NaN rows is empty";
  SetHp(b, 4);
  SetHp(c, 6);
  EXPECT_DOUBLE_EQ(by_max.SumOf(100), 5.0);
  EXPECT_EQ(by_max.CountOf(100), 2);
  EXPECT_DOUBLE_EQ(by_max.SumOf(200), 6.0);
  EXPECT_EQ(by_max.group_count(), 2u);
}

// The aggregate's cursor holds records only until its next read.
TEST_F(AggregateTest, ReadDrainsTheTableLog) {
  SumAggregate<Health> total(world, [](const Health& h) { return h.hp; });
  for (int i = 0; i < 3; ++i) world.Set(world.Create(), Health{1, 100});
  EXPECT_EQ(world.Table<Health>().changes().size(), 3u);
  EXPECT_DOUBLE_EQ(total.sum(), 3.0);
  EXPECT_EQ(world.Table<Health>().changes().size(), 0u);
}

// Destroying an aggregate closes its cursor: with no reader left, the
// table appends no record.
TEST_F(AggregateTest, DestroyedAggregateStopsTheLog) {
  EntityId e = world.Create();
  {
    SumAggregate<Health> total(world, [](const Health& h) { return h.hp; });
    world.Set(e, Health{1, 100});
    EXPECT_EQ(world.Table<Health>().changes().size(), 1u);
  }
  EXPECT_EQ(world.Table<Health>().changes().size(), 0u);
  SetHp(e, 2);
  world.Remove<Health>(e);
  EXPECT_EQ(world.Table<Health>().changes().size(), 0u);
}

TEST_F(AggregateTest, ExtremaExactUnderRemoval) {
  ExtremaAggregate<Health> ex(world, [](const Health& h) { return h.hp; });
  EXPECT_TRUE(ex.empty());

  EntityId a = world.Create(), b = world.Create(), c = world.Create();
  world.Set(a, Health{30, 100});
  world.Set(b, Health{10, 100});
  world.Set(c, Health{20, 100});
  EXPECT_DOUBLE_EQ(ex.min(), 10.0);
  EXPECT_DOUBLE_EQ(ex.max(), 30.0);

  world.Remove<Health>(b);  // remove current minimum
  EXPECT_DOUBLE_EQ(ex.min(), 20.0);

  world.Patch<Health>(a, [](Health& h) { h.hp = 5; });  // update below min
  EXPECT_DOUBLE_EQ(ex.min(), 5.0);
  EXPECT_DOUBLE_EQ(ex.max(), 20.0);
}

TEST_F(AggregateTest, ExtremaHandlesDuplicateValues) {
  EntityId a = world.Create(), b = world.Create();
  world.Set(a, Health{10, 100});
  world.Set(b, Health{10, 100});
  ExtremaAggregate<Health> ex(world, [](const Health& h) { return h.hp; });
  world.Remove<Health>(a);
  EXPECT_DOUBLE_EQ(ex.min(), 10.0);  // the other 10 remains
  world.Remove<Health>(b);
  EXPECT_TRUE(ex.empty());
}

TEST_F(AggregateTest, GroupedSumMovesRowsBetweenGroups) {
  GroupedSumAggregate<Actor> gold_by_team(
      world, [](const Actor& a) { return a.account_id; },
      [](const Actor& a) { return double(a.gold); });

  EntityId a = world.Create(), b = world.Create();
  world.Set(a, Actor{1, 100, 1, true});
  world.Set(b, Actor{1, 50, 1, true});
  EXPECT_DOUBLE_EQ(gold_by_team.SumOf(1), 150.0);
  EXPECT_EQ(gold_by_team.CountOf(1), 2);
  EXPECT_EQ(gold_by_team.group_count(), 1u);

  // Move `b` to account 2.
  world.Patch<Actor>(b, [](Actor& act) {
    act.account_id = 2;
    act.gold = 60;
  });
  EXPECT_DOUBLE_EQ(gold_by_team.SumOf(1), 100.0);
  EXPECT_DOUBLE_EQ(gold_by_team.SumOf(2), 60.0);
  EXPECT_EQ(gold_by_team.group_count(), 2u);

  world.Remove<Actor>(a);
  EXPECT_DOUBLE_EQ(gold_by_team.SumOf(1), 0.0);
  EXPECT_EQ(gold_by_team.group_count(), 1u);  // empty group dropped
}

TEST_F(AggregateTest, GroupedForEachVisitsAllGroups) {
  GroupedSumAggregate<Faction> by_team(
      world, [](const Faction& f) { return f.team; },
      [](const Faction&) { return 1.0; });
  for (int i = 0; i < 9; ++i) {
    world.Set(world.Create(), Faction{i % 3});
  }
  int groups = 0;
  double total = 0;
  by_team.ForEachGroup([&](int64_t, double sum, int64_t count) {
    ++groups;
    total += sum;
    EXPECT_EQ(count, 3);
  });
  EXPECT_EQ(groups, 3);
  EXPECT_DOUBLE_EQ(total, 9.0);
}

// Property: the maintained sum equals a full rescan after a random workload.
TEST_F(AggregateTest, MaintainedSumMatchesRescanProperty) {
  SumAggregate<Health> total(world, [](const Health& h) { return h.hp; });
  Rng rng(4242);
  std::vector<EntityId> pool;
  for (int op = 0; op < 5000; ++op) {
    double roll = rng.NextDouble();
    if (roll < 0.4 || pool.empty()) {
      EntityId e = world.Create();
      world.Set(e, Health{float(rng.NextInt(0, 100)), 100});
      pool.push_back(e);
    } else if (roll < 0.7) {
      EntityId e = pool[rng.NextBounded(pool.size())];
      world.Patch<Health>(e, [&](Health& h) {
        h.hp = float(rng.NextInt(0, 100));
      });
    } else {
      size_t i = rng.NextBounded(pool.size());
      world.Destroy(pool[i]);
      pool[i] = pool.back();
      pool.pop_back();
    }
  }
  double rescan = 0;
  world.Table<Health>().ForEach(
      [&](EntityId, const Health& h) { rescan += h.hp; });
  EXPECT_NEAR(total.sum(), rescan, 1e-6);
  EXPECT_EQ(total.count(), static_cast<int64_t>(world.Table<Health>().Size()));
}

}  // namespace
}  // namespace gamedb
