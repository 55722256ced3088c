// Stress tier (ctest -L stress): scaled live-view churn. Two angles:
//  - a big-world mutation storm where per-tick maintenance must stay
//    bit-identical to from-scratch execution (the differential contract at
//    20k entities instead of the unit suite's hundreds);
//  - parallel-phase view reads: every scripted entity calls the view
//    builtins while the membership sort cache rebuilds concurrently —
//    the double-checked lock in LiveView::Members is what the CI
//    ThreadSanitizer job exercises here.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "planner/planner.h"
#include "script/host.h"
#include "views/maintainer.h"

namespace gamedb::views {
namespace {

using planner::QueryPlanner;

class ViewChurnStressTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterStandardComponents(); }
  World world;
};

TEST_F(ViewChurnStressTest, BigWorldStormStaysExact) {
  QueryPlanner planner(&world);
  ViewCatalog catalog(&world, &planner);

  ViewDef wounded;
  wounded.name = "wounded";
  wounded.where = {{"Health", "hp", CmpOp::kLt, 20.0}};
  wounded.aggregate = AggKind::kSum;
  wounded.agg_component = "Health";
  wounded.agg_field = "hp";
  LiveView* view = *catalog.Register(wounded);

  ViewDef bubble;
  bubble.name = "bubble";
  bubble.has_near = true;
  bubble.near = {"Position", "value", {500, 0, 500}, 50.0f};
  LiveView* near_view = *catalog.Register(bubble);

  Rng rng(1234);
  std::vector<EntityId> pool;
  const size_t kWorld = 20000;
  for (size_t i = 0; i < kWorld; ++i) {
    EntityId e = world.Create();
    world.Set(e, Health{rng.NextFloat(0, 100), 100.0f});
    world.Set(e, Position{{rng.NextFloat(0, 1000), 0,
                           rng.NextFloat(0, 1000)}});
    pool.push_back(e);
  }
  planner.Analyze();
  catalog.Maintain();

  auto check = [&](int tick) {
    DynamicQuery q(&world);
    q.SetPlanner(&planner);
    q.WhereField("Health", "hp", CmpOp::kLt, 20.0);
    q.With("Health");
    auto fresh = q.Collect();
    ASSERT_TRUE(fresh.ok());
    ASSERT_EQ(view->Members(), *fresh) << "tick " << tick;
    auto fresh_sum = [&] {
      DynamicQuery qs(&world);
      qs.SetPlanner(&planner);
      qs.WhereField("Health", "hp", CmpOp::kLt, 20.0);
      return qs.Sum("Health", "hp");
    }();
    ASSERT_TRUE(fresh_sum.ok());
    ASSERT_EQ(*view->Aggregate(), *fresh_sum) << "tick " << tick;

    DynamicQuery qn(&world);
    qn.SetPlanner(&planner);
    qn.WithinRadius("Position", "value", near_view->def().near.center,
                    50.0f);
    auto fresh_near = qn.Collect();
    ASSERT_TRUE(fresh_near.ok());
    ASSERT_EQ(near_view->Members(), *fresh_near) << "tick " << tick;
  };

  for (int tick = 1; tick <= 30; ++tick) {
    world.AdvanceTick();
    // ~8% churn: hp writes and movement, plus destroy/respawn pairs.
    for (size_t i = 0; i < kWorld / 12; ++i) {
      EntityId e = pool[rng.NextU64() % pool.size()];
      if (!world.Alive(e)) continue;
      if (rng.NextBool(0.5)) {
        world.Patch<Health>(e,
                            [&](Health& h) { h.hp = rng.NextFloat(0, 100); });
      } else {
        world.Patch<Position>(e, [&](Position& p) {
          p.value.x += rng.NextFloat(-30, 30);
          p.value.z += rng.NextFloat(-30, 30);
        });
      }
    }
    for (int i = 0; i < 40; ++i) {
      size_t idx = rng.NextU64() % pool.size();
      if (world.Alive(pool[idx])) world.Destroy(pool[idx]);
      EntityId e = world.Create();
      world.Set(e, Health{rng.NextFloat(0, 100), 100.0f});
      world.Set(e, Position{{rng.NextFloat(0, 1000), 0,
                             rng.NextFloat(0, 1000)}});
      pool[idx] = e;
    }
    catalog.Maintain();
    check(tick);
    if (HasFatalFailure()) return;
  }
  // Maintenance actually ran incrementally, it did not repopulate.
  EXPECT_GT(view->stats().reevaluated, 0u);
  EXPECT_EQ(view->stats().repopulations, 1u);
}

TEST_F(ViewChurnStressTest, ParallelPhaseViewReadsAreRaceFree) {
  QueryPlanner planner(&world);
  ViewCatalog catalog(&world, &planner);

  ViewDef def;
  def.name = "hot";
  def.where = {{"Health", "hp", CmpOp::kGe, 50.0}};
  def.aggregate = AggKind::kCount;
  def.agg_component = "Health";
  def.agg_field = "hp";
  ASSERT_TRUE(catalog.Register(def).ok());

  Rng rng(777);
  for (int i = 0; i < 2000; ++i) {
    EntityId e = world.Create();
    world.Set(e, Health{rng.NextFloat(0, 100), 100.0f});
  }

  script::ScriptHostOptions opts;
  opts.num_threads = 4;
  opts.planner = &planner;
  opts.views = &catalog;
  script::ScriptHost host(&world, opts);
  // Every entity reads the view during the parallel phase: size, exact
  // aggregate (folds the shared sorted-members cache) and membership; the
  // first readers of a tick race to rebuild the sort cache.
  ASSERT_TRUE(host.Load("fn tick(e) {\n"
                        "  let n = view_count(\"hot\")\n"
                        "  let c = view_aggregate(\"hot\")\n"
                        "  if n != c { emit(\"mismatch\", e, 1) }\n"
                        "  let m = view_members(\"hot\")\n"
                        "  if len(m) != n { emit(\"mismatch\", e, 1) }\n"
                        "  if view_contains(\"hot\", e) {\n"
                        "    set(e, \"Health\", \"hp\", random() * 100)\n"
                        "  }\n"
                        "}\n")
                  .ok());
  double mismatches = 0;
  host.OnChannel("mismatch", [&](EntityId, double v) { mismatches += v; });

  for (int tick = 1; tick <= 15; ++tick) {
    world.AdvanceTick();
    planner.OnQuiescent();
    catalog.Maintain();
    auto stats = host.RunTickOver("tick", "Health");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_EQ(stats->script_errors, 0u) << stats->first_error.ToString();
  }
  EXPECT_EQ(mismatches, 0.0);

  // Post-run differential check.
  catalog.Maintain();
  DynamicQuery q(&world);
  q.SetPlanner(&planner);
  q.WhereField("Health", "hp", CmpOp::kGe, 50.0);
  q.With("Health");
  auto fresh = q.Collect();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(catalog.Find("hot")->Members(), *fresh);
}

}  // namespace
}  // namespace gamedb::views
