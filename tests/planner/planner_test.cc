#include "planner/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/serialize.h"
#include "core/world.h"
#include "script/host.h"

namespace gamedb::planner {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterStandardComponents(); }

  /// Entities with Health (hp uniform in [0, 100)), Faction (4 teams) and,
  /// for even entities, Position uniform in [0, area)².
  std::vector<EntityId> Populate(World* w, size_t n, float area) {
    Rng rng(42);
    std::vector<EntityId> ids;
    for (size_t i = 0; i < n; ++i) {
      EntityId e = w->Create();
      ids.push_back(e);
      w->Set(e, Health{rng.NextFloat(0, 100), 100.0f});
      w->Set(e, Faction{int32_t(i % 4)});
      if (i % 2 == 0) {
        w->Set(e, Position{{rng.NextFloat(0, area), 0,
                            rng.NextFloat(0, area)}});
      }
    }
    return ids;
  }

  /// Collect() under the planner vs the built-in path must agree exactly,
  /// including order.
  void ExpectIdenticalCollect(World* w, QueryPlanner* planner,
                              const std::function<void(DynamicQuery&)>& shape,
                              const char* what) {
    DynamicQuery off(w);
    shape(off);
    auto off_r = off.Collect();
    DynamicQuery on(w);
    on.SetPlanner(planner);
    shape(on);
    auto on_r = on.Collect();
    ASSERT_EQ(off_r.ok(), on_r.ok()) << what;
    if (!off_r.ok()) return;
    EXPECT_EQ(*off_r, *on_r) << what << ": planned results differ";
  }

  World world;
};

TEST_F(PlannerTest, UnselectivePredicateStaysFullScan) {
  Populate(&world, 512, 100);
  QueryPlanner planner(&world);
  planner.Analyze();
  DynamicQuery q(&world);
  q.WhereField("Health", "hp", CmpOp::kLe, 1000.0);  // matches everything
  QueryPlan plan = planner.BuildPlan(q);
  EXPECT_EQ(plan.access, AccessPath::kFullScan);
  auto text = q.SetPlanner(&planner).Explain();
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("access: full_scan"), std::string::npos) << *text;
}

// Acceptance: a selective field predicate flips scan -> index as the table
// grows (the build cost stops mattering, the scan cost keeps growing).
TEST_F(PlannerTest, SelectiveFieldPredicateFlipsScanToIndexWithTableSize) {
  auto plan_for = [&](World* w) {
    QueryPlanner planner(w);
    planner.Analyze();
    DynamicQuery q(w);
    q.WhereField("Health", "hp", CmpOp::kLt, 1.0);  // ~1% selectivity
    return planner.BuildPlan(q).access;
  };
  {
    World small;
    Populate(&small, 32, 100);
    EXPECT_EQ(plan_for(&small), AccessPath::kFullScan);
  }
  {
    World big;
    Populate(&big, 8192, 1000);
    EXPECT_EQ(plan_for(&big), AccessPath::kFieldIndex);
  }
}

// Acceptance: the proximity plan flips from the linear filter to an indexed
// join as the world grows from sparse to dense.
TEST_F(PlannerTest, ProximityPlanFlipsToSpatialIndexAsWorldGrows) {
  World w;
  Populate(&w, 40, 1000);
  QueryPlanner planner(&w);
  planner.Analyze();
  auto shape = [](DynamicQuery& q) {
    q.WithinRadius("Position", "value", Vec3(500, 0, 500), 25.0f);
  };
  DynamicQuery sparse_q(&w);
  shape(sparse_q);
  EXPECT_EQ(planner.BuildPlan(sparse_q).access, AccessPath::kFullScan);

  // Grow the same world to 8192 entities (same area -> much denser).
  Populate(&w, 8152, 1000);
  planner.Analyze();
  DynamicQuery dense_q(&w);
  shape(dense_q);
  QueryPlan plan = planner.BuildPlan(dense_q);
  EXPECT_EQ(plan.access, AccessPath::kSpatialIndex);
  DynamicQuery explain_q(&w);
  explain_q.SetPlanner(&planner);
  shape(explain_q);
  auto text = explain_q.Explain();
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("access: spatial_index"), std::string::npos) << *text;
}

// Acceptance: the pair-join plan flips from nested loop to an indexed join
// as the world grows from sparse to dense.
TEST_F(PlannerTest, PairJoinPlanFlipsFromNestedLoopAsWorldGrows) {
  World w;
  Populate(&w, 64, 1000);
  QueryPlanner planner(&w);
  planner.Analyze();
  PairJoinPlan sparse =
      planner.PlanPairJoinFor("Position", "value", 32, 10.0f);
  EXPECT_EQ(sparse.algo, spatial::PairAlgo::kNestedLoop) << sparse.ToString();

  Populate(&w, 8128, 1000);
  planner.Analyze();
  PairJoinPlan dense =
      planner.PlanPairJoinFor("Position", "value", 4096, 10.0f);
  EXPECT_NE(dense.algo, spatial::PairAlgo::kNestedLoop) << dense.ToString();
  EXPECT_NE(dense.ToString().find("pair_join:"), std::string::npos);
}

TEST_F(PlannerTest, PlannedResultsBitIdenticalToUnplanned) {
  auto ids = Populate(&world, 4096, 300);
  // Kill some entities so alive-filtering is exercised.
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    world.Destroy(ids[rng.NextBounded(ids.size())]);
  }
  QueryPlanner planner(&world);
  planner.Analyze();

  ExpectIdenticalCollect(
      &world, &planner, [](DynamicQuery& q) { q.With("Health"); },
      "bare with");
  ExpectIdenticalCollect(
      &world, &planner,
      [](DynamicQuery& q) { q.With("Health").With("Position"); },
      "two-table join");
  ExpectIdenticalCollect(
      &world, &planner,
      [](DynamicQuery& q) {
        q.WhereField("Health", "hp", CmpOp::kLt, 2.0);
      },
      "selective predicate (index plan)");
  ExpectIdenticalCollect(
      &world, &planner,
      [](DynamicQuery& q) {
        q.WhereField("Health", "hp", CmpOp::kGe, 5.0);
      },
      "unselective predicate");
  ExpectIdenticalCollect(
      &world, &planner,
      [](DynamicQuery& q) {
        q.WhereField("Health", "hp", CmpOp::kEq, 50.0);
      },
      "equality predicate");
  ExpectIdenticalCollect(
      &world, &planner,
      [](DynamicQuery& q) {
        q.WithinRadius("Position", "value", Vec3(150, 0, 150), 40.0f);
      },
      "radius predicate (spatial plan)");
  ExpectIdenticalCollect(
      &world, &planner,
      [](DynamicQuery& q) {
        q.WhereField("Faction", "team", CmpOp::kEq, int64_t{2})
            .WhereField("Health", "hp", CmpOp::kLt, 30.0)
            .WithinRadius("Position", "value", Vec3(100, 0, 100), 80.0f);
      },
      "combined predicates");

  // Aggregates and arg-extremes (tie-breaks depend on scan order, so these
  // prove order preservation too).
  DynamicQuery a_off(&world), a_on(&world);
  a_on.SetPlanner(&planner);
  a_off.WhereField("Health", "hp", CmpOp::kLt, 30.0);
  a_on.WhereField("Health", "hp", CmpOp::kLt, 30.0);
  EXPECT_DOUBLE_EQ(*a_off.Sum("Health", "hp"), *a_on.Sum("Health", "hp"));
  DynamicQuery m_off(&world), m_on(&world);
  m_on.SetPlanner(&planner);
  m_off.WhereField("Faction", "team", CmpOp::kEq, int64_t{1});
  m_on.WhereField("Faction", "team", CmpOp::kEq, int64_t{1});
  EXPECT_EQ(*m_off.ArgMin("Health", "hp"), *m_on.ArgMin("Health", "hp"));
}

TEST_F(PlannerTest, ForcedPlansAllProduceIdenticalResults) {
  Populate(&world, 2048, 200);
  QueryPlanner planner(&world);
  planner.Analyze();

  auto shape = [](DynamicQuery& q) {
    q.WhereField("Health", "hp", CmpOp::kLt, 20.0)
        .WithinRadius("Position", "value", Vec3(100, 0, 100), 60.0f);
  };
  DynamicQuery reference(&world);
  shape(reference);
  auto expected = *reference.Collect();

  for (AccessPath access :
       {AccessPath::kFullScan, AccessPath::kFieldIndex,
        AccessPath::kSpatialIndex}) {
    DynamicQuery q(&world);
    shape(q);
    QueryPlan plan = planner.BuildPlan(q);
    plan.access = access;
    // Forcing an access path means re-deriving which predicates the path
    // serves vs which stay filters (what BuildPlan does for its choice).
    if (access == AccessPath::kFieldIndex) {
      plan.index_predicate = 0;
      plan.radius_predicate = -1;
      plan.predicate_order.clear();
    } else if (access == AccessPath::kSpatialIndex) {
      plan.index_predicate = -1;
      plan.radius_predicate = 0;
      plan.predicate_order.assign({0});
    } else {
      plan.index_predicate = -1;
      plan.radius_predicate = -1;
      plan.predicate_order.assign({0});
    }
    std::vector<EntityId> got;
    ASSERT_TRUE(planner
                    .ExecuteWithPlan(q, plan,
                                     [&](EntityId e) { got.push_back(e); })
                    .ok());
    EXPECT_EQ(got, expected) << "access path "
                             << AccessPathName(access);
  }

  // A malformed plan — an index access path with no served predicate (the
  // -1 sentinels) — must take the full-scan fallback, not read
  // predicates()[-1].
  for (AccessPath access :
       {AccessPath::kFieldIndex, AccessPath::kSpatialIndex}) {
    DynamicQuery q(&world);
    shape(q);
    QueryPlan bogus;
    bogus.access = access;
    std::vector<EntityId> got;
    ASSERT_TRUE(planner
                    .ExecuteWithPlan(q, bogus,
                                     [&](EntityId e) { got.push_back(e); })
                    .ok());
    EXPECT_EQ(got, expected) << "sentinel fallback for "
                             << AccessPathName(access);
  }
}

TEST_F(PlannerTest, PlanCacheHitsUntilStatsDrift) {
  Populate(&world, 1024, 100);
  QueryPlanner planner(&world);
  planner.Analyze();
  auto run = [&] {
    DynamicQuery q(&world);
    q.SetPlanner(&planner);
    q.WhereField("Health", "hp", CmpOp::kLt, 10.0);
    ASSERT_TRUE(q.Count().ok());
  };
  run();
  EXPECT_EQ(planner.plan_cache_misses(), 1u);
  EXPECT_EQ(planner.plan_cache_hits(), 0u);
  run();
  run();
  EXPECT_EQ(planner.plan_cache_misses(), 1u);
  EXPECT_EQ(planner.plan_cache_hits(), 2u);

  // Different rhs value = different shape = its own plan.
  DynamicQuery q2(&world);
  q2.SetPlanner(&planner);
  q2.WhereField("Health", "hp", CmpOp::kLt, 99.0);
  ASSERT_TRUE(q2.Count().ok());
  EXPECT_EQ(planner.plan_cache_misses(), 2u);

  // Grow the world past the drift threshold; the quiescent hook refreshes
  // stats, which invalidates every cached plan.
  Populate(&world, 1024, 100);
  planner.OnQuiescent();
  EXPECT_EQ(planner.stats_refreshes(), 2u);
  run();
  EXPECT_EQ(planner.plan_cache_misses(), 3u);
}

TEST_F(PlannerTest, FieldIndexIsReusedWhileTheTableIsUnchanged) {
  Populate(&world, 4096, 100);
  QueryPlanner planner(&world);
  planner.Analyze();
  for (int i = 0; i < 10; ++i) {
    DynamicQuery q(&world);
    q.SetPlanner(&planner);
    q.WhereField("Health", "hp", CmpOp::kLt, 1.0);
    ASSERT_TRUE(q.Count().ok());
  }
  EXPECT_EQ(planner.field_index_builds(), 1u);

  // A mutation invalidates the index; the next query rebuilds once.
  world.Patch<Health>(world.Table<Health>().EntityAt(0),
                      [](Health& h) { h.hp += 0.5f; });
  DynamicQuery q(&world);
  q.SetPlanner(&planner);
  q.WhereField("Health", "hp", CmpOp::kLt, 1.0);
  ASSERT_TRUE(q.Count().ok());
  EXPECT_EQ(planner.field_index_builds(), 2u);
}

TEST_F(PlannerTest, PolicyOffKeepsBuiltInPathButStillExplains) {
  Populate(&world, 2048, 100);
  PlannerOptions opts;
  opts.policy = PlannerPolicy::kOff;
  QueryPlanner planner(&world, opts);
  planner.Analyze();
  DynamicQuery q(&world);
  q.SetPlanner(&planner);
  q.WhereField("Health", "hp", CmpOp::kLt, 1.0);
  ASSERT_TRUE(q.Count().ok());
  // kOff: no plan was fetched for execution...
  EXPECT_EQ(planner.plan_cache_misses() + planner.plan_cache_hits(), 0u);
  // ...but EXPLAIN still shows what kOn would pick.
  auto text = q.Explain();
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("policy is kOff"), std::string::npos);
}

TEST_F(PlannerTest, EdgeCasesMatchUnplannedSemantics) {
  QueryPlanner planner(&world);
  planner.Analyze();

  // Empty world, table never created.
  DynamicQuery q(&world);
  q.SetPlanner(&planner);
  q.With("Health");
  EXPECT_EQ(*q.Count(), 0);

  // All rows filtered out.
  Populate(&world, 64, 100);
  planner.Analyze();
  DynamicQuery q2(&world);
  q2.SetPlanner(&planner);
  q2.WhereField("Health", "hp", CmpOp::kGt, 1e9);
  EXPECT_EQ(*q2.Count(), 0);
  DynamicQuery q3(&world);
  q3.SetPlanner(&planner);
  q3.WhereField("Health", "hp", CmpOp::kGt, 1e9);
  EXPECT_TRUE(q3.Min("Health", "hp").status().IsNotFound());
  DynamicQuery q4(&world);
  q4.SetPlanner(&planner);
  q4.WhereField("Health", "hp", CmpOp::kGt, 1e9);
  EXPECT_DOUBLE_EQ(*q4.Sum("Health", "hp"), 0.0);

  // Unknown names keep erroring identically.
  DynamicQuery q5(&world);
  q5.SetPlanner(&planner);
  q5.With("Bogus");
  EXPECT_TRUE(q5.Count().status().IsNotFound());
}

// The end-to-end determinism proof: a scripted world ticked with the
// planner enabled must be bit-identical to one ticked without it, at any
// thread count.
TEST_F(PlannerTest, ScriptHostWithPlannerIsBitIdenticalToWithout) {
  constexpr char kScript[] = R"(
fn tick(e) {
  let pos = get(e, "Position", "value")
  let nearby = within(pos, 12)
  emit("crowd", e, len(nearby))
  let weak = where("Health", "hp", "<", 15)
  emit("panic", e, len(weak))
}
)";
  auto run = [&](bool use_planner, size_t threads) {
    World w;
    Rng rng(123);
    for (int i = 0; i < 600; ++i) {
      EntityId e = w.Create();
      w.Set(e, Position{{rng.NextFloat(0, 120), 0, rng.NextFloat(0, 120)}});
      w.Set(e, Health{rng.NextFloat(0, 100), 100.0f});
    }
    QueryPlanner planner(&w);
    script::ScriptHostOptions opts;
    opts.num_threads = threads;
    if (use_planner) opts.planner = &planner;
    script::ScriptHost host(&w, opts);
    host.OnChannel("crowd", [&w](EntityId e, double v) {
      w.Patch<Health>(e, [&](Health& h) {
        h.hp = std::max(0.0f, h.hp - float(v) * 0.1f);
      });
    });
    host.OnChannel("panic", [&w](EntityId e, double v) {
      w.Patch<Health>(e, [&](Health& h) {
        h.hp = std::min(h.max_hp, h.hp + float(v) * 0.05f);
      });
    });
    EXPECT_TRUE(host.Load(kScript).ok());
    for (int t = 0; t < 5; ++t) {
      w.AdvanceTick();
      if (use_planner) planner.OnQuiescent();
      auto stats = host.RunTickOver("tick", "Health");
      EXPECT_TRUE(stats.ok());
      EXPECT_EQ(stats->script_errors, 0u) << stats->first_error.ToString();
    }
    std::string snap;
    EncodeWorldSnapshot(w, &snap);
    return snap;
  };

  std::string off1 = run(false, 1);
  std::string on1 = run(true, 1);
  std::string on4 = run(true, 4);
  EXPECT_EQ(off1, on1) << "planner changed scripted results";
  EXPECT_EQ(on1, on4) << "planner broke thread-count determinism";
}

}  // namespace
}  // namespace gamedb::planner
