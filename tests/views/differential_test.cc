// The LiveView correctness harness: randomized mutation storms with the
// differential oracle "after maintenance, every view's membership, order
// and aggregate are bit-identical to a from-scratch planner execution of
// the same query". Covers the sequential direct-mutation path (planner on
// AND off — delta maintenance must not care how queries execute) and the
// ScriptHost path at 1 and 4 threads (deferred mutations, views maintained
// at the host's quiescent point). A two-catalog storm checks that every
// catalog sees every delta.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "planner/planner.h"
#include "script/host.h"
#include "views/maintainer.h"

namespace gamedb::views {
namespace {

using planner::PlannerOptions;
using planner::PlannerPolicy;
using planner::QueryPlanner;

/// World + planner + catalog with a representative set of registered views:
/// predicate-only, multi-table join, proximity, and every aggregate kind.
class Harness {
 public:
  explicit Harness(PlannerPolicy policy) {
    RegisterStandardComponents();
    PlannerOptions opts;
    opts.policy = policy;
    planner_ = std::make_unique<QueryPlanner>(&world_, opts);
    catalog_ = std::make_unique<ViewCatalog>(&world_, planner_.get());

    Add([] {
      ViewDef d;
      d.name = "wounded";
      d.where = {{"Health", "hp", CmpOp::kLt, 50.0}};
      return d;
    }());
    Add([] {
      ViewDef d;
      d.name = "team1_hp";
      d.where = {{"Faction", "team", CmpOp::kEq, int64_t{1}}};
      d.aggregate = AggKind::kSum;
      d.agg_component = "Health";
      d.agg_field = "hp";
      return d;
    }());
    Add([] {
      ViewDef d;
      d.name = "nearby_sturdy";
      d.where = {{"Health", "hp", CmpOp::kGe, 20.0}};
      d.has_near = true;
      d.near = {"Position", "value", {50, 0, 50}, 30.0f};
      d.aggregate = AggKind::kCount;
      d.agg_component = "Health";
      d.agg_field = "hp";
      return d;
    }());
    Add([] {
      ViewDef d;
      d.name = "richest";
      d.with = {"Actor"};
      d.aggregate = AggKind::kMax;
      d.agg_component = "Actor";
      d.agg_field = "gold";
      return d;
    }());
    Add([] {
      ViewDef d;
      d.name = "placed_avg_hp";
      d.with = {"Position"};
      d.aggregate = AggKind::kAvg;
      d.agg_component = "Health";
      d.agg_field = "hp";
      return d;
    }());
    Add([] {
      ViewDef d;
      d.name = "nonteam3_min";
      d.where = {{"Faction", "team", CmpOp::kNe, int64_t{3}}};
      d.aggregate = AggKind::kMin;
      d.agg_component = "Health";
      d.agg_field = "hp";
      return d;
    }());
  }

  World& world() { return world_; }
  ViewCatalog& catalog() { return *catalog_; }
  /// A second catalog over the same World with the same definitions; its
  /// views join the oracle's checks.
  ViewCatalog& AddSecondCatalog() {
    second_ = std::make_unique<ViewCatalog>(&world_, planner_.get());
    for (const ViewDef& def : defs_) {
      auto r = second_->Register(def);
      GAMEDB_CHECK(r.ok());
      views_.push_back(*r);
    }
    return *second_;
  }
  QueryPlanner& planner() { return *planner_; }
  const std::vector<LiveView*>& views() const { return views_; }

  EntityId Spawn(Rng& rng) {
    EntityId e = world_.Create();
    world_.Set(e, Health{rng.NextFloat(0, 100), 100.0f});
    world_.Set(e, Faction{int32_t(rng.NextInt(0, 3))});
    if (rng.NextBool(0.8)) {
      world_.Set(e, Position{{rng.NextFloat(0, 100), 0,
                              rng.NextFloat(0, 100)}});
    }
    if (rng.NextBool(0.3)) {
      world_.Set(e, Actor{rng.NextInt(0, 1000), rng.NextInt(0, 500), 1,
                          false});
    }
    live_.push_back(e);
    return e;
  }

  /// One tick of randomized churn: spawns, destroys, field writes,
  /// movement, component add/remove — all tracked mutations.
  void StormTick(Rng& rng) {
    world_.AdvanceTick();
    const size_t ops = 30;
    for (size_t i = 0; i < ops; ++i) {
      if (live_.empty()) {
        Spawn(rng);
        continue;
      }
      EntityId e = live_[rng.NextU64() % live_.size()];
      switch (rng.NextInt(0, 9)) {
        case 0:
          Spawn(rng);
          break;
        case 1: {
          // Destroy (swap-remove from the pool).
          size_t idx = rng.NextU64() % live_.size();
          EntityId victim = live_[idx];
          live_[idx] = live_.back();
          live_.pop_back();
          world_.Destroy(victim);
          break;
        }
        case 2:
        case 3:
        case 4:
          world_.Patch<Health>(
              e, [&](Health& h) { h.hp = rng.NextFloat(0, 100); });
          break;
        case 5:
        case 6:
          if (world_.Has<Position>(e)) {
            // 5% of moves write a NaN z: inside no radius, however the
            // query runs.
            const bool nan_z = rng.NextBool(0.05);
            world_.Patch<Position>(e, [&](Position& p) {
              p.value.x += rng.NextFloat(-15, 15);
              p.value.z += rng.NextFloat(-15, 15);
              if (nan_z) p.value.z = std::numeric_limits<float>::quiet_NaN();
            });
          } else {
            world_.Set(e, Position{{rng.NextFloat(0, 100), 0,
                                    rng.NextFloat(0, 100)}});
          }
          break;
        case 7:
          if (world_.Has<Faction>(e)) {
            world_.Remove<Faction>(e);
          } else {
            world_.Set(e, Faction{int32_t(rng.NextInt(0, 3))});
          }
          break;
        case 8:
          if (world_.Has<Actor>(e)) {
            world_.Patch<Actor>(
                e, [&](Actor& a) { a.gold = rng.NextInt(0, 500); });
          } else {
            world_.Set(e, Actor{rng.NextInt(0, 1000), rng.NextInt(0, 500),
                                1, false});
          }
          break;
        case 9:
          world_.Remove<Health>(e);
          world_.Set(e, Health{rng.NextFloat(0, 100), 100.0f});
          break;
      }
    }
  }

  /// The differential oracle. `where` labels failures.
  void CheckAll(const std::string& where) {
    for (LiveView* v : views_) {
      // Membership and order vs a from-scratch planner execution.
      DynamicQuery q(&world_);
      q.SetPlanner(planner_.get());
      BuildShape(v->def(), &q);
      auto fresh = q.Collect();
      ASSERT_TRUE(fresh.ok()) << where << " " << v->name();
      EXPECT_EQ(v->Members(), *fresh)
          << where << ": view '" << v->name()
          << "' diverged from fresh execution";
      EXPECT_EQ(v->size(), fresh->size()) << where << " " << v->name();

      // Aggregate vs the equivalent fresh terminal, bit for bit.
      if (v->def().aggregate == AggKind::kNone) continue;
      DynamicQuery qa(&world_);
      qa.SetPlanner(planner_.get());
      BuildShape(v->def(), &qa, /*add_agg_component=*/false);
      Result<double> expect = RunTerminal(v->def(), &qa);
      Result<double> got = v->Aggregate();
      ASSERT_EQ(expect.ok(), got.ok())
          << where << " " << v->name() << ": "
          << (expect.ok() ? got.status() : expect.status()).ToString();
      if (expect.ok()) {
        EXPECT_EQ(*got, *expect)
            << where << ": aggregate of '" << v->name() << "' diverged";
      }
    }
  }

 private:
  void Add(ViewDef def) {
    defs_.push_back(def);
    auto r = catalog_->Register(std::move(def));
    GAMEDB_CHECK(r.ok());
    views_.push_back(*r);
  }

  /// Rebuilds the view's query with DynamicQuery's construction order.
  static void BuildShape(const ViewDef& def, DynamicQuery* q,
                         bool add_agg_component = true) {
    for (const auto& c : def.with) q->With(c);
    for (const auto& w : def.where) {
      q->WhereField(w.component, w.field, w.op, w.rhs);
    }
    if (def.has_near) {
      q->WithinRadius(def.near.component, def.near.field, def.near.center,
                      def.near.radius);
    }
    if (def.aggregate != AggKind::kNone && add_agg_component) {
      q->With(def.agg_component);
    }
  }

  static Result<double> RunTerminal(const ViewDef& def, DynamicQuery* q) {
    switch (def.aggregate) {
      case AggKind::kCount: {
        // Count does not fold the field, but the view requires the
        // aggregated component; mirror that.
        q->With(def.agg_component);
        auto n = q->Count();
        if (!n.ok()) return n.status();
        return static_cast<double>(*n);
      }
      case AggKind::kSum:
        return q->Sum(def.agg_component, def.agg_field);
      case AggKind::kAvg:
        return q->Avg(def.agg_component, def.agg_field);
      case AggKind::kMin:
        return q->Min(def.agg_component, def.agg_field);
      case AggKind::kMax:
        return q->Max(def.agg_component, def.agg_field);
      case AggKind::kNone:
        break;
    }
    return Status::InvalidArgument("no aggregate");
  }

  World world_;
  std::unique_ptr<QueryPlanner> planner_;
  std::unique_ptr<ViewCatalog> catalog_;
  std::unique_ptr<ViewCatalog> second_;
  std::vector<ViewDef> defs_;
  std::vector<LiveView*> views_;
  std::vector<EntityId> live_;
};

class DifferentialTest : public ::testing::TestWithParam<PlannerPolicy> {};

// Acceptance: >= 100 ticks of randomized spawn/destroy/field-write/movement
// storms; every registered view stays bit-identical to its from-scratch
// execution. Runs with the planner on and off — maintenance consumes the
// same change capture either way.
TEST_P(DifferentialTest, StormStaysBitIdenticalToFreshExecution) {
  Harness h(GetParam());
  Rng rng(20260726);
  for (int i = 0; i < 40; ++i) h.Spawn(rng);
  h.planner().Analyze();
  h.catalog().Maintain();  // absorb the post-registration spawns
  h.CheckAll("initial");
  for (int tick = 1; tick <= 120; ++tick) {
    h.StormTick(rng);
    h.catalog().Maintain();
    h.CheckAll("tick " + std::to_string(tick));
    if (HasFatalFailure()) return;
  }
}

// Two catalogs with the same definitions on one World, maintained in
// alternating order, with an external change-log reader between their
// rounds: each reads through its own cursor, so every view of both stays
// bit-identical to fresh execution every tick.
TEST_P(DifferentialTest, TwoCatalogStormStaysBitIdenticalToFreshExecution) {
  Harness h(GetParam());
  ViewCatalog& second = h.AddSecondCatalog();
  ChangeLog& health = h.world().Table<Health>().changes();
  ChangeLog::Cursor external = health.Open();
  ChangeSet seen;
  Rng rng(20260727);
  for (int i = 0; i < 40; ++i) h.Spawn(rng);
  h.planner().Analyze();
  for (int tick = 1; tick <= 120; ++tick) {
    h.StormTick(rng);
    ViewCatalog& first_round = tick % 2 == 0 ? h.catalog() : second;
    ViewCatalog& second_round = tick % 2 == 0 ? second : h.catalog();
    first_round.Maintain();
    health.Read(external, &seen);
    second_round.Maintain();
    h.CheckAll("tick " + std::to_string(tick));
    if (HasFatalFailure()) break;
  }
  EXPECT_EQ(h.catalog().stats().change_records,
            second.stats().change_records);
  health.Close(external);
}

INSTANTIATE_TEST_SUITE_P(Policies, DifferentialTest,
                         ::testing::Values(PlannerPolicy::kOn,
                                           PlannerPolicy::kOff),
                         [](const auto& info) {
                           return info.param == PlannerPolicy::kOn
                                      ? "PlannerOn"
                                      : "PlannerOff";
                         });

// Same storm, two harnesses, planner on vs off: view contents must be
// identical tick for tick (the change log and maintenance cannot depend on
// how population queries execute).
TEST(DifferentialCrossTest, PlannerOnAndOffSeeIdenticalViews) {
  Harness on(PlannerPolicy::kOn);
  Harness off(PlannerPolicy::kOff);
  Rng rng_on(7), rng_off(7);
  for (int i = 0; i < 40; ++i) {
    on.Spawn(rng_on);
    off.Spawn(rng_off);
  }
  for (int tick = 1; tick <= 60; ++tick) {
    on.StormTick(rng_on);
    off.StormTick(rng_off);
    on.catalog().Maintain();
    off.catalog().Maintain();
    for (size_t v = 0; v < on.views().size(); ++v) {
      EXPECT_EQ(on.views()[v]->Members(), off.views()[v]->Members())
          << "tick " << tick << " view " << on.views()[v]->name();
    }
  }
}

// The scripted path: deferred mutations from a parallel query phase, views
// maintained at the tick's sequential point, before the host runs. 1 and 4
// threads (acceptance).
class HostDifferentialTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HostDifferentialTest, ScriptedStormStaysBitIdentical) {
  Harness h(PlannerPolicy::kOn);
  Rng rng(42);
  for (int i = 0; i < 150; ++i) h.Spawn(rng);
  h.planner().Analyze();

  script::ScriptHostOptions opts;
  opts.num_threads = GetParam();
  opts.planner = &h.planner();
  opts.views = &h.catalog();
  script::ScriptHost host(&h.world(), opts);
  // Per-entity churn: hp rewrites every tick, movement for ~30%, a 1%
  // deferred destroy. random() streams are per-entity-seeded, so the world
  // evolves identically at any thread count.
  Status load = host.Load(
      "fn tick(e) {\n"
      "  set(e, \"Health\", \"hp\", floor(random() * 100))\n"
      "  if has(e, \"Position\") {\n"
      "    if random() < 0.3 {\n"
      "      set(e, \"Position\", \"value\",\n"
      "          vec3(random() * 100, 0, random() * 100))\n"
      "    }\n"
      "  }\n"
      "  if random() < 0.01 { destroy(e) }\n"
      "}\n");
  ASSERT_TRUE(load.ok()) << load.ToString();

  for (int tick = 1; tick <= 100; ++tick) {
    h.world().AdvanceTick();
    h.planner().OnQuiescent();
    h.catalog().Maintain();
    auto stats = host.RunTickOver("tick", "Health");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->script_errors, 0u) << stats->first_error.ToString();
    // Top up what the storm destroyed (host-side spawns, tracked).
    h.Spawn(rng);
    if (tick % 5 == 0) {
      h.catalog().Maintain();  // quiescent point for the comparison
      h.CheckAll("host tick " + std::to_string(tick));
      if (HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, HostDifferentialTest,
                         ::testing::Values(size_t{1}, size_t{4}),
                         [](const auto& info) {
                           return "threads_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace gamedb::views
