// LiveView::Recenter under a chase workload: the interest-view center moves
// every tick (the avatar is running) while the underlying rows churn from
// tracked mutations. After every tick's maintenance + recenter, membership,
// iteration order and the maintained aggregate must be bit-identical to a
// from-scratch planner execution at the new center — the scenario harness's
// `chase` scenario leans on exactly this equivalence at full client count.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/query.h"
#include "core/reflect.h"
#include "core/world.h"
#include "planner/planner.h"
#include "views/maintainer.h"

namespace gamedb::views {
namespace {

using planner::QueryPlanner;

constexpr float kArena = 400.0f;
constexpr float kRadius = 60.0f;

class RecenterChaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterStandardComponents();
    planner_ = std::make_unique<QueryPlanner>(&world_);
    catalog_ = std::make_unique<ViewCatalog>(&world_, planner_.get());
    Rng rng(424242);
    for (int i = 0; i < 400; ++i) {
      EntityId e = world_.Create();
      world_.Set(e, Position{{rng.NextFloat(0, kArena), 0,
                              rng.NextFloat(0, kArena)}});
      world_.Set(e, Health{rng.NextFloat(1, 100), 100.0f});
      pool_.push_back(e);
    }
    planner_->Analyze();
  }

  ViewDef InterestDef(const std::string& name, bool with_aggregate) {
    ViewDef def;
    def.name = name;
    def.where = {{"Health", "hp", CmpOp::kGt, 0.0}};
    def.has_near = true;
    def.near = {"Position", "value", {kArena / 2, 0, kArena / 2}, kRadius};
    if (with_aggregate) {
      def.aggregate = AggKind::kAvg;
      def.agg_component = "Health";
      def.agg_field = "hp";
    }
    return def;
  }

  /// Fresh planner execution of `def` with its near-center at `center`.
  std::vector<EntityId> FreshMembers(const ViewDef& def, const Vec3& center) {
    DynamicQuery q(&world_);
    q.SetPlanner(planner_.get());
    for (const auto& w : def.where) {
      q.WhereField(w.component, w.field, w.op, w.rhs);
    }
    q.WithinRadius(def.near.component, def.near.field, center,
                   def.near.radius);
    if (def.aggregate != AggKind::kNone) q.With(def.agg_component);
    auto r = q.Collect();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : std::vector<EntityId>{};
  }

  Result<double> FreshAvg(const ViewDef& def, const Vec3& center) {
    DynamicQuery q(&world_);
    q.SetPlanner(planner_.get());
    for (const auto& w : def.where) {
      q.WhereField(w.component, w.field, w.op, w.rhs);
    }
    q.WithinRadius(def.near.component, def.near.field, center,
                   def.near.radius);
    return q.Avg(def.agg_component, def.agg_field);
  }

  /// Tracked churn: a slice of the pool moves, another slice's hp rewrites
  /// (some rows to 0, killing their predicate match inside the bubble).
  void Churn(Rng& rng) {
    for (int i = 0; i < 40; ++i) {
      EntityId e = pool_[rng.NextBounded(pool_.size())];
      world_.Set(e, Position{{rng.NextFloat(0, kArena), 0,
                              rng.NextFloat(0, kArena)}});
    }
    for (int i = 0; i < 20; ++i) {
      EntityId e = pool_[rng.NextBounded(pool_.size())];
      float hp = rng.NextBool(0.2) ? 0.0f : rng.NextFloat(1, 100);
      world_.Patch<Health>(e, [hp](Health& h) { h.hp = hp; });
    }
  }

  World world_;
  std::unique_ptr<QueryPlanner> planner_;
  std::unique_ptr<ViewCatalog> catalog_;
  std::vector<EntityId> pool_;
};

TEST_F(RecenterChaseTest, PerTickMovingCenterMatchesFreshExecution) {
  ViewDef def = InterestDef("chase_interest", /*with_aggregate=*/false);
  LiveView* view = catalog_->Register(def).value();

  // The avatar sprints on a deterministic zig-zag; every tick the world
  // churns, maintenance runs, then the interest bubble recenters.
  Rng rng(99);
  Vec3 center = def.near.center;
  for (int tick = 0; tick < 60; ++tick) {
    Churn(rng);
    catalog_->Maintain();
    center = {center.x + rng.NextFloat(-25, 25), 0,
              center.z + rng.NextFloat(-25, 25)};
    center.x = std::min(kArena, std::max(0.0f, center.x));
    center.z = std::min(kArena, std::max(0.0f, center.z));
    ASSERT_TRUE(view->Recenter(center).ok());

    EXPECT_EQ(view->Members(), FreshMembers(def, center))
        << "tick " << tick << ": membership diverged from fresh execution";
  }
  EXPECT_GE(view->stats().repopulations, 60u)
      << "every distinct-center Recenter must repopulate";
}

TEST_F(RecenterChaseTest, AggregateTracksTheMovingBubble) {
  ViewDef def = InterestDef("chase_avg", /*with_aggregate=*/true);
  LiveView* view = catalog_->Register(def).value();

  Rng rng(7);
  Vec3 center = def.near.center;
  for (int tick = 0; tick < 40; ++tick) {
    Churn(rng);
    catalog_->Maintain();
    center = {rng.NextFloat(0, kArena), 0, rng.NextFloat(0, kArena)};
    ASSERT_TRUE(view->Recenter(center).ok());

    Result<double> expect = FreshAvg(def, center);
    Result<double> got = view->Aggregate();
    ASSERT_EQ(expect.ok(), got.ok()) << "tick " << tick;
    if (expect.ok()) {
      EXPECT_EQ(*got, *expect)
          << "tick " << tick << ": aggregate diverged at the new center";
    }
  }
}

TEST_F(RecenterChaseTest, SubscribersSeeEnterExitDeltasAcrossRecenters) {
  ViewDef def = InterestDef("chase_subs", /*with_aggregate=*/false);
  LiveView* view = catalog_->Register(def).value();

  // Mirror membership purely from subscription callbacks; it must track
  // real membership through every recenter (Recenter promises diffs, not
  // a silent rebuild).
  std::set<uint64_t> mirror;
  std::set<uint64_t> exited;
  for (EntityId e : view->Members()) mirror.insert(e.Raw());
  view->OnEnter([&](EntityId e) { mirror.insert(e.Raw()); });
  view->OnExit([&](EntityId e) {
    mirror.erase(e.Raw());
    exited.insert(e.Raw());
  });

  Rng rng(31337);
  size_t destroyed = 0;
  for (int tick = 0; tick < 40; ++tick) {
    Churn(rng);
    catalog_->Maintain();
    // Every third tick a member dies between Maintain and Recenter, so the
    // recenter is the first to see it gone.
    EntityId victim;
    if (tick % 3 == 0 && view->size() > 0) {
      const std::vector<EntityId>& members = view->Members();
      victim = members[rng.NextBounded(members.size())];
      world_.Destroy(victim);
      pool_.erase(std::find(pool_.begin(), pool_.end(), victim));
      ++destroyed;
    }
    exited.clear();
    Vec3 center{rng.NextFloat(0, kArena), 0, rng.NextFloat(0, kArena)};
    ASSERT_TRUE(view->Recenter(center).ok());

    std::set<uint64_t> actual;
    for (EntityId e : view->Members()) actual.insert(e.Raw());
    EXPECT_EQ(mirror, actual) << "tick " << tick
                              << ": callback mirror diverged";
    if (victim.valid()) {
      EXPECT_EQ(exited.count(victim.Raw()), 1u)
          << "tick " << tick << ": destroyed member fired no OnExit";
      EXPECT_FALSE(view->Contains(victim)) << "tick " << tick;
    }
  }
  EXPECT_GT(destroyed, 0u);
  EXPECT_GT(view->stats().enters, 0u);
  EXPECT_GT(view->stats().exits, 0u);
}

TEST_F(RecenterChaseTest, UnchangedCenterIsANoOp) {
  ViewDef def = InterestDef("chase_noop", /*with_aggregate=*/false);
  LiveView* view = catalog_->Register(def).value();
  uint64_t before = view->stats().repopulations;
  ASSERT_TRUE(view->Recenter(def.near.center).ok());
  EXPECT_EQ(view->stats().repopulations, before)
      << "same-center Recenter must not repopulate";
}

TEST_F(RecenterChaseTest, RecenterWithoutNearTermFails) {
  ViewDef def;
  def.name = "no_near";
  def.where = {{"Health", "hp", CmpOp::kGt, 0.0}};
  LiveView* view = catalog_->Register(def).value();
  EXPECT_FALSE(view->Recenter({1, 0, 1}).ok());
}

}  // namespace
}  // namespace gamedb::views
