#include "views/view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "planner/planner.h"
#include "script/bindings.h"
#include "script/builtins.h"
#include "script/parser.h"
#include "script/triggers.h"
#include "views/maintainer.h"

namespace gamedb::views {
namespace {

using planner::QueryPlanner;

class LiveViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterStandardComponents();
    planner = std::make_unique<QueryPlanner>(&world);
    catalog = std::make_unique<ViewCatalog>(&world, planner.get());
  }

  EntityId Spawn(float hp, int32_t team = 0) {
    EntityId e = world.Create();
    world.Set(e, Health{hp, 100.0f});
    world.Set(e, Faction{team});
    return e;
  }

  /// The fresh-query twin of a registered view: same construction order.
  std::vector<EntityId> FreshCollect(const ViewDef& def) {
    DynamicQuery q(&world);
    q.SetPlanner(planner.get());
    for (const auto& c : def.with) q.With(c);
    for (const auto& w : def.where) {
      q.WhereField(w.component, w.field, w.op, w.rhs);
    }
    if (def.has_near) {
      q.WithinRadius(def.near.component, def.near.field, def.near.center,
                     def.near.radius);
    }
    if (def.aggregate != AggKind::kNone) q.With(def.agg_component);
    auto r = q.Collect();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : std::vector<EntityId>{};
  }

  World world;
  std::unique_ptr<QueryPlanner> planner;
  std::unique_ptr<ViewCatalog> catalog;
};

TEST_F(LiveViewTest, RegisterValidatesNames) {
  ViewDef unknown;
  unknown.name = "bad";
  unknown.with = {"NoSuchComponent"};
  EXPECT_TRUE(catalog->Register(unknown).status().IsNotFound());

  ViewDef unknown_field;
  unknown_field.name = "bad2";
  unknown_field.where = {{"Health", "no_such_field", CmpOp::kLt, 1.0}};
  EXPECT_TRUE(catalog->Register(unknown_field).status().IsNotFound());

  ViewDef empty;
  empty.name = "empty";
  EXPECT_TRUE(catalog->Register(empty).status().IsInvalidArgument());

  ViewDef nameless;
  nameless.with = {"Health"};
  EXPECT_TRUE(catalog->Register(nameless).status().IsInvalidArgument());

  ViewDef ok;
  ok.name = "wounded";
  ok.where = {{"Health", "hp", CmpOp::kLt, 50.0}};
  ASSERT_TRUE(catalog->Register(ok).ok());
  EXPECT_TRUE(catalog->Register(ok).status().IsInvalidArgument())
      << "duplicate name";
  EXPECT_EQ(catalog->view_count(), 1u);
  EXPECT_NE(catalog->Find("wounded"), nullptr);
  EXPECT_EQ(catalog->Find("nope"), nullptr);
}

TEST_F(LiveViewTest, MembershipFollowsPredicateAcrossMaintenance) {
  EntityId weak = Spawn(10);
  EntityId strong = Spawn(90);

  ViewDef def;
  def.name = "wounded";
  def.where = {{"Health", "hp", CmpOp::kLt, 50.0}};
  auto view_r = catalog->Register(def);
  ASSERT_TRUE(view_r.ok());
  LiveView* view = *view_r;

  // Population through the planner at registration.
  EXPECT_TRUE(view->Contains(weak));
  EXPECT_FALSE(view->Contains(strong));
  EXPECT_EQ(view->size(), 1u);

  std::vector<EntityId> entered, exited, updated;
  view->OnEnter([&](EntityId e) { entered.push_back(e); });
  view->OnExit([&](EntityId e) { exited.push_back(e); });
  view->OnUpdate([&](EntityId e) { updated.push_back(e); });

  // strong drops below the threshold, weak heals above it.
  world.Patch<Health>(strong, [](Health& h) { h.hp = 5; });
  world.Patch<Health>(weak, [](Health& h) { h.hp = 80; });
  catalog->Maintain();

  EXPECT_TRUE(view->Contains(strong));
  EXPECT_FALSE(view->Contains(weak));
  EXPECT_EQ(entered, std::vector<EntityId>{strong});
  EXPECT_EQ(exited, std::vector<EntityId>{weak});
  EXPECT_TRUE(updated.empty());

  // An in-membership write fires update, not enter/exit.
  world.Patch<Health>(strong, [](Health& h) { h.hp = 7; });
  catalog->Maintain();
  EXPECT_EQ(updated, std::vector<EntityId>{strong});
  EXPECT_EQ(entered.size(), 1u);
  EXPECT_EQ(exited.size(), 1u);

  // Destroy removes the member (component erase -> captured removal).
  world.Destroy(strong);
  catalog->Maintain();
  EXPECT_FALSE(view->Contains(strong));
  EXPECT_EQ(exited.back(), strong);
  EXPECT_EQ(view->size(), 0u);
}

TEST_F(LiveViewTest, MembersMatchFreshExecutionOrder) {
  for (int i = 0; i < 64; ++i) Spawn(float(i * 3 % 100), i % 4);
  ViewDef def;
  def.name = "team2";
  def.where = {{"Faction", "team", CmpOp::kEq, int64_t{2}}};
  auto view = catalog->Register(def);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->Members(), FreshCollect(def));

  // Mutate some rows (team churn) and re-check order equivalence.
  int i = 0;
  world.Table<Faction>().ForEach([&](EntityId, Faction& f) {
    if (++i % 3 == 0) f.team = (f.team + 1) % 4;
  });
  // ForEach bypassed tracking on purpose; redo it tracked.
  std::vector<EntityId> all;
  world.Table<Faction>().ForEach(
      [&](EntityId e, const Faction&) { all.push_back(e); });
  for (EntityId e : all) world.Patch<Faction>(e, [](Faction&) {});
  catalog->Maintain();
  EXPECT_EQ((*view)->Members(), FreshCollect(def));
}

TEST_F(LiveViewTest, AggregatesMatchFreshTerminals) {
  for (int i = 0; i < 40; ++i) Spawn(float(i * 7 % 100), i % 2);

  auto reg = [&](const char* name, AggKind kind) {
    ViewDef def;
    def.name = name;
    def.where = {{"Faction", "team", CmpOp::kEq, int64_t{1}}};
    def.aggregate = kind;
    def.agg_component = "Health";
    def.agg_field = "hp";
    auto r = catalog->Register(def);
    EXPECT_TRUE(r.ok());
    return *r;
  };
  LiveView* sum = reg("sum", AggKind::kSum);
  LiveView* avg = reg("avg", AggKind::kAvg);
  LiveView* mn = reg("min", AggKind::kMin);
  LiveView* mx = reg("max", AggKind::kMax);
  LiveView* cnt = reg("count", AggKind::kCount);

  auto fresh = [&](auto terminal) {
    DynamicQuery q(&world);
    q.SetPlanner(planner.get());
    q.WhereField("Faction", "team", CmpOp::kEq, int64_t{1});
    return terminal(q);
  };
  auto check_all = [&]() {
    auto sum_f =
        fresh([](DynamicQuery& q) { return q.Sum("Health", "hp"); });
    ASSERT_TRUE(sum_f.ok());
    EXPECT_EQ(*sum->Aggregate(), *sum_f);  // bit-identical fold
    EXPECT_EQ(*avg->Aggregate(),
              *fresh([](DynamicQuery& q) { return q.Avg("Health", "hp"); }));
    EXPECT_EQ(*mn->Aggregate(),
              *fresh([](DynamicQuery& q) { return q.Min("Health", "hp"); }));
    EXPECT_EQ(*mx->Aggregate(),
              *fresh([](DynamicQuery& q) { return q.Max("Health", "hp"); }));
    // Count() on the fresh query does not require Health; the count view
    // does (its fold would) — compare against a query with Health required.
    DynamicQuery qc(&world);
    qc.SetPlanner(planner.get());
    qc.WhereField("Faction", "team", CmpOp::kEq, int64_t{1});
    qc.With("Health");
    EXPECT_EQ(*cnt->Aggregate(), static_cast<double>(*qc.Count()));
  };
  check_all();

  // Churn: hp writes, team flips, destroys, spawns.
  std::vector<EntityId> all;
  world.Table<Health>().ForEach(
      [&](EntityId e, const Health&) { all.push_back(e); });
  for (size_t i = 0; i < all.size(); i += 3) {
    world.Patch<Health>(all[i], [&](Health& h) { h.hp += float(i % 11); });
  }
  for (size_t i = 0; i < all.size(); i += 5) {
    world.Patch<Faction>(all[i], [](Faction& f) { f.team ^= 1; });
  }
  world.Destroy(all[7]);
  Spawn(33.0f, 1);
  catalog->Maintain();
  check_all();
}

TEST_F(LiveViewTest, EmptyAggregateMirrorsFreshNotFound) {
  ViewDef def;
  def.name = "empty_min";
  def.where = {{"Health", "hp", CmpOp::kLt, -1.0}};  // matches nothing
  def.aggregate = AggKind::kMin;
  def.agg_component = "Health";
  def.agg_field = "hp";
  auto view = catalog->Register(def);
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE((*view)->Aggregate().status().IsNotFound());

  ViewDef plain;
  plain.name = "plain";
  plain.with = {"Health"};
  auto pv = catalog->Register(plain);
  ASSERT_TRUE(pv.ok());
  EXPECT_TRUE((*pv)->Aggregate().status().IsNotSupported());
}

TEST_F(LiveViewTest, RadiusViewReprobesOnlyMovedEntities) {
  std::vector<EntityId> es;
  for (int i = 0; i < 50; ++i) {
    EntityId e = world.Create();
    world.Set(e, Position{{float(i), 0, 0}});
    es.push_back(e);
  }
  ViewDef def;
  def.name = "near_origin";
  def.has_near = true;
  def.near = {"Position", "value", {0, 0, 0}, 10.0f};
  auto view_r = catalog->Register(def);
  ASSERT_TRUE(view_r.ok());
  LiveView* view = *view_r;
  EXPECT_EQ(view->size(), 11u);  // x = 0..10 inclusive

  uint64_t before = view->stats().reevaluated;
  // Move exactly two entities: one out of range, one into range.
  world.Patch<Position>(es[5], [](Position& p) { p.value.x = 100; });
  world.Patch<Position>(es[20], [](Position& p) { p.value.x = 3; });
  catalog->Maintain();
  EXPECT_FALSE(view->Contains(es[5]));
  EXPECT_TRUE(view->Contains(es[20]));
  // Incrementality: only the two moved entities were re-evaluated, not the
  // whole Position table.
  EXPECT_EQ(view->stats().reevaluated - before, 2u);
  EXPECT_EQ(view->Members(), FreshCollect(def));
}

TEST_F(LiveViewTest, WatchViewFiresGslHandlersOnMembershipChanges) {
  using script::Interpreter;
  using script::Parse;
  using script::TriggerSystem;

  EntityId e = Spawn(80);

  ViewDef def;
  def.name = "wounded";
  def.where = {{"Health", "hp", CmpOp::kLt, 50.0}};
  auto view = catalog->Register(def);
  ASSERT_TRUE(view.ok());

  Interpreter interp;
  script::RegisterCoreBuiltins(&interp);
  auto parsed = Parse(
      "let entered = 0\nlet exited = 0\nlet last = nil\n"
      "on view_enter(e) { entered = entered + 1 last = e }\n"
      "on view_exit(e) { exited = exited + 1 }");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(interp.Load(std::move(*parsed)).ok());
  TriggerSystem triggers(&interp);
  triggers.WatchView(*view, "view_enter", "view_exit");

  world.Patch<Health>(e, [](Health& h) { h.hp = 10; });
  catalog->Maintain();  // enqueues view_enter(e)
  ASSERT_TRUE(triggers.Pump().ok());
  EXPECT_DOUBLE_EQ(interp.GetGlobal("entered")->AsNumber(), 1.0);
  EXPECT_EQ(interp.GetGlobal("last")->AsEntity(), e);

  world.Patch<Health>(e, [](Health& h) { h.hp = 99; });
  catalog->Maintain();
  ASSERT_TRUE(triggers.Pump().ok());
  EXPECT_DOUBLE_EQ(interp.GetGlobal("exited")->AsNumber(), 1.0);
}

TEST_F(LiveViewTest, ViewBuiltinsReadTheCatalog) {
  using script::Interpreter;
  using script::Parse;
  using script::Value;

  EntityId weak = Spawn(10);
  Spawn(90);

  ViewDef def;
  def.name = "wounded";
  def.where = {{"Health", "hp", CmpOp::kLt, 50.0}};
  def.aggregate = AggKind::kSum;
  def.agg_component = "Health";
  def.agg_field = "hp";
  ASSERT_TRUE(catalog->Register(def).ok());

  Interpreter interp;
  script::RegisterCoreBuiltins(&interp);
  script::BindViews(&interp, catalog.get());
  auto parsed = Parse(
      "fn n() { return view_count(\"wounded\") }\n"
      "fn have(e) { return view_contains(\"wounded\", e) }\n"
      "fn first() { return at(view_members(\"wounded\"), 0) }\n"
      "fn total() { return view_aggregate(\"wounded\") }\n"
      "fn missing() { return view_count(\"nope\") }");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(interp.Load(std::move(*parsed)).ok());

  auto n = interp.Call("n", {});
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_DOUBLE_EQ(n->AsNumber(), 1.0);
  auto have = interp.Call("have", {Value(weak)});
  ASSERT_TRUE(have.ok());
  EXPECT_TRUE(have->AsBool());
  auto first = interp.Call("first", {});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->AsEntity(), weak);
  auto total = interp.Call("total", {});
  ASSERT_TRUE(total.ok());
  EXPECT_DOUBLE_EQ(total->AsNumber(), 10.0);
  EXPECT_TRUE(interp.Call("missing", {}).status().IsNotFound());
}

}  // namespace
}  // namespace gamedb::views
