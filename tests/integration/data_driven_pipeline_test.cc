// Integration: the full data-driven content pipeline — XML prefabs spawn
// entities, a GSL script (at the designer restriction level) drives their
// behavior through declarative queries and state-effect emissions, and
// triggers cascade — exactly the authoring stack the tutorial describes.

#include <gtest/gtest.h>

#include "content/prefab.h"
#include "core/aggregate.h"
#include "script/bindings.h"
#include "script/builtins.h"
#include "script/parser.h"
#include "script/triggers.h"

namespace gamedb {
namespace {

constexpr char kPrefabs[] = R"(
<Prefabs>
  <Prefab name="grunt">
    <Component type="Health" hp="30" max_hp="30"/>
    <Component type="Position" value="0,0,0"/>
    <Component type="Faction" team="2"/>
    <Component type="Combat" attack="4" range="3"/>
  </Prefab>
  <Prefab name="champion" extends="grunt">
    <Component type="Health" hp="90" max_hp="90"/>
    <Component type="Combat" attack="10" range="3"/>
  </Prefab>
</Prefabs>)";

// Declarative-restriction script: no loops, no recursion — everything bulk
// goes through aggregate builtins.
constexpr char kBehavior[] = R"(
fn focus_fire(team) {
  let victim = argmin("Health", "hp")
  if victim == nil { return nil }
  emit("damage", victim, sum("Combat", "attack"))
  return victim
}

on victim_down(e) {
  fire("cheer")
}

on cheer() {
  print("victory cry")
}
)";

TEST(DataDrivenPipelineTest, PrefabsScriptEffectsAndTriggersCompose) {
  RegisterStandardComponents();
  World world;

  auto prefabs = content::PrefabLibrary::Load(kPrefabs);
  ASSERT_TRUE(prefabs.ok()) << prefabs.status().ToString();
  std::vector<EntityId> squad;
  for (int i = 0; i < 4; ++i) {
    auto e = prefabs->Instantiate(&world, "grunt");
    ASSERT_TRUE(e.ok());
    squad.push_back(*e);
  }
  auto champ = prefabs->Instantiate(&world, "champion");
  ASSERT_TRUE(champ.ok());

  // The squad's total attack is queryable before any scripting.
  DynamicQuery q(&world);
  auto total_attack = q.Sum("Combat", "attack");
  ASSERT_TRUE(total_attack.ok());
  EXPECT_DOUBLE_EQ(*total_attack, 4 * 4 + 10);

  // Boot a *declarative-restricted* interpreter: the script must load.
  script::InterpreterOptions opts;
  opts.restriction = script::Restriction::kDeclarative;
  script::Interpreter interp(opts);
  script::RegisterCoreBuiltins(&interp);
  script::ScriptEffects effects(1);
  script::BindWorld(&interp, &world, &effects);
  script::TriggerSystem triggers(&interp);
  triggers.InstallFireBuiltin();

  auto parsed = script::Parse(kBehavior);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(interp.Load(std::move(*parsed)).ok());

  // One scripted focus-fire round: weakest (a grunt at 30) takes 26.
  auto victim = interp.Call("focus_fire", {script::Value(2.0)});
  ASSERT_TRUE(victim.ok()) << victim.status().ToString();
  ASSERT_TRUE(victim->IsEntity());

  // Effects are deferred until the host drains them.
  EXPECT_FLOAT_EQ(world.Get<Health>(victim->AsEntity())->hp, 30);
  int applied = 0;
  effects.Drain("damage", [&](EntityId e, double amount) {
    EXPECT_DOUBLE_EQ(amount, 26.0);
    world.Patch<Health>(e, [&](Health& h) { h.hp -= float(amount); });
    ++applied;
    if (world.Get<Health>(e)->hp <= 0) {
      triggers.Fire("victim_down", {script::Value(e)});
    }
  });
  EXPECT_EQ(applied, 1);
  EXPECT_FLOAT_EQ(world.Get<Health>(victim->AsEntity())->hp, 4);

  // Round two kills it and the trigger cascade fires (down -> cheer).
  ASSERT_TRUE(interp.Call("focus_fire", {script::Value(2.0)}).ok());
  effects.Drain("damage", [&](EntityId e, double amount) {
    world.Patch<Health>(e, [&](Health& h) { h.hp -= float(amount); });
    if (world.Get<Health>(e)->hp <= 0) {
      triggers.Fire("victim_down", {script::Value(e)});
    }
  });
  ASSERT_TRUE(triggers.Pump().ok());
  ASSERT_EQ(interp.output().size(), 1u);
  EXPECT_EQ(interp.output()[0], "victory cry");
  EXPECT_EQ(triggers.stats().handled, 2u);  // victim_down + cheer
}

TEST(DataDrivenPipelineTest, LoopScriptRejectedWhereDeclarativeLoads) {
  // The governance story in one test: identical behavior, two phrasings,
  // one restriction level.
  RegisterStandardComponents();
  World world;
  script::InterpreterOptions opts;
  opts.restriction = script::Restriction::kDeclarative;
  script::Interpreter interp(opts);
  script::RegisterCoreBuiltins(&interp);
  script::BindWorld(&interp, &world, nullptr);

  auto loop_version = script::Parse(R"(
    fn weakest() {
      let best = nil
      foreach e in entities_with("Health") { best = e }
      return best
    })");
  ASSERT_TRUE(loop_version.ok());
  Status st = interp.Load(std::move(*loop_version));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("iteration"), std::string::npos);

  auto declarative_version = script::Parse(
      "fn weakest() { return argmin(\"Health\", \"hp\") }");
  ASSERT_TRUE(declarative_version.ok());
  EXPECT_TRUE(interp.Load(std::move(*declarative_version)).ok());
}

TEST(DataDrivenPipelineTest, ScriptWritesFeedMaintainedAggregates) {
  // Script set() -> PatchRaw -> change log: the aggregate index a designer
  // dashboard reads stays exact while scripts mutate state.
  RegisterStandardComponents();
  World world;
  auto prefabs = content::PrefabLibrary::Load(kPrefabs);
  ASSERT_TRUE(prefabs.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(prefabs->Instantiate(&world, "grunt").ok());
  }
  SumAggregate<Health> total(world, [](const Health& h) { return h.hp; });
  EXPECT_DOUBLE_EQ(total.sum(), 90.0);

  script::Interpreter interp;
  script::RegisterCoreBuiltins(&interp);
  script::BindWorld(&interp, &world, nullptr);
  auto parsed = script::Parse(R"(
    foreach e in entities_with("Health") {
      set(e, "Health", "hp", get(e, "Health", "hp") - 10)
    })");
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(interp.Load(std::move(*parsed)).ok());
  EXPECT_DOUBLE_EQ(total.sum(), 60.0);
}

}  // namespace
}  // namespace gamedb
