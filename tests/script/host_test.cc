#include "script/host.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/aggregate.h"
#include "core/serialize.h"

namespace gamedb::script {
namespace {

// Per-entity behavior with every parallel-host concern in it: effect
// emission, a per-entity random() stream, a read of another entity's
// tick-start state, and a deferred field write.
constexpr char kPackScript[] = R"(
fn tick(e) {
  let t = get(e, "Combat", "target")
  if is_alive(t) {
    emit("damage", t, get(e, "Combat", "attack"))
  }
  emit("regen", e, 1 + random() * 2)
  if get(e, "Health", "hp") > 90 {
    set(e, "Health", "hp", 90)
  }
}
)";

class ScriptHostTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterStandardComponents(); }

  // Deterministic world: a ring of n fighters, each targeting the next.
  static std::vector<EntityId> BuildRing(World* world, size_t n) {
    std::vector<EntityId> ids;
    ids.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      EntityId e = world->Create();
      ids.push_back(e);
      world->Set(e, Health{30.0f + float(i % 50), 100.0f});
      Combat c;
      c.attack = 1.0f + float(i % 7);
      world->Set(e, c);
      world->Set(e, Faction{int32_t(i)});
    }
    for (size_t i = 0; i < n; ++i) {
      world->Patch<Combat>(ids[i], [&](Combat& c) {
        c.target = ids[(i + 1) % n];
      });
    }
    return ids;
  }

  // Wires the standard damage/regen channels onto a host.
  static void WireCombatChannels(ScriptHost* host, World* world) {
    host->OnChannel("damage", [world](EntityId e, double total) {
      bool dead = false;
      world->Patch<Health>(e, [&](Health& h) {
        h.hp -= float(total);
        dead = h.hp <= 0.0f;
      });
      if (dead) world->Destroy(e);
    });
    host->OnChannel("regen", [world](EntityId e, double total) {
      world->Patch<Health>(e, [&](Health& h) {
        h.hp = std::min(h.hp + float(total), h.max_hp);
      });
    });
  }

  // Runs the pack simulation for `ticks` ticks at `threads` threads and
  // returns the serialized end state.
  static std::string RunPackSim(size_t threads, size_t ticks, size_t n) {
    World world;
    BuildRing(&world, n);
    ScriptHostOptions opts;
    opts.num_threads = threads;
    ScriptHost host(&world, opts);
    WireCombatChannels(&host, &world);
    EXPECT_TRUE(host.Load(kPackScript).ok());
    for (size_t t = 0; t < ticks && world.AliveCount() > 0; ++t) {
      world.AdvanceTick();
      auto stats = host.RunTickOver("tick", "Combat");
      EXPECT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(stats->script_errors, 0u) << stats->first_error.ToString();
    }
    std::string snapshot;
    EncodeWorldSnapshot(world, &snapshot);
    return snapshot;
  }
};

// The acceptance-criteria determinism proof: the same scripted world run
// 100 ticks at 1, 2, and 8 threads ends in bit-identical serialized state.
TEST_F(ScriptHostTest, Deterministic100TicksAt1And2And8Threads) {
  std::string one = RunPackSim(1, 100, 128);
  std::string two = RunPackSim(2, 100, 128);
  std::string eight = RunPackSim(8, 100, 128);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

// Deferred writes + tick-start reads give simultaneous-update semantics: a
// mutual hp swap. A host that let set() write through during the tick would
// produce (20, 20) here instead.
TEST_F(ScriptHostTest, QueryPhaseReadsTickStartState) {
  World world;
  std::vector<EntityId> ids = BuildRing(&world, 2);
  world.Patch<Health>(ids[0], [](Health& h) { h.hp = 10; });
  world.Patch<Health>(ids[1], [](Health& h) { h.hp = 20; });
  ScriptHost host(&world, {});
  ASSERT_TRUE(host
                  .Load("fn tick(e) {\n"
                        "  let t = get(e, \"Combat\", \"target\")\n"
                        "  set(e, \"Health\", \"hp\", get(t, \"Health\", "
                        "\"hp\"))\n"
                        "}")
                  .ok());
  auto stats = host.RunTick("tick", ids);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->script_errors, 0u) << stats->first_error.ToString();
  EXPECT_EQ(stats->deferred_ops, 2u);
  EXPECT_FLOAT_EQ(world.Get<Health>(ids[0])->hp, 20.0f);
  EXPECT_FLOAT_EQ(world.Get<Health>(ids[1])->hp, 10.0f);
}

// random() streams are seeded per entity, so the values an entity draws do
// not depend on which shard it landed in.
TEST_F(ScriptHostTest, PerEntityRngStreamsAreShardingIndependent) {
  auto collect = [](size_t threads) {
    World world;
    std::vector<EntityId> ids = ScriptHostTest::BuildRing(&world, 64);
    ScriptHostOptions opts;
    opts.num_threads = threads;
    ScriptHost host(&world, opts);
    std::unordered_map<EntityId, double> drawn;
    host.OnChannel("r", [&drawn](EntityId e, double v) { drawn[e] = v; });
    EXPECT_TRUE(
        host.Load("fn tick(e) { emit(\"r\", e, random()) }").ok());
    world.AdvanceTick();
    auto stats = host.RunTick("tick", ids);
    EXPECT_TRUE(stats.ok());
    return drawn;
  };
  auto seq = collect(1);
  auto par = collect(4);
  ASSERT_EQ(seq.size(), 64u);
  ASSERT_EQ(par.size(), 64u);
  for (const auto& [e, v] : seq) {
    ASSERT_TRUE(par.count(e));
    EXPECT_DOUBLE_EQ(par[e], v) << e.ToString();
  }
}

TEST_F(ScriptHostTest, RejectPolicyFailsMutationsWithClearError) {
  World world;
  std::vector<EntityId> ids = BuildRing(&world, 4);
  ScriptHostOptions opts;
  opts.num_threads = 2;
  opts.mutations = MutationPolicy::kReject;
  ScriptHost host(&world, opts);
  ASSERT_TRUE(
      host.Load("fn tick(e) { set(e, \"Health\", \"hp\", 1) }").ok());
  auto stats = host.RunTick("tick", ids);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->script_errors, 4u);
  EXPECT_TRUE(stats->first_error.IsNotSupported());
  EXPECT_NE(stats->first_error.ToString().find("read-only"),
            std::string::npos)
      << stats->first_error.ToString();
  // Nothing was written.
  EXPECT_FLOAT_EQ(world.Get<Health>(ids[0])->hp, 30.0f);
}

TEST_F(ScriptHostTest, SpawnIsRejectedDuringQueryPhase) {
  World world;
  std::vector<EntityId> ids = BuildRing(&world, 2);
  ScriptHost host(&world, {});
  ASSERT_TRUE(host.Load("fn tick(e) { spawn() }").ok());
  auto stats = host.RunTick("tick", ids);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->script_errors, 2u);
  EXPECT_TRUE(stats->first_error.IsNotSupported());
  EXPECT_EQ(world.AliveCount(), 2u);  // no entity appeared
}

// A deferred destroy earlier in entity order invalidates a later deferred
// set on the same entity; the set is skipped and counted, not applied to a
// corpse and not an error.
TEST_F(ScriptHostTest, DeferredOpsInvalidatedByEarlierDestroyAreSkipped) {
  World world;
  std::vector<EntityId> ids = BuildRing(&world, 2);
  ScriptHost host(&world, {});
  // Entity 0 destroys its target (entity 1); entity 1 sets its own hp.
  ASSERT_TRUE(host
                  .Load("fn tick(e) {\n"
                        "  if get(e, \"Faction\", \"team\") == 0 {\n"
                        "    destroy(get(e, \"Combat\", \"target\"))\n"
                        "  }\n"
                        "  if get(e, \"Faction\", \"team\") == 1 {\n"
                        "    set(e, \"Health\", \"hp\", 55)\n"
                        "  }\n"
                        "}")
                  .ok());
  auto stats = host.RunTick("tick", ids);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->script_errors, 0u) << stats->first_error.ToString();
  EXPECT_EQ(stats->deferred_ops, 2u);
  EXPECT_EQ(stats->deferred_skipped, 1u);  // the set lost to the destroy
  EXPECT_FALSE(world.Alive(ids[1]));
}

TEST_F(ScriptHostTest, ContributionsToUnwiredChannelsAreDroppedAndCounted) {
  World world;
  std::vector<EntityId> ids = BuildRing(&world, 3);
  ScriptHost host(&world, {});
  ASSERT_TRUE(host.Load("fn tick(e) { emit(\"nobody_home\", e, 1) }").ok());
  auto stats = host.RunTick("tick", ids);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->effect_contributions, 3u);
  EXPECT_EQ(stats->dropped_contributions, 3u);
}

TEST_F(ScriptHostTest, ScriptErrorReportedIsEarliestInEntityOrder) {
  World world;
  std::vector<EntityId> ids = BuildRing(&world, 64);
  ScriptHostOptions opts;
  opts.num_threads = 4;
  ScriptHost host(&world, opts);
  host.OnChannel("ok", [](EntityId, double) {});
  // Entities with team 17 and 40 fail; everyone else emits.
  ASSERT_TRUE(host
                  .Load("fn tick(e) {\n"
                        "  let team = get(e, \"Faction\", \"team\")\n"
                        "  if team == 17 { let x = 1 / 0 }\n"
                        "  if team == 40 { let y = 1 / 0 }\n"
                        "  emit(\"ok\", e, 1)\n"
                        "}")
                  .ok());
  auto stats = host.RunTick("tick", ids);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->script_errors, 2u);
  // Division by zero from line 3 (entity 17), not line 4 (entity 40).
  EXPECT_NE(stats->first_error.ToString().find("line 3"), std::string::npos)
      << stats->first_error.ToString();
  // The failing entities still count toward the tick; others applied.
  EXPECT_EQ(stats->effect_contributions, 62u);
}

TEST_F(ScriptHostTest, PrintOutputDrainsInEntityOrder) {
  World world;
  std::vector<EntityId> ids = BuildRing(&world, 64);
  ScriptHostOptions opts;
  opts.num_threads = 4;
  ScriptHost host(&world, opts);
  ASSERT_TRUE(
      host.Load("fn tick(e) { print(get(e, \"Faction\", \"team\")) }").ok());
  auto stats = host.RunTick("tick", ids);
  ASSERT_TRUE(stats.ok());
  std::vector<std::string> lines = host.DrainOutput();
  ASSERT_EQ(lines.size(), 64u);
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], std::to_string(i)) << "line " << i;
  }
  EXPECT_TRUE(host.DrainOutput().empty());  // drained
}

TEST_F(ScriptHostTest, TopLevelWorldMutationFailsLoad) {
  World world;
  BuildRing(&world, 2);
  ScriptHost host(&world, {});
  Status st = host.Load(
      "emit(\"damage\", at(entities_with(\"Health\"), 0), 5)\n"
      "fn tick(e) { }");
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

// A failed Load must leave the host exactly as it was: re-loading a
// corrected script (same function names) works and ticks run. Covers both
// failure paths — a top-level runtime error, and the host's own top-level
// side-effect rejection.
TEST_F(ScriptHostTest, FailedLoadRollsBackAndHostStaysLoadable) {
  World world;
  std::vector<EntityId> ids = BuildRing(&world, 8);
  ScriptHostOptions opts;
  opts.num_threads = 4;
  ScriptHost host(&world, opts);
  host.OnChannel("ok", [](EntityId, double) {});

  // Top-level runtime error after the functions were registered.
  Status runtime_err = host.Load(
      "fn tick(e) { emit(\"ok\", e, 1) }\n"
      "let boom = 1 / 0");
  EXPECT_FALSE(runtime_err.ok());

  // Host-level rejection: top level emits.
  Status emit_err = host.Load(
      "fn tick(e) { emit(\"ok\", e, 1) }\n"
      "emit(\"ok\", at(entities_with(\"Health\"), 0), 5)");
  EXPECT_TRUE(emit_err.IsInvalidArgument()) << emit_err.ToString();

  // Same function name loads cleanly and runs on every shard.
  ASSERT_TRUE(host.Load("fn tick(e) { emit(\"ok\", e, 1) }").ok());
  auto stats = host.RunTick("tick", ids);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->script_errors, 0u) << stats->first_error.ToString();
  EXPECT_EQ(stats->effect_contributions, 8u);
}

TEST_F(ScriptHostTest, UnknownTickFunctionIsNotFound) {
  World world;
  std::vector<EntityId> ids = BuildRing(&world, 2);
  ScriptHost host(&world, {});
  ASSERT_TRUE(host.Load("fn tick(e) { }").ok());
  EXPECT_TRUE(host.RunTick("nope", ids).status().IsNotFound());
}

TEST_F(ScriptHostTest, DeadEntitiesInTheSetAreSkipped) {
  World world;
  std::vector<EntityId> ids = BuildRing(&world, 4);
  world.Destroy(ids[2]);
  ScriptHost host(&world, {});
  host.OnChannel("ok", [](EntityId, double) {});
  ASSERT_TRUE(host.Load("fn tick(e) { emit(\"ok\", e, 1) }").ok());
  auto stats = host.RunTick("tick", ids);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->entities, 4u);
  EXPECT_EQ(stats->effect_contributions, 3u);
  EXPECT_EQ(stats->script_errors, 0u);
}

TEST_F(ScriptHostTest, FuelIsAccountedAcrossShards) {
  World world;
  std::vector<EntityId> ids = BuildRing(&world, 32);
  ScriptHostOptions opts;
  opts.num_threads = 4;
  ScriptHost host(&world, opts);
  host.OnChannel("ok", [](EntityId, double) {});
  ASSERT_TRUE(host.Load("fn tick(e) { emit(\"ok\", e, 1) }").ok());
  auto stats = host.RunTick("tick", ids);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->fuel_used, 32u * 4);  // several nodes per invocation
}

// print() output, globals and loaded functions are per shard; globals set
// through the host broadcast to every shard.
TEST_F(ScriptHostTest, HostGlobalsBroadcastToAllShards) {
  World world;
  std::vector<EntityId> ids = BuildRing(&world, 64);
  ScriptHostOptions opts;
  opts.num_threads = 4;
  ScriptHost host(&world, opts);
  std::unordered_map<EntityId, double> got;
  host.OnChannel("boosted", [&got](EntityId e, double v) { got[e] = v; });
  ASSERT_TRUE(
      host.Load("let boost = 0\n"
                "fn tick(e) { emit(\"boosted\", e, boost) }")
          .ok());
  host.SetGlobal("boost", Value(7.5));
  auto stats = host.RunTick("tick", ids);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(got.size(), 64u);
  for (const auto& [e, v] : got) EXPECT_DOUBLE_EQ(v, 7.5);
}

// ---------------------------------------------------------------------------
// MutationPolicy::kDirectChecked — the analysis-gated in-place write path.

// A stormy but analysis-provable behavior: self-only writes to fields
// disjoint from every read, a per-entity random() stream and data-dependent
// branches. No emit (channel applies drain before deferred replay, so an
// emitting writer is ineligible) and no structural mutation.
constexpr char kStormScript[] = R"(
fn storm(e) {
  let a = get(e, "Combat", "attack")
  let d = get(e, "Combat", "defense")
  let r = random()
  if r > 0.5 {
    set(e, "Health", "hp", a * 3 + r * 10)
  }
  if r <= 0.5 {
    set(e, "Health", "max_hp", 50 + d + r)
  }
  set(e, "Combat", "range", r * 4)
}
)";

/// End state plus the observable write stream of one storm simulation.
struct StormRun {
  std::string snapshot;  ///< serialized world at the end
  std::string changes;  ///< per-tick (entity, kind) change-log stream
  size_t direct_writes = 0;
  size_t redirected = 0;
  uint64_t direct_ticks = 0;
  uint64_t fallback_ticks = 0;
};

class DirectCheckedTest : public ScriptHostTest {
 protected:
  /// Runs the storm pack and records, after every tick, the change-log
  /// records (entity, kind) of both written tables, read through cursors
  /// of the test's own. kDefer appends them in PatchRaw replay;
  /// kDirectChecked must reproduce the exact same stream through its Touch
  /// replay — not just the same end state — since that stream is what
  /// every change-log consumer reads.
  static StormRun RunStorm(MutationPolicy policy, size_t threads,
                           size_t ticks, size_t n) {
    World world;
    std::vector<EntityId> ids = BuildRing(&world, n);
    ScriptHostOptions opts;
    opts.num_threads = threads;
    opts.mutations = policy;
    ScriptHost host(&world, opts);
    EXPECT_TRUE(host.Load(kStormScript).ok());
    ComponentStore* written[] = {&world.Table<Health>(),
                                 &world.Table<Combat>()};
    ChangeLog::Cursor cursors[2];
    for (size_t k = 0; k < 2; ++k) cursors[k] = written[k]->changes().Open();
    StormRun run;
    std::stringstream cs;
    for (size_t t = 0; t < ticks; ++t) {
      world.AdvanceTick();
      auto stats = host.RunTick("storm", ids);
      EXPECT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(stats->script_errors, 0u) << stats->first_error.ToString();
      run.direct_writes += stats->direct_writes;
      run.redirected += stats->direct_redirected;
      for (size_t k = 0; k < 2; ++k) {
        written[k]->changes().ForEachRecord(
            cursors[k], [&](EntityId e, ChangeKind kind) {
              cs << e.Raw() << ':' << int(kind) << ' ';
            });
        cs << '|';
      }
    }
    for (size_t k = 0; k < 2; ++k) written[k]->changes().Close(cursors[k]);
    run.direct_ticks = host.direct_ticks();
    run.fallback_ticks = host.fallback_ticks();
    run.changes = cs.str();
    EncodeWorldSnapshot(world, &run.snapshot);
    return run;
  }
};

// The tentpole acceptance test: a 100-tick randomized storm under
// kDirectChecked is bit-identical to kDefer at 1, 2 and 8 threads — same
// serialized end state AND the same change-log stream tick by tick —
// while actually taking the in-place path (direct_writes > 0, nothing
// redirected, no fallback ticks).
TEST_F(DirectCheckedTest, StormIsBitIdenticalToDeferAt1And2And8Threads) {
  StormRun defer = RunStorm(MutationPolicy::kDefer, 1, 100, 96);
  EXPECT_EQ(defer.direct_ticks, 0u);
  EXPECT_EQ(defer.direct_writes, 0u);
  for (size_t threads : {size_t(1), size_t(2), size_t(8)}) {
    StormRun direct =
        RunStorm(MutationPolicy::kDirectChecked, threads, 100, 96);
    EXPECT_EQ(direct.snapshot, defer.snapshot) << threads << " threads";
    EXPECT_EQ(direct.changes, defer.changes) << threads << " threads";
    EXPECT_GT(direct.direct_writes, 0u);
    EXPECT_EQ(direct.redirected, 0u) << "analysis verdict was wrong";
    EXPECT_EQ(direct.direct_ticks, 100u);
    EXPECT_EQ(direct.fallback_ticks, 0u);

    StormRun control = RunStorm(MutationPolicy::kDefer, threads, 100, 96);
    EXPECT_EQ(control.snapshot, defer.snapshot) << threads << " threads";
    EXPECT_EQ(control.changes, defer.changes) << threads << " threads";
  }
}

// A pack the analysis cannot prove disjoint (it emits while writing fields)
// demonstrably falls back: the load-time verdict says why, every tick runs
// as kDefer (counters assert it), and the semantics are kDefer's.
TEST_F(DirectCheckedTest, FallsBackWhenAnalysisCannotProveDisjointness) {
  World world;
  std::vector<EntityId> ids = BuildRing(&world, 4);
  ScriptHostOptions opts;
  opts.num_threads = 2;
  opts.mutations = MutationPolicy::kDirectChecked;
  ScriptHost host(&world, opts);
  size_t howls = 0;
  host.OnChannel("howl", [&howls](EntityId, double) { ++howls; });
  ASSERT_TRUE(host
                  .Load("fn tick(e) {\n"
                        "  emit(\"howl\", e, 1)\n"
                        "  set(e, \"Health\", \"hp\", 55)\n"
                        "}")
                  .ok());

  auto [eligible, reason] = host.DirectVerdict("tick");
  EXPECT_FALSE(eligible);
  EXPECT_NE(reason.find("emits effects while writing"), std::string::npos)
      << reason;
  // Functions the analysis never saw are ineligible, with a reason.
  EXPECT_FALSE(host.DirectVerdict("nope").first);

  world.AdvanceTick();
  auto stats = host.RunTick("tick", ids);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->script_errors, 0u) << stats->first_error.ToString();
  EXPECT_FALSE(stats->direct_checked);
  EXPECT_EQ(stats->direct_writes, 0u);
  EXPECT_NE(stats->fallback_reason.find("emits effects"), std::string::npos)
      << stats->fallback_reason;
  EXPECT_EQ(host.direct_ticks(), 0u);
  EXPECT_EQ(host.fallback_ticks(), 1u);
  // kDefer semantics: writes landed through the apply phase.
  EXPECT_EQ(howls, 4u);
  EXPECT_FLOAT_EQ(world.Get<Health>(ids[0])->hp, 55.0f);
}

// A maintained aggregate on the written table does not force a fallback:
// the direct path's deferred Touch replay is an ordinary tracked update, so
// the aggregate re-folds each written row at its next read.
TEST_F(DirectCheckedTest, StaysDirectWithMaintainedAggregate) {
  World world;
  std::vector<EntityId> ids = BuildRing(&world, 4);
  SumAggregate<Health> total(world, [](const Health& h) { return h.hp; });
  ScriptHostOptions opts;
  opts.mutations = MutationPolicy::kDirectChecked;
  ScriptHost host(&world, opts);
  ASSERT_TRUE(host.Load("fn tick(e) { set(e, \"Health\", \"hp\", 1) }").ok());
  EXPECT_TRUE(host.DirectVerdict("tick").first)
      << host.DirectVerdict("tick").second;

  world.AdvanceTick();
  auto stats = host.RunTick("tick", ids);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->direct_checked) << stats->fallback_reason;
  EXPECT_EQ(stats->direct_writes, 4u);
  EXPECT_EQ(host.fallback_ticks(), 0u);
  double rescan = 0;
  world.Table<Health>().ForEach(
      [&](EntityId, const Health& h) { rescan += h.hp; });
  EXPECT_DOUBLE_EQ(rescan, 4.0);
  EXPECT_DOUBLE_EQ(total.sum(), rescan);
}

}  // namespace
}  // namespace gamedb::script
