// Scenario-replay regression tier (reduced scale; tests/stress runs the big
// configs). The contract under test is scenario.h's determinism promise:
// for a fixed (scenario, seed, clients, npcs, ticks) every deterministic
// report field — the world-state hash above all — is identical at 1 vs 4
// ScriptHost threads and with the planner on vs off, and the replay-mode
// JSON artifact is byte-identical across thread counts.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.h"
#include "loadgen/metrics.h"
#include "loadgen/scenario.h"

namespace gamedb::loadgen {
namespace {

ScenarioConfig TestConfig(const std::string& name) {
  ScenarioConfig cfg = DefaultConfig(name).value();
  cfg.clients = 6;
  cfg.npcs = 150;
  cfg.ticks = 24;
  cfg.seed = 77;
  cfg.collect_timing = false;
  return cfg;
}

ScenarioReport MustRun(ScenarioConfig cfg) {
  Result<ScenarioReport> r = RunScenario(cfg);
  EXPECT_TRUE(r.ok()) << cfg.scenario << ": " << r.status().ToString();
  return r.ok() ? r.value() : ScenarioReport{};
}

class ScenarioReplayTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ScenarioReplayTest, BitIdenticalAcrossThreadCounts) {
  ScenarioConfig cfg = TestConfig(GetParam());
  ScenarioReport one = MustRun(cfg);
  cfg.threads = 4;
  ScenarioReport four = MustRun(cfg);

  EXPECT_EQ(one.world_hash, four.world_hash);
  EXPECT_EQ(one.final_entities, four.final_entities);
  EXPECT_EQ(one.peak_entities, four.peak_entities);
  EXPECT_EQ(one.logins, four.logins);
  EXPECT_EQ(one.logouts, four.logouts);
  EXPECT_EQ(one.spawns, four.spawns);
  EXPECT_EQ(one.despawns, four.despawns);
  EXPECT_EQ(one.deaths, four.deaths);
  EXPECT_EQ(one.sync_bytes_total, four.sync_bytes_total);
  EXPECT_EQ(one.sync_rows_total, four.sync_rows_total);
  EXPECT_EQ(one.sync_removals_total, four.sync_removals_total);
  EXPECT_EQ(one.client_ticks, four.client_ticks);
  EXPECT_EQ(one.effect_contributions, four.effect_contributions);
  EXPECT_EQ(one.deferred_ops, four.deferred_ops);
  EXPECT_EQ(one.view_change_records, four.view_change_records);
  EXPECT_EQ(one.wounded_final, four.wounded_final);
  EXPECT_EQ(one.critical_final, four.critical_final);
  EXPECT_EQ(one.wal_records, four.wal_records);
  EXPECT_EQ(one.recovery_tick, four.recovery_tick);

  // The replay artifact itself: byte-identical, thread count and all.
  EXPECT_EQ(RenderReportJson(one), RenderReportJson(four));
}

TEST_P(ScenarioReplayTest, BitIdenticalPlannerOnVsOff) {
  ScenarioConfig cfg = TestConfig(GetParam());
  ScenarioReport on = MustRun(cfg);
  cfg.planner_on = false;
  ScenarioReport off = MustRun(cfg);
  EXPECT_EQ(on.world_hash, off.world_hash);
  EXPECT_EQ(on.final_entities, off.final_entities);
  EXPECT_EQ(on.deaths, off.deaths);
  EXPECT_EQ(on.sync_bytes_total, off.sync_bytes_total);
  EXPECT_EQ(on.effect_contributions, off.effect_contributions);
  EXPECT_EQ(on.wounded_final, off.wounded_final);
  EXPECT_EQ(on.critical_final, off.critical_final);
}

TEST_P(ScenarioReplayTest, RerunIsBitIdentical) {
  ScenarioConfig cfg = TestConfig(GetParam());
  ScenarioReport a = MustRun(cfg);
  ScenarioReport b = MustRun(cfg);
  EXPECT_EQ(a.world_hash, b.world_hash);
  EXPECT_EQ(RenderReportJson(a), RenderReportJson(b));
}

TEST_P(ScenarioReplayTest, SeedChangesTheRun) {
  ScenarioConfig cfg = TestConfig(GetParam());
  ScenarioReport a = MustRun(cfg);
  cfg.seed ^= 0xdecafbad;
  ScenarioReport b = MustRun(cfg);
  // Not a hard guarantee for every conceivable scenario, but all shipped
  // ones are rng-driven enough that a different seed must diverge.
  EXPECT_NE(a.world_hash, b.world_hash) << GetParam();
}

TEST_P(ScenarioReplayTest, EmitsSchemaValidJson) {
  ScenarioConfig cfg = TestConfig(GetParam());
  ScenarioReport replay = MustRun(cfg);
  Status v = ValidateReportJson(RenderReportJson(replay));
  EXPECT_TRUE(v.ok()) << v.ToString();

  cfg.collect_timing = true;
  ScenarioReport timed = MustRun(cfg);
  v = ValidateReportJson(RenderReportJson(timed));
  EXPECT_TRUE(v.ok()) << v.ToString();
  EXPECT_EQ(timed.tick.count, cfg.ticks);
}

TEST_P(ScenarioReplayTest, RunsDoWork) {
  ScenarioConfig cfg = TestConfig(GetParam());
  ScenarioReport r = MustRun(cfg);
  EXPECT_EQ(r.script_errors, 0u);
  EXPECT_GT(r.logins, 0u) << "no client ever connected";
  EXPECT_GT(r.client_ticks, 0u);
  EXPECT_GT(r.sync_bytes_total, 0u) << "interest-view sync moved no bytes";
  EXPECT_GT(r.effect_contributions, 0u) << "behavior script emitted nothing";
  EXPECT_GT(r.final_entities, 0u);
  EXPECT_GE(r.peak_entities, r.final_entities);
  EXPECT_GT(r.wal_records, 0u) << "persistence captured nothing";
  EXPECT_EQ(r.recovery_tick, cfg.ticks)
      << "post-run recovery did not restore to the final tick";
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, ScenarioReplayTest,
                         ::testing::ValuesIn(ScenarioNames()),
                         [](const auto& info) { return info.param; });

TEST(ScenarioRegistryTest, FiveScenariosRegistered) {
  std::vector<std::string> names = ScenarioNames();
  EXPECT_GE(names.size(), 5u);
  for (const std::string& name : names) {
    EXPECT_TRUE(IsScenarioName(name));
    EXPECT_FALSE(ScenarioDescription(name).empty());
    EXPECT_TRUE(DefaultConfig(name).ok());
  }
}

TEST(ScenarioRegistryTest, UnknownScenarioIsAnError) {
  EXPECT_FALSE(IsScenarioName("nope"));
  EXPECT_FALSE(DefaultConfig("nope").ok());
  ScenarioConfig cfg;
  cfg.scenario = "nope";
  EXPECT_FALSE(RunScenario(cfg).ok());
}

TEST(ScenarioSloTest, GenerousSloPassesAndTightSloTrips) {
  ScenarioConfig cfg = TestConfig("steady_state");
  cfg.collect_timing = true;
  cfg.slo_p50_ms = 1e6;  // a thousand seconds: cannot trip
  cfg.slo_p99_ms = 1e6;
  ScenarioReport ok = MustRun(cfg);
  EXPECT_TRUE(ok.slo_evaluated);
  EXPECT_FALSE(ok.slo_violated) << ok.slo_detail;

  cfg.slo_p50_ms = 1e-7;  // 0.1 microseconds: a full tick cannot fit
  ScenarioReport bad = MustRun(cfg);
  EXPECT_TRUE(bad.slo_evaluated);
  EXPECT_TRUE(bad.slo_violated);
  EXPECT_NE(bad.slo_detail.find("p50"), std::string::npos);
}

TEST(ScenarioSloTest, StructuredChecksNameEveryGateWithEvidence) {
  ScenarioConfig cfg = TestConfig("steady_state");
  cfg.collect_timing = true;
  cfg.slo_p50_ms = 1e-7;  // trips
  cfg.slo_p99_ms = 1e6;   // passes
  cfg.slo_p999_ms = 0.0;  // unset: no gate, no check
  ScenarioReport r = MustRun(cfg);
  ASSERT_EQ(r.slo_checks.size(), 2u);  // one per *configured* gate
  const telemetry::SloCheck& p50 = r.slo_checks[0];
  EXPECT_EQ(p50.name, "tick_p50");
  EXPECT_TRUE(p50.violated);
  EXPECT_EQ(p50.target_ms, 1e-7);
  EXPECT_GT(p50.measured_ms, p50.target_ms);
  EXPECT_NE(p50.ToString().find("[VIOLATED]"), std::string::npos);
  const telemetry::SloCheck& p99 = r.slo_checks[1];
  EXPECT_EQ(p99.name, "tick_p99");
  EXPECT_FALSE(p99.violated);
  EXPECT_NE(p99.ToString().find("[ok]"), std::string::npos);
}

// A timed run reads its timing section from the registry: the tick, each
// phase timed once per tick in tick order, and what the phases leave over.
// Both view-maintenance rounds run every tick, outside the script and sync
// phases.
TEST(ScenarioTimingTest, PhasesCoverTheTick) {
  ScenarioConfig cfg = TestConfig("steady_state");
  cfg.collect_timing = true;
  ScenarioReport r = MustRun(cfg);

  Result<json::JsonValue> doc = json::ParseJson(RenderReportJson(r));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::JsonValue* timing = doc->Find("timing");
  ASSERT_NE(timing, nullptr);
  std::vector<std::string> keys;
  for (const auto& [key, value] : timing->members) {
    if (key != "slo") keys.push_back(key);
  }
  const std::vector<std::string> expected = {
      "tick_ns",
      "core.mutate_ns",
      "planner.refresh_ns",
      "views.maintain_pre_script_ns",
      "script.run_tick_ns",
      "persist.on_event_ns",
      "views.maintain_pre_sync_ns",
      "replication.sync_ns",
      "persist.tick_end_ns",
      "tick.unattributed_ns",
  };
  EXPECT_EQ(keys, expected);

  EXPECT_EQ(r.tick.count, cfg.ticks);
  for (const telemetry::HistogramSummary& phase : r.phases) {
    EXPECT_EQ(phase.count, cfg.ticks) << phase.name;
  }
  ASSERT_EQ(r.phases.back().name, "tick.unattributed_ns");
  EXPECT_LE(r.phases.back().mean, 0.05 * r.tick.mean);
  EXPECT_EQ(r.view_rounds, 2 * cfg.ticks);
}

TEST(ScenarioSloTest, ReplayModeSkipsSloEvaluation) {
  ScenarioConfig cfg = TestConfig("steady_state");
  cfg.slo_p50_ms = 1e-7;
  ASSERT_FALSE(cfg.collect_timing);
  ScenarioReport r = MustRun(cfg);
  EXPECT_FALSE(r.slo_evaluated);
  EXPECT_FALSE(r.slo_violated);
}

}  // namespace
}  // namespace gamedb::loadgen
