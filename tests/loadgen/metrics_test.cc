// The machine-readable report surface: JSON rendering key order, the
// BENCH_e15_* artifact writer, and the schema validator the CI
// scenario-smoke job relies on (`loadgen --validate`).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "loadgen/metrics.h"
#include "loadgen/scenario.h"

namespace gamedb::loadgen {
namespace {

ScenarioReport SampleReport(bool collect_timing) {
  ScenarioReport r;
  r.config.scenario = "steady_state";
  r.config.clients = 6;
  r.config.npcs = 100;
  r.config.ticks = 10;
  r.config.seed = 42;
  r.config.threads = 2;
  r.config.collect_timing = collect_timing;
  r.world_hash = "deadbeef";
  r.final_entities = 106;
  r.peak_entities = 110;
  r.logins = 6;
  r.sync_bytes_total = 1234;
  r.client_ticks = 60;
  r.sync_bytes_per_client_tick = 1234.0 / 60.0;
  if (collect_timing) {
    r.tick = {10, 100, 200, 300, 400, 150.0};
    r.script_phase = r.tick;
    r.view_maintain = r.tick;
    r.sync_phase = r.tick;
    r.persist_phase = r.tick;
    r.slo_evaluated = true;
    r.slo_detail = "ok";
  }
  return r;
}

TEST(MetricsRenderTest, TimedReportValidates) {
  std::string json = RenderReportJson(SampleReport(true));
  EXPECT_NE(json.find("\"schema\": \"gamedb.e15.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"timing\""), std::string::npos);
  EXPECT_NE(json.find("\"threads\": 2"), std::string::npos);
  Status v = ValidateReportJson(json);
  EXPECT_TRUE(v.ok()) << v.ToString() << "\n" << json;
}

TEST(MetricsRenderTest, ReplayReportOmitsTimingAndThreads) {
  std::string json = RenderReportJson(SampleReport(false));
  EXPECT_EQ(json.find("\"timing\""), std::string::npos);
  EXPECT_EQ(json.find("\"threads\""), std::string::npos);
  EXPECT_EQ(json.find("\"slo\""), std::string::npos);
  Status v = ValidateReportJson(json);
  EXPECT_TRUE(v.ok()) << v.ToString();
}

TEST(MetricsRenderTest, EscapesStrings) {
  ScenarioReport r = SampleReport(true);
  r.slo_detail = "tick \"p50\"\nover\tbudget \\ done";
  std::string json = RenderReportJson(r);
  EXPECT_NE(json.find("\\\"p50\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\\\ done"), std::string::npos);
  EXPECT_TRUE(ValidateReportJson(json).ok());
}

TEST(MetricsFileTest, WritesCanonicalArtifactName) {
  EXPECT_EQ(ReportFileName("chase"), "BENCH_e15_chase.json");
  ScenarioReport r = SampleReport(true);
  Result<std::string> path = WriteReportFile(r, ::testing::TempDir());
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_NE(path.value().find("BENCH_e15_steady_state.json"),
            std::string::npos);
  std::ifstream in(path.value(), std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), RenderReportJson(r));
  std::remove(path.value().c_str());
}

TEST(MetricsFileTest, UnwritableDirectoryFails) {
  EXPECT_FALSE(WriteReportFile(SampleReport(true),
                               "/nonexistent-loadgen-dir")
                   .ok());
}

// --- Validator negative space ----------------------------------------------

TEST(MetricsValidateTest, RejectsGarbage) {
  EXPECT_FALSE(ValidateReportJson("").ok());
  EXPECT_FALSE(ValidateReportJson("not json").ok());
  EXPECT_FALSE(ValidateReportJson("{").ok());
  EXPECT_FALSE(ValidateReportJson("[1,2,3]").ok());
  EXPECT_FALSE(ValidateReportJson("{\"a\":1} trailing").ok());
  EXPECT_FALSE(ValidateReportJson("{\"a\":}").ok());
  EXPECT_FALSE(ValidateReportJson("{\"a\":\"unterminated").ok());
  // Hostile nesting: a Status, not a stack overflow.
  EXPECT_FALSE(ValidateReportJson(std::string(100000, '[')).ok());
}

TEST(MetricsValidateTest, RejectsWrongSchemaTag) {
  std::string json = RenderReportJson(SampleReport(true));
  size_t pos = json.find("gamedb.e15.v1");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 13, "gamedb.e14.v1");
  EXPECT_FALSE(ValidateReportJson(json).ok());
  EXPECT_FALSE(ValidateReportJson("{\"config\":{}}").ok());
}

TEST(MetricsValidateTest, RejectsMissingSections) {
  EXPECT_FALSE(ValidateReportJson("{\"schema\":\"gamedb.e15.v1\"}").ok());
  EXPECT_FALSE(
      ValidateReportJson(
          "{\"schema\":\"gamedb.e15.v1\",\"config\":{\"scenario\":\"x\","
          "\"clients\":1,\"npcs\":1,\"ticks\":1,\"seed\":1,"
          "\"planner\":\"on\",\"collect_timing\":false}}")
          .ok())
      << "deterministic section must be required";
}

TEST(MetricsValidateTest, RejectsMissingDeterministicField) {
  std::string json = RenderReportJson(SampleReport(false));
  size_t pos = json.find("\"world_hash\"");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 12, "\"world_hush\"");
  Status v = ValidateReportJson(json);
  EXPECT_FALSE(v.ok());
  EXPECT_NE(v.ToString().find("world_hash"), std::string::npos);
}

TEST(MetricsValidateTest, RejectsWrongFieldType) {
  std::string json = RenderReportJson(SampleReport(false));
  size_t pos = json.find("\"logins\": 6");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 11, "\"logins\": \"6\"");
  EXPECT_FALSE(ValidateReportJson(json).ok());
}

TEST(MetricsValidateTest, RequiresTimingWhenCollected) {
  std::string json = RenderReportJson(SampleReport(true));
  size_t pos = json.find("\"timing\"");
  ASSERT_NE(pos, std::string::npos);
  // Truncate the timing object off (plus the comma that precedes it).
  std::string headless = json.substr(0, json.rfind(',', pos)) + "\n}\n";
  Status v = ValidateReportJson(headless);
  EXPECT_FALSE(v.ok());
  EXPECT_NE(v.ToString().find("timing"), std::string::npos);
}

TEST(MetricsValidateTest, RejectsIncompleteTimingDigest) {
  std::string json = RenderReportJson(SampleReport(true));
  size_t pos = json.find("\"p999\"");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 6, "\"p998\"");
  EXPECT_FALSE(ValidateReportJson(json).ok());
}

}  // namespace
}  // namespace gamedb::loadgen
