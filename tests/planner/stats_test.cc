#include "planner/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/world.h"

namespace gamedb::planner {
namespace {

class StatsTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterStandardComponents(); }

  World world;
};

TEST_F(StatsTest, AnalyzeCollectsRowCountsAndMinMax) {
  for (int i = 0; i < 100; ++i) {
    EntityId e = world.Create();
    world.Set(e, Health{float(i), 100.0f});
  }
  WorldStats stats;
  EXPECT_EQ(stats.epoch(), 0u);
  stats.Analyze(world);
  EXPECT_EQ(stats.epoch(), 1u);

  uint32_t health_id = TypeRegistry::Global().FindByName("Health")->id();
  const TableStats* t = stats.Table(health_id);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->rows, 100u);

  const FieldStats* hp = stats.Field(health_id, "hp");
  ASSERT_NE(hp, nullptr);
  EXPECT_DOUBLE_EQ(hp->min, 0.0);
  EXPECT_DOUBLE_EQ(hp->max, 99.0);
  EXPECT_TRUE(hp->integral);
  uint32_t total = 0;
  for (uint32_t b : hp->buckets) total += b;
  EXPECT_EQ(total, 100u);
}

TEST_F(StatsTest, SelectivityEstimatesFollowTheHistogram) {
  for (int i = 0; i < 1000; ++i) {
    EntityId e = world.Create();
    world.Set(e, Health{float(i % 100), 100.0f});
    world.Set(e, Faction{i % 4});
  }
  WorldStats stats;
  stats.Analyze(world);
  uint32_t health_id = TypeRegistry::Global().FindByName("Health")->id();
  uint32_t faction_id = TypeRegistry::Global().FindByName("Faction")->id();

  const FieldStats* hp = stats.Field(health_id, "hp");
  ASSERT_NE(hp, nullptr);
  EXPECT_NEAR(hp->EstimateSelectivity(CmpOp::kLt, 50.0), 0.5, 0.1);
  EXPECT_NEAR(hp->EstimateSelectivity(CmpOp::kGe, 90.0), 0.1, 0.05);
  EXPECT_NEAR(hp->EstimateSelectivity(CmpOp::kLt, -5.0), 0.0, 1e-9);
  EXPECT_NEAR(hp->EstimateSelectivity(CmpOp::kGe, 1000.0), 0.0, 1e-9);
  EXPECT_NEAR(hp->EstimateSelectivity(CmpOp::kLe, 1000.0), 1.0, 1e-9);

  const FieldStats* team = stats.Field(faction_id, "team");
  ASSERT_NE(team, nullptr);
  EXPECT_NEAR(team->EstimateSelectivity(CmpOp::kEq, 2.0), 0.25, 0.1);
  EXPECT_NEAR(team->EstimateSelectivity(CmpOp::kNe, 2.0), 0.75, 0.1);
}

TEST_F(StatsTest, SpatialDensityEstimatesNeighbors) {
  // 2000 entities uniform on a 100x100 plane: the analytic neighbor count
  // within r=10 is n * pi r^2 / area ~= 62.8.
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    EntityId e = world.Create();
    world.Set(e, Position{{rng.NextFloat(0, 100), 0, rng.NextFloat(0, 100)}});
  }
  StatsOptions opts;
  opts.ref_radius = 10.0f;
  WorldStats stats(opts);
  stats.Analyze(world);
  uint32_t pos_id = TypeRegistry::Global().FindByName("Position")->id();
  const SpatialFieldStats* ss = stats.Spatial(pos_id, "value");
  ASSERT_NE(ss, nullptr);
  EXPECT_EQ(ss->rows, 2000u);
  EXPECT_EQ(ss->dims, 2);
  double est = ss->EstimateNeighbors(10.0f);
  EXPECT_GT(est, 30.0);
  EXPECT_LT(est, 120.0);
  // Density estimates scale with the square of the radius in 2D.
  EXPECT_NEAR(ss->EstimateNeighbors(20.0f) / est, 4.0, 0.01);
}

TEST_F(StatsTest, DriftTriggersRefreshOnlyPastThreshold) {
  for (int i = 0; i < 100; ++i) {
    EntityId e = world.Create();
    world.Set(e, Health{50.0f, 100.0f});
  }
  WorldStats stats;
  stats.Analyze(world);
  uint64_t epoch = stats.epoch();

  // +10% rows: under the 25% threshold.
  for (int i = 0; i < 10; ++i) {
    world.Set(world.Create(), Health{50.0f, 100.0f});
  }
  EXPECT_FALSE(stats.MaybeRefresh(world, 0.25));
  EXPECT_EQ(stats.epoch(), epoch);

  // +30% more: past the threshold.
  for (int i = 0; i < 30; ++i) {
    world.Set(world.Create(), Health{50.0f, 100.0f});
  }
  EXPECT_TRUE(stats.MaybeRefresh(world, 0.25));
  EXPECT_EQ(stats.epoch(), epoch + 1);
}

TEST_F(StatsTest, NeverAnalyzedCountsAsDrifted) {
  world.Set(world.Create(), Health{1.0f, 1.0f});
  WorldStats stats;
  EXPECT_TRUE(stats.Drifted(world, 0.25));
  stats.Analyze(world);
  EXPECT_FALSE(stats.Drifted(world, 0.25));
}

TEST_F(StatsTest, ConstantColumnEstimatesExactComparison) {
  for (int i = 0; i < 50; ++i) {
    world.Set(world.Create(), Faction{3});
  }
  WorldStats stats;
  stats.Analyze(world);
  uint32_t faction_id = TypeRegistry::Global().FindByName("Faction")->id();
  const FieldStats* team = stats.Field(faction_id, "team");
  ASSERT_NE(team, nullptr);
  EXPECT_DOUBLE_EQ(team->EstimateSelectivity(CmpOp::kEq, 3.0), 1.0);
  EXPECT_DOUBLE_EQ(team->EstimateSelectivity(CmpOp::kEq, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(team->EstimateSelectivity(CmpOp::kLt, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(team->EstimateSelectivity(CmpOp::kLe, 3.0), 1.0);
}

// EXPLAIN's stats text lists tables in type-id order and each table's
// fields by name, whatever order the tables were created in.
TEST_F(StatsTest, ToStringIsIndependentOfTableCreationOrder) {
  auto fill = [](World* w, bool reversed) {
    std::vector<std::function<void(EntityId)>> sets = {
        [w](EntityId e) { w->Set(e, Actor{7, 300, 4, true}); },
        [w](EntityId e) { w->Set(e, Health{40.0f, 90.0f}); },
        [w](EntityId e) { w->Set(e, Position{{1.0f, 2.0f, 3.0f}}); },
    };
    if (reversed) std::reverse(sets.begin(), sets.end());
    EntityId e = w->Create();
    for (const auto& set : sets) set(e);
  };
  World other;
  fill(&world, false);
  fill(&other, true);
  WorldStats a, b;
  a.Analyze(world);
  b.Analyze(other);
  const std::string text = a.ToString();
  EXPECT_EQ(text, b.ToString());

  const TypeRegistry& reg = TypeRegistry::Global();
  std::vector<std::pair<uint32_t, size_t>> lines;  // (type id, offset)
  for (const char* name : {"Actor", "Health", "Position"}) {
    size_t at = text.find("  " + std::string(name) + ":");
    ASSERT_NE(at, std::string::npos) << name << " missing from:\n" << text;
    lines.emplace_back(reg.FindByName(name)->id(), at);
  }
  std::sort(lines.begin(), lines.end());
  EXPECT_LT(lines[0].second, lines[1].second) << text;
  EXPECT_LT(lines[1].second, lines[2].second) << text;

  size_t prev = text.find("  Actor:");
  for (const char* field : {"account_id=", "gold=", "is_player=", "level="}) {
    size_t at = text.find(field);
    ASSERT_NE(at, std::string::npos) << field;
    EXPECT_LT(prev, at) << field << " out of name order in:\n" << text;
    prev = at;
  }
}

}  // namespace
}  // namespace gamedb::planner
