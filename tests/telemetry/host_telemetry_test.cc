// ScriptHost <-> telemetry integration: tick counters and phase histograms
// fold into the registry, spans land on the tracer with the shard tid
// convention, a wired-but-disabled sink records nothing, and every tick's
// fallback reason accumulates in the host's per-reason counts and the
// categorized registry counters.

#include "script/host.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/world.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace gamedb::script {
namespace {

class HostTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterStandardComponents(); }

  std::vector<EntityId> Populate(World* w, size_t n) {
    std::vector<EntityId> ids;
    for (size_t i = 0; i < n; ++i) {
      EntityId e = w->Create();
      w->Set(e, Health{20.0f + float(i % 60), 100.0f});
      ids.push_back(e);
    }
    return ids;
  }

  World world;
};

constexpr char kRegenScript[] =
    "fn tick(e) {\n"
    "  if get(e, \"Health\", \"hp\") < 50 {\n"
    "    emit(\"regen\", e, 1)\n"
    "  }\n"
    "}\n";

TEST_F(HostTelemetryTest, TickCountersAndSpansFlow) {
  Populate(&world, 16);
  telemetry::MetricsRegistry registry;
  registry.SetEnabled(true);
  telemetry::Tracer tracer;
  tracer.SetEnabled(true);

  ScriptHostOptions opts;
  opts.num_threads = 2;
  opts.telemetry.metrics = &registry;
  opts.telemetry.tracer = &tracer;
  ScriptHost host(&world, opts);
  host.OnChannel("regen", [this](EntityId e, double total) {
    world.Patch<Health>(e, [&](Health& h) {
      h.hp += static_cast<float>(total);
    });
  });
  ASSERT_TRUE(host.Load(kRegenScript).ok());

  for (int t = 0; t < 3; ++t) {
    world.AdvanceTick();
    auto stats = host.RunTickOver("tick", "Health");
    ASSERT_TRUE(stats.ok());
    ASSERT_EQ(stats->script_errors, 0u) << stats->first_error.ToString();
  }

  EXPECT_EQ(registry.GetCounter("script.ticks")->value(), 3u);
  EXPECT_EQ(registry.GetCounter("script.entities")->value(), 48u);
  EXPECT_GT(registry.GetCounter("script.effect_contributions")->value(), 0u);
  EXPECT_EQ(registry.GetCounter("script.errors")->value(), 0u);
  EXPECT_EQ(registry.GetHistogram("script.phase.query_ns")->count(), 3u);
  EXPECT_EQ(registry.GetHistogram("script.phase.apply_ns")->count(), 3u);

  std::set<std::string> names;
  std::set<uint32_t> shard_tids;
  for (const auto& e : tracer.Events()) {
    names.insert(e.name);
    if (e.name == "script.shard") shard_tids.insert(e.tid);
  }
  EXPECT_TRUE(names.count("script.query_phase")) << tracer.size();
  EXPECT_TRUE(names.count("script.apply_phase"));
  ASSERT_TRUE(names.count("script.shard"));
  // Shard spans sit on tid = shard index + 1, never the main track.
  EXPECT_FALSE(shard_tids.count(0u));
}

TEST_F(HostTelemetryTest, DisabledSinkRecordsNothing) {
  Populate(&world, 8);
  telemetry::MetricsRegistry registry;  // wired but left disabled
  telemetry::Tracer tracer;
  ScriptHostOptions opts;
  opts.telemetry.metrics = &registry;
  opts.telemetry.tracer = &tracer;
  ScriptHost host(&world, opts);
  host.OnChannel("regen", [](EntityId, double) {});
  ASSERT_TRUE(host.Load(kRegenScript).ok());

  world.AdvanceTick();
  ASSERT_TRUE(host.RunTickOver("tick", "Health").ok());

  EXPECT_EQ(registry.GetCounter("script.ticks")->value(), 0u);
  EXPECT_EQ(registry.GetCounter("script.entities")->value(), 0u);
  EXPECT_EQ(registry.GetHistogram("script.phase.query_ns")->count(), 0u);
  EXPECT_EQ(tracer.size(), 0u);
}

// Each tick reports its one fallback reason; the host's cumulative
// per-reason map and the categorized registry counters count every
// occurrence across ticks.
TEST_F(HostTelemetryTest, FallbackReasonsAccumulatePerReason) {
  Populate(&world, 4);
  telemetry::MetricsRegistry registry;
  registry.SetEnabled(true);
  ScriptHostOptions opts;
  opts.mutations = MutationPolicy::kDirectChecked;
  opts.telemetry.metrics = &registry;
  ScriptHost host(&world, opts);
  host.OnChannel("howl", [](EntityId, double) {});
  // Emits an effect while writing: statically ineligible for the direct
  // path, so every tick falls back with the same reason.
  ASSERT_TRUE(host.Load("fn tick(e) {\n"
                        "  emit(\"howl\", e, 1)\n"
                        "  set(e, \"Health\", \"hp\", 55)\n"
                        "}")
                  .ok());

  std::string reason;
  for (int t = 0; t < 3; ++t) {
    world.AdvanceTick();
    auto stats = host.RunTickOver("tick", "Health");
    ASSERT_TRUE(stats.ok());
    EXPECT_FALSE(stats->direct_checked);
    ASSERT_FALSE(stats->fallback_reason.empty());
    reason = stats->fallback_reason;
  }
  EXPECT_NE(reason.find("emits effects"), std::string::npos) << reason;

  // Cumulative per-reason map on the host: 3 ticks, one reason, count 3.
  const auto& counts = host.fallback_reason_counts();
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts.begin()->first, reason);
  EXPECT_EQ(counts.begin()->second, 3u);

  // Categorized registry counter: "emits effects" buckets as ineligible.
  EXPECT_EQ(registry.GetCounter("script.fallback.ineligible")->value(), 3u);
  EXPECT_EQ(registry.GetCounter("script.fallback_ticks")->value(), 3u);
  EXPECT_EQ(registry.GetCounter("script.direct_ticks")->value(), 0u);
}

}  // namespace
}  // namespace gamedb::script
