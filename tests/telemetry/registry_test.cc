// MetricsRegistry: the enabled/disabled kill-switch contract (disabled
// instruments record nothing, ever), pointer stability, LatencyHistogram
// bucket equivalence, multi-threaded recording exactness (the TSan CI
// target runs this binary), and the gamedb.telemetry.v1 JSON round-trip
// through the independent validator — including the negative cases the
// validator must reject.

#include "telemetry/registry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/percentile.h"
#include "common/rng.h"

namespace gamedb::telemetry {
namespace {

TEST(RegistryTest, DisabledInstrumentsRecordNothing) {
  MetricsRegistry registry;  // disabled by default
  Counter* c = registry.GetCounter("c");
  Gauge* g = registry.GetGauge("g");
  Histogram* h = registry.GetHistogram("h");
  c->Add(5);
  c->Increment();
  g->Set(42);
  g->Add(-7);
  h->Record(1000);
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->min(), 0u);
  EXPECT_EQ(h->max(), 0u);
  EXPECT_EQ(h->mean(), 0.0);
  EXPECT_EQ(h->Percentile(50.0), 0u);
}

TEST(RegistryTest, RuntimeKillSwitchFreezesValues) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("c");
  registry.SetEnabled(true);
  c->Add(3);
  registry.SetEnabled(false);
  c->Add(100);  // dropped
  EXPECT_EQ(c->value(), 3u);
  registry.SetEnabled(true);
  c->Increment();
  EXPECT_EQ(c->value(), 4u);
}

TEST(RegistryTest, FindOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* c1 = registry.GetCounter("same");
  Counter* c2 = registry.GetCounter("same");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(registry.GetCounter("other"), c1);
  // Names are per-kind namespaces: a gauge named like a counter is distinct.
  EXPECT_NE(static_cast<void*>(registry.GetGauge("same")),
            static_cast<void*>(c1));
}

TEST(RegistryTest, GaugeCanGoNegative) {
  MetricsRegistry registry;
  registry.SetEnabled(true);
  Gauge* g = registry.GetGauge("g");
  g->Set(10);
  g->Add(-25);
  EXPECT_EQ(g->value(), -15);
}

// The atomic histogram shares LatencyHistogram's bucket layout, so for any
// value stream the two must agree exactly on count/min/max and every
// quantile.
TEST(RegistryTest, HistogramMatchesLatencyHistogram) {
  MetricsRegistry registry;
  registry.SetEnabled(true);
  Histogram* h = registry.GetHistogram("h");
  LatencyHistogram reference;
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.NextBounded(1u << 20);
    h->Record(v);
    reference.Record(v);
  }
  EXPECT_EQ(h->count(), reference.count());
  EXPECT_EQ(h->min(), reference.min());
  EXPECT_EQ(h->max(), reference.max());
  EXPECT_DOUBLE_EQ(h->mean(), reference.mean());
  for (double p : {1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(h->Percentile(p), reference.Percentile(p)) << "p" << p;
  }
}

// Lock-free recording must lose nothing under contention: totals are exact,
// not approximate. This is also the data-race probe for the TSan CI build.
TEST(RegistryTest, ConcurrentRecordingIsExact) {
  MetricsRegistry registry;
  registry.SetEnabled(true);
  Counter* c = registry.GetCounter("c");
  Gauge* g = registry.GetGauge("g");
  Histogram* h = registry.GetHistogram("h");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        g->Add(1);
        h->Record(static_cast<uint64_t>(t * kPerThread + i));
      }
    });
  }
  for (auto& th : threads) th.join();
  const uint64_t expected = uint64_t(kThreads) * kPerThread;
  EXPECT_EQ(c->value(), expected);
  EXPECT_EQ(g->value(), int64_t(expected));
  EXPECT_EQ(h->count(), expected);
  EXPECT_EQ(h->min(), 0u);
  EXPECT_EQ(h->max(), expected - 1);
}

// Toggling the kill-switch while writers hammer instruments must be safe
// (values land or don't — never tear, never race).
TEST(RegistryTest, ConcurrentToggleIsSafe) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("c");
  std::thread toggler([&]() {
    for (int i = 0; i < 1000; ++i) registry.SetEnabled(i % 2 == 0);
  });
  std::thread writer([&]() {
    for (int i = 0; i < 100000; ++i) c->Increment();
  });
  toggler.join();
  writer.join();
  EXPECT_LE(c->value(), 100000u);
}

TEST(RegistryTest, SnapshotsAreSortedByName) {
  MetricsRegistry registry;
  registry.SetEnabled(true);
  registry.GetCounter("zeta")->Add(1);
  registry.GetCounter("alpha")->Add(2);
  registry.GetCounter("mid")->Add(3);
  auto counters = registry.CounterValues();
  ASSERT_EQ(counters.size(), 3u);
  EXPECT_EQ(counters[0].first, "alpha");
  EXPECT_EQ(counters[1].first, "mid");
  EXPECT_EQ(counters[2].first, "zeta");
}

// --- JSON round-trip --------------------------------------------------------

TEST(TelemetryJsonTest, EmptyRegistryRoundTrips) {
  MetricsRegistry registry;
  std::string doc = RenderTelemetryJson(registry);
  EXPECT_TRUE(ValidateTelemetryJson(doc).ok()) << doc;
}

TEST(TelemetryJsonTest, PopulatedRegistryRoundTripsWithExactValues) {
  MetricsRegistry registry;
  registry.SetEnabled(true);
  registry.GetCounter("script.ticks")->Add(30);
  registry.GetGauge("world.entities")->Set(-5);
  Histogram* h = registry.GetHistogram("tick_ns");
  for (uint64_t v = 1; v <= 100; ++v) h->Record(v * 1000);

  std::string doc = RenderTelemetryJson(registry);
  ASSERT_TRUE(ValidateTelemetryJson(doc).ok()) << doc;

  // Re-read through the shared parser and check the numbers survived.
  auto parsed = json::ParseJson(doc);
  ASSERT_TRUE(parsed.ok());
  const json::JsonValue* schema = parsed->Find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->str, kTelemetrySchema);
  const json::JsonValue* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  const json::JsonValue* ticks = counters->Find("script.ticks");
  ASSERT_NE(ticks, nullptr);
  EXPECT_EQ(ticks->number, 30.0);
  const json::JsonValue* gauges = parsed->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  const json::JsonValue* entities = gauges->Find("world.entities");
  ASSERT_NE(entities, nullptr);
  EXPECT_EQ(entities->number, -5.0);
  const json::JsonValue* hists = parsed->Find("histograms");
  ASSERT_NE(hists, nullptr);
  const json::JsonValue* tick_ns = hists->Find("tick_ns");
  ASSERT_NE(tick_ns, nullptr);
  const json::JsonValue* count = tick_ns->Find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->number, 100.0);
  const json::JsonValue* p50 = tick_ns->Find("p50");
  ASSERT_NE(p50, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(p50->number), h->Percentile(50.0));
}

TEST(TelemetryJsonTest, RenderIsDeterministic) {
  MetricsRegistry registry;
  registry.SetEnabled(true);
  registry.GetCounter("b")->Add(2);
  registry.GetCounter("a")->Add(1);
  registry.GetHistogram("h")->Record(7);
  EXPECT_EQ(RenderTelemetryJson(registry), RenderTelemetryJson(registry));
}

TEST(TelemetryJsonTest, ValidatorRejectsWrongSchema) {
  Status st = ValidateTelemetryJson(
      "{\"schema\": \"gamedb.telemetry.v2\", \"counters\": {}, "
      "\"gauges\": {}, \"histograms\": {}}");
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("telemetry json schema violation"),
            std::string::npos)
      << st.ToString();
}

TEST(TelemetryJsonTest, ValidatorRejectsMissingSection) {
  Status st = ValidateTelemetryJson(
      "{\"schema\": \"gamedb.telemetry.v1\", \"counters\": {}, "
      "\"gauges\": {}}");
  EXPECT_FALSE(st.ok());
}

TEST(TelemetryJsonTest, ValidatorRejectsNonNumericCounter) {
  Status st = ValidateTelemetryJson(
      "{\"schema\": \"gamedb.telemetry.v1\", \"counters\": {\"c\": \"x\"}, "
      "\"gauges\": {}, \"histograms\": {}}");
  EXPECT_FALSE(st.ok());
}

TEST(TelemetryJsonTest, ValidatorRejectsUnsortedKeys) {
  Status st = ValidateTelemetryJson(
      "{\"schema\": \"gamedb.telemetry.v1\", \"counters\": {\"b\": 1, "
      "\"a\": 2}, \"gauges\": {}, \"histograms\": {}}");
  EXPECT_FALSE(st.ok());
}

TEST(TelemetryJsonTest, ValidatorRejectsIncompleteHistogram) {
  Status st = ValidateTelemetryJson(
      "{\"schema\": \"gamedb.telemetry.v1\", \"counters\": {}, "
      "\"gauges\": {}, \"histograms\": {\"h\": {\"count\": 1}}}");
  EXPECT_FALSE(st.ok());
}

TEST(TelemetryJsonTest, ValidatorRejectsGarbage) {
  EXPECT_FALSE(ValidateTelemetryJson("not json").ok());
  EXPECT_FALSE(ValidateTelemetryJson("[]").ok());
  EXPECT_FALSE(ValidateTelemetryJson("").ok());
}

}  // namespace
}  // namespace gamedb::telemetry
