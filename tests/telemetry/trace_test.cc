// Tracer + TraceSpan: the disabled/null no-op contract, span capture with
// the tid track convention, deterministic Chrome trace_event rendering, the
// round-trip through the independent validator, and the malformed documents
// the validator must reject.

#include "telemetry/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/json.h"

namespace gamedb::telemetry {
namespace {

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;  // disabled by default
  tracer.RecordSpan("x", 100, 10, 0);
  { TraceSpan span(&tracer, "y"); }
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(TracerTest, NullTracerSpanIsSafe) {
  TraceSpan span(nullptr, "x");
  // Destructor must be a no-op; reaching the end of scope is the test.
}

TEST(TracerTest, SpanRecordsNameAndTid) {
  Tracer tracer;
  tracer.SetEnabled(true);
  { TraceSpan span(&tracer, "script.shard", /*tid=*/3); }
  { TraceSpan span(&tracer, "tick"); }
  auto events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "script.shard");
  EXPECT_EQ(events[0].tid, 3u);
  EXPECT_EQ(events[1].name, "tick");
  EXPECT_EQ(events[1].tid, 0u);
  EXPECT_GE(events[1].ts_ns, events[0].ts_ns);
}

// A phase span's optional targets: its histogram gets one sample per span
// and its total gets the same duration, with or without a tracer. With
// neither tracer nor histogram no clock is read and the total stays put.
TEST(TracerTest, SpanFeedsHistogramAndTotal) {
  MetricsRegistry registry;
  registry.SetEnabled(true);
  Histogram* hist = registry.GetHistogram("phase_ns");
  Tracer tracer;
  tracer.SetEnabled(true);
  uint64_t total = 0;
  { TraceSpan span(nullptr, "phase", 0, hist, &total); }
  { TraceSpan span(&tracer, "phase", 0, hist, &total); }
  EXPECT_EQ(hist->count(), 2u);
  EXPECT_EQ(tracer.size(), 1u);
  // One measurement feeds both targets: the total is the histogram's sum.
  EXPECT_EQ(static_cast<uint64_t>(hist->mean() * 2), total);

  uint64_t untimed = 7;
  { TraceSpan span(nullptr, "phase", 0, nullptr, &untimed); }
  EXPECT_EQ(untimed, 7u);
}

TEST(TracerTest, DisableMidRunStopsRecording) {
  Tracer tracer;
  tracer.SetEnabled(true);
  tracer.RecordSpan("a", 1, 1, 0);
  tracer.SetEnabled(false);
  tracer.RecordSpan("b", 2, 1, 0);
  EXPECT_EQ(tracer.size(), 1u);
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(TracerTest, ConcurrentSpansAllLand) {
  Tracer tracer;
  tracer.SetEnabled(true);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        tracer.RecordSpan("span", uint64_t(i), 1, uint32_t(t + 1));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tracer.size(), size_t(kThreads) * kPerThread);
}

// --- Chrome trace JSON ------------------------------------------------------

TEST(ChromeTraceJsonTest, EmptyTraceValidates) {
  Tracer tracer;
  std::string doc = RenderChromeTraceJson(tracer);
  EXPECT_TRUE(ValidateChromeTraceJson(doc).ok()) << doc;
}

TEST(ChromeTraceJsonTest, RoundTripPreservesEveryField) {
  Tracer tracer;
  tracer.SetEnabled(true);
  // 1234567 ns -> 1234.567 us: the microsecond conversion must keep the
  // full nanosecond resolution in its 3 decimals.
  tracer.RecordSpan("tick", 1234567, 1000, 0);
  tracer.RecordSpan("script.shard", 2000000, 500, 2);
  std::string doc = RenderChromeTraceJson(tracer);
  ASSERT_TRUE(ValidateChromeTraceJson(doc).ok()) << doc;

  auto parsed = json::ParseJson(doc);
  ASSERT_TRUE(parsed.ok());
  const json::JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->elements.size(), 2u);
  const json::JsonValue& first = events->elements[0];
  EXPECT_EQ(first.Find("name")->str, "tick");
  EXPECT_EQ(first.Find("ph")->str, "X");
  EXPECT_EQ(first.Find("cat")->str, "gamedb");
  EXPECT_DOUBLE_EQ(first.Find("ts")->number, 1234.567);
  EXPECT_DOUBLE_EQ(first.Find("dur")->number, 1.0);
  EXPECT_EQ(first.Find("pid")->number, 1.0);
  EXPECT_EQ(first.Find("tid")->number, 0.0);
  EXPECT_EQ(events->elements[1].Find("tid")->number, 2.0);
}

TEST(ChromeTraceJsonTest, RenderSortsByTimestampAndIsDeterministic) {
  Tracer tracer;
  tracer.SetEnabled(true);
  tracer.RecordSpan("late", 3000, 10, 0);
  tracer.RecordSpan("early", 1000, 10, 0);
  tracer.RecordSpan("mid", 2000, 10, 1);
  std::string doc = RenderChromeTraceJson(tracer);
  ASSERT_TRUE(ValidateChromeTraceJson(doc).ok());
  auto parsed = json::ParseJson(doc);
  ASSERT_TRUE(parsed.ok());
  const json::JsonValue* events = parsed->Find("traceEvents");
  ASSERT_EQ(events->elements.size(), 3u);
  EXPECT_EQ(events->elements[0].Find("name")->str, "early");
  EXPECT_EQ(events->elements[1].Find("name")->str, "mid");
  EXPECT_EQ(events->elements[2].Find("name")->str, "late");
  EXPECT_EQ(doc, RenderChromeTraceJson(tracer));
}

TEST(ChromeTraceJsonTest, ValidatorRejectsMissingEventsArray) {
  Status st = ValidateChromeTraceJson("{\"displayTimeUnit\": \"ms\"}");
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("trace json schema violation"),
            std::string::npos)
      << st.ToString();
}

TEST(ChromeTraceJsonTest, ValidatorRejectsNonCompleteSpan) {
  Status st = ValidateChromeTraceJson(
      "{\"traceEvents\": [{\"name\": \"x\", \"cat\": \"gamedb\", "
      "\"ph\": \"B\", \"ts\": 1, \"dur\": 1, \"pid\": 1, \"tid\": 0}]}");
  EXPECT_FALSE(st.ok());
}

TEST(ChromeTraceJsonTest, ValidatorRejectsEmptyName) {
  Status st = ValidateChromeTraceJson(
      "{\"traceEvents\": [{\"name\": \"\", \"cat\": \"gamedb\", "
      "\"ph\": \"X\", \"ts\": 1, \"dur\": 1, \"pid\": 1, \"tid\": 0}]}");
  EXPECT_FALSE(st.ok());
}

TEST(ChromeTraceJsonTest, ValidatorRejectsNegativeTimes) {
  Status st = ValidateChromeTraceJson(
      "{\"traceEvents\": [{\"name\": \"x\", \"cat\": \"gamedb\", "
      "\"ph\": \"X\", \"ts\": -1, \"dur\": 1, \"pid\": 1, \"tid\": 0}]}");
  EXPECT_FALSE(st.ok());
}

TEST(ChromeTraceJsonTest, ValidatorRejectsGarbage) {
  EXPECT_FALSE(ValidateChromeTraceJson("not json").ok());
  EXPECT_FALSE(ValidateChromeTraceJson("").ok());
}

}  // namespace
}  // namespace gamedb::telemetry
