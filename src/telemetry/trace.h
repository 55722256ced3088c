#pragma once

/// \file trace.h
/// Tick-phase span tracing. The tick loop records one complete ("ph":"X")
/// span per tick phase, and subsystems record the spans nested inside
/// them — the per-shard parallel script phase, apply/drain, WAL
/// append/fsync, checkpoint. RenderChromeTraceJson exports them as Chrome
/// trace_event JSON that loads directly in chrome://tracing (or Perfetto).
/// A TraceSpan is also the one way a phase is timed: the same measurement
/// can feed a registry histogram and a per-tick total.
///
/// Track (tid) convention: 0 is the main/sequential thread; parallel script
/// shards record on tid = shard index + 1 so the fan-out is visible as
/// parallel tracks.
///
/// Recording takes a mutex per span end. Spans bound whole tick phases
/// (microseconds to milliseconds), not per-entity work, so contention is
/// nil; a disabled tracer costs one relaxed load per would-be span.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/percentile.h"
#include "common/status.h"
#include "telemetry/registry.h"

namespace gamedb::telemetry {

/// One completed span, timestamps in nanoseconds from MonotonicNanos().
struct TraceEvent {
  std::string name;
  uint64_t ts_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t tid = 0;
};

/// Collects spans. Thread-safe; disabled by default.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void RecordSpan(std::string name, uint64_t ts_ns, uint64_t dur_ns,
                  uint32_t tid) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(TraceEvent{std::move(name), ts_ns, dur_ns, tid});
  }

  std::vector<TraceEvent> Events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
  }

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

/// RAII span: stamps the start on construction, records on destruction.
/// Besides the tracer, a span has two optional targets: `histogram` gets
/// the duration as one sample (a tick phase's `<phase>_ns`), and `total`
/// has the duration added to it (what a tick sums to find the time its
/// phases leave over). The span takes timestamps only when an enabled
/// tracer or a histogram is wired; otherwise both ends are near-free and
/// `total` is left alone.
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, const char* name, uint32_t tid = 0,
            Histogram* histogram = nullptr, uint64_t* total = nullptr)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        histogram_(histogram),
        total_(total),
        name_(name),
        tid_(tid),
        start_ns_(timed() ? MonotonicNanos() : 0) {}

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    if (!timed()) return;
    const uint64_t dur_ns = MonotonicNanos() - start_ns_;
    if (tracer_ != nullptr) tracer_->RecordSpan(name_, start_ns_, dur_ns, tid_);
    if (histogram_ != nullptr) histogram_->Record(dur_ns);
    if (total_ != nullptr) *total_ += dur_ns;
  }

 private:
  bool timed() const { return tracer_ != nullptr || histogram_ != nullptr; }

  Tracer* tracer_;
  Histogram* histogram_;
  uint64_t* total_;
  const char* name_;
  uint32_t tid_;
  uint64_t start_ns_;
};

/// Renders every recorded span as Chrome trace_event JSON
/// ({"traceEvents":[{"name","cat","ph":"X","ts","dur","pid","tid"},...]}).
/// Timestamps are microseconds with 3 decimals, sorted by (ts, tid, name)
/// so the document is deterministic for a given set of spans.
std::string RenderChromeTraceJson(const Tracer& tracer);

/// Independent validator for the Chrome trace document: parses with the
/// shared common/json reader and checks every event is a well-formed
/// complete span.
Status ValidateChromeTraceJson(const std::string& doc);

}  // namespace gamedb::telemetry
