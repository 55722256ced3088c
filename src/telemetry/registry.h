#pragma once

/// \file registry.h
/// Named metrics registry: counters, gauges and log-linear histograms that
/// every subsystem can bump from its hot path without locks.
///
/// Design constraints, in order:
///   1. Near-zero cost when telemetry is off. Every instrument holds a
///      pointer to its registry's enabled flag; a disabled Add() is one
///      relaxed load and a branch.
///   2. Lock-free recording. Instruments are plain relaxed atomics; the
///      registry mutex is only taken on FindOrCreate (cold: subsystems
///      cache the returned pointers at construction) and on snapshot.
///   3. One deterministic JSON dump. RenderTelemetryJson emits the
///      schema-tagged `gamedb.telemetry.v1` document with keys in sorted
///      order; ValidateTelemetryJson re-reads it through the independent
///      common/json parser (same discipline as the `gamedb.e15.v1` report).
///
/// Instrument pointers returned by the registry are stable for the
/// registry's lifetime and safe to use from any thread.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/percentile.h"
#include "common/status.h"

namespace gamedb::telemetry {

class MetricsRegistry;

/// Monotonically increasing event count.
class Counter {
 public:
  void Add(uint64_t n) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::atomic<uint64_t> value_{0};
};

/// Last-writer-wins instantaneous level (can go down, can be negative).
class Gauge {
 public:
  void Set(int64_t v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t delta) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::atomic<int64_t> value_{0};
};

/// Point-in-time summary of one histogram, as exported in the snapshot.
struct HistogramSummary {
  std::string name;
  uint64_t count = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double mean = 0.0;
  uint64_t p50 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;
};

/// Lock-free log-linear histogram sharing LatencyHistogram's exact bucket
/// layout (32 sub-buckets per octave, values < 32 exact), so quantiles have
/// the same <=3.2% relative error and captures merge bucket-wise.
///
/// Record is wait-free per bucket; min/max use CAS loops. Quantile reads
/// take a relaxed snapshot of the buckets — exact once writers are
/// quiescent, a consistent-enough estimate while they are not.
class Histogram {
 public:
  static constexpr int kBuckets = LatencyHistogram::kBuckets;

  void Record(uint64_t v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    buckets_[static_cast<size_t>(LatencyHistogram::BucketFor(v))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    uint64_t seen = min_.load(std::memory_order_relaxed);
    while (v < seen &&
           !min_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t min() const {
    return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
  }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const {
    uint64_t c = count();
    return c == 0 ? 0.0
                  : static_cast<double>(sum_.load(std::memory_order_relaxed)) /
                        static_cast<double>(c);
  }

  /// Value at percentile `p` in (0, 100], same contract as
  /// LatencyHistogram::Percentile. 0 when empty.
  uint64_t Percentile(double p) const;

  /// Count, min, max, mean and p50/p99/p999 under `name`.
  HistogramSummary Summarize(std::string name) const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

/// Owns named instruments. Find-or-create is mutex-guarded (cold path);
/// recording through the returned pointers is lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Runtime kill-switch. Disabled (the default) means every instrument of
  /// this registry records nothing — values are frozen where they were.
  void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Find-or-create by name. The pointer stays valid for the registry's
  /// lifetime; call once per instrument and cache the result.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Sorted-by-name snapshots of every registered instrument.
  std::vector<std::pair<std::string, uint64_t>> CounterValues() const;
  std::vector<std::pair<std::string, int64_t>> GaugeValues() const;
  std::vector<HistogramSummary> HistogramValues() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Schema tag of the metrics snapshot document.
inline constexpr char kTelemetrySchema[] = "gamedb.telemetry.v1";

/// Renders the registry as the `gamedb.telemetry.v1` JSON snapshot:
/// counters/gauges/histograms objects with keys in sorted order.
std::string RenderTelemetryJson(const MetricsRegistry& registry);

/// Independent validator: parses `doc` with the shared common/json reader
/// and checks the `gamedb.telemetry.v1` structure. Never consults the
/// emitter above.
Status ValidateTelemetryJson(const std::string& doc);

}  // namespace gamedb::telemetry
