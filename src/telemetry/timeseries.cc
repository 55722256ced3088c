#include "telemetry/timeseries.h"

#include <algorithm>

namespace gamedb::telemetry {

const char* SeriesKindName(SeriesKind kind) {
  switch (kind) {
    case SeriesKind::kCounterDelta: return "counter_delta";
    case SeriesKind::kGauge: return "gauge";
    case SeriesKind::kHistP50: return "hist_p50";
    case SeriesKind::kHistP99: return "hist_p99";
    case SeriesKind::kHistP999: return "hist_p999";
    case SeriesKind::kHistCount: return "hist_count";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(const MetricsRegistry* registry)
    : FlightRecorder(registry, Options()) {}

FlightRecorder::FlightRecorder(const MetricsRegistry* registry, Options opts)
    : registry_(registry), opts_(opts) {
  if (opts_.capacity == 0) opts_.capacity = 1;
}

void FlightRecorder::SetEnabled(bool on) {
  if (on && registry_ != nullptr) {
    // Prime delta baselines so the first sample reports the increase since
    // enable, not the instrument's lifetime total.
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, value] : registry_->CounterValues()) {
      auto it = series_.find(name);
      if (it != series_.end()) {
        it->second.baseline = static_cast<double>(value);
        it->second.baseline_set = true;
      } else if (series_.size() < opts_.max_series) {
        Ring ring;
        ring.kind = SeriesKind::kCounterDelta;
        ring.baseline = static_cast<double>(value);
        ring.baseline_set = true;
        series_.emplace(name, std::move(ring));
      }
    }
    for (const HistogramSummary& h : registry_->HistogramValues()) {
      const std::string key = h.name + ":count";
      auto it = series_.find(key);
      if (it != series_.end()) {
        it->second.baseline = static_cast<double>(h.count);
        it->second.baseline_set = true;
      } else if (series_.size() < opts_.max_series) {
        Ring ring;
        ring.kind = SeriesKind::kHistCount;
        ring.baseline = static_cast<double>(h.count);
        ring.baseline_set = true;
        series_.emplace(key, std::move(ring));
      }
    }
  }
  enabled_.store(on, std::memory_order_relaxed);
}

void FlightRecorder::Push(const std::string& name, SeriesKind kind,
                          uint64_t tick, double value, bool is_delta) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    if (series_.size() >= opts_.max_series) {
      ++dropped_series_;
      return;
    }
    Ring ring;
    ring.kind = kind;
    it = series_.emplace(name, std::move(ring)).first;
  }
  Ring& ring = it->second;
  double recorded = value;
  if (is_delta) {
    // An instrument first seen mid-flight has no baseline: its first delta
    // is everything accumulated since the recorder was enabled (the
    // instrument did not exist at prime time, so that IS the delta).
    recorded = ring.baseline_set ? value - ring.baseline : value;
    ring.baseline = value;
    ring.baseline_set = true;
  }
  if (ring.ticks.size() < opts_.capacity) {
    ring.ticks.resize(opts_.capacity, 0);
    ring.values.resize(opts_.capacity, 0.0);
  }
  ring.ticks[ring.head] = tick;
  ring.values[ring.head] = recorded;
  ring.head = (ring.head + 1) % opts_.capacity;
  ring.size = std::min(ring.size + 1, opts_.capacity);
}

void FlightRecorder::Sample(uint64_t tick) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  if (registry_ == nullptr) return;
  // Instrument values are read through the same relaxed atomics the hot
  // paths write — safe against shards recording concurrently. The recorder
  // mutex only orders Sample against Snapshot/Find readers.
  std::lock_guard<std::mutex> lock(mu_);
  ++samples_;
  for (const auto& [name, value] : registry_->CounterValues()) {
    Push(name, SeriesKind::kCounterDelta, tick, static_cast<double>(value),
         /*is_delta=*/true);
  }
  for (const auto& [name, value] : registry_->GaugeValues()) {
    Push(name + ":gauge", SeriesKind::kGauge, tick,
         static_cast<double>(value), /*is_delta=*/false);
  }
  for (const HistogramSummary& h : registry_->HistogramValues()) {
    Push(h.name + ":p50", SeriesKind::kHistP50, tick,
         static_cast<double>(h.p50), /*is_delta=*/false);
    Push(h.name + ":p99", SeriesKind::kHistP99, tick,
         static_cast<double>(h.p99), /*is_delta=*/false);
    Push(h.name + ":p999", SeriesKind::kHistP999, tick,
         static_cast<double>(h.p999), /*is_delta=*/false);
    Push(h.name + ":count", SeriesKind::kHistCount, tick,
         static_cast<double>(h.count), /*is_delta=*/true);
  }
}

uint64_t FlightRecorder::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

size_t FlightRecorder::series_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

uint64_t FlightRecorder::dropped_series() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_series_;
}

void FlightRecorder::Unroll(const std::string& name, const Ring& ring,
                            Series* out) const {
  out->name = name;
  out->kind = ring.kind;
  out->ticks.clear();
  out->values.clear();
  out->ticks.reserve(ring.size);
  out->values.reserve(ring.size);
  const size_t start =
      (ring.head + opts_.capacity - ring.size) % opts_.capacity;
  for (size_t i = 0; i < ring.size; ++i) {
    const size_t idx = (start + i) % opts_.capacity;
    out->ticks.push_back(ring.ticks[idx]);
    out->values.push_back(ring.values[idx]);
  }
}

std::vector<FlightRecorder::Series> FlightRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Series> out;
  out.reserve(series_.size());
  for (const auto& [name, ring] : series_) {
    if (ring.size == 0) continue;  // primed at enable but never sampled
    Series s;
    Unroll(name, ring, &s);
    out.push_back(std::move(s));
  }
  return out;
}

bool FlightRecorder::Find(const std::string& name, Series* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(name);
  if (it == series_.end() || it->second.size == 0) return false;
  Unroll(name, it->second, out);
  return true;
}

}  // namespace gamedb::telemetry
