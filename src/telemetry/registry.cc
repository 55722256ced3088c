#include "telemetry/registry.h"

#include <algorithm>

#include "common/json.h"

namespace gamedb::telemetry {

uint64_t Histogram::Percentile(double p) const {
  // Relaxed snapshot of the buckets; rank logic mirrors
  // LatencyHistogram::Percentile over the identical bucket layout.
  std::array<uint64_t, kBuckets> snap;
  uint64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    snap[static_cast<size_t>(i)] =
        buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
    total += snap[static_cast<size_t>(i)];
  }
  if (total == 0) return 0;
  uint64_t lo = min_.load(std::memory_order_relaxed);
  uint64_t hi = max_.load(std::memory_order_relaxed);
  if (p >= 100.0) return hi;
  double want = p / 100.0 * static_cast<double>(total);
  auto target = static_cast<uint64_t>(want);
  if (static_cast<double>(target) < want || target == 0) ++target;
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += snap[static_cast<size_t>(i)];
    if (seen >= target) {
      return std::max(lo,
                      std::min(hi, LatencyHistogram::BucketUpperEdge(i)));
    }
  }
  return hi;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(name, std::unique_ptr<Counter>(new Counter(&enabled_)))
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::unique_ptr<Gauge>(new Gauge(&enabled_)))
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name,
                      std::unique_ptr<Histogram>(new Histogram(&enabled_)))
             .first;
  }
  return it->second.get();
}

std::vector<std::pair<std::string, uint64_t>> MetricsRegistry::CounterValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, int64_t>> MetricsRegistry::GaugeValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

std::vector<HistogramSummary> MetricsRegistry::HistogramValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<HistogramSummary> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSummary s;
    s.name = name;
    s.count = h->count();
    s.min = h->min();
    s.max = h->max();
    s.mean = h->mean();
    s.p50 = h->Percentile(50.0);
    s.p99 = h->Percentile(99.0);
    s.p999 = h->Percentile(99.9);
    out.push_back(std::move(s));
  }
  return out;
}

std::string RenderTelemetryJson(const MetricsRegistry& registry) {
  // Hand-rolled, deterministic key order: schema, counters, gauges,
  // histograms; instrument names sorted (std::map iteration order).
  std::string out = "{\n";
  out += "  \"schema\": \"";
  out += kTelemetrySchema;
  out += "\",\n";

  out += "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : registry.CounterValues()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + json::Quote(name) + ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : registry.GaugeValues()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + json::Quote(name) + ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const HistogramSummary& h : registry.HistogramValues()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + json::Quote(h.name) + ": {";
    out += "\"count\": " + std::to_string(h.count);
    out += ", \"min\": " + std::to_string(h.min);
    out += ", \"max\": " + std::to_string(h.max);
    out += ", \"mean\": " + json::Fixed3(h.mean);
    out += ", \"p50\": " + std::to_string(h.p50);
    out += ", \"p99\": " + std::to_string(h.p99);
    out += ", \"p999\": " + std::to_string(h.p999);
    out += "}";
  }
  out += first ? "}\n" : "\n  }\n";

  out += "}\n";
  return out;
}

namespace {

Status SchemaFail(const std::string& what) {
  return Status::SchemaMismatch("telemetry json schema violation: " + what);
}

bool IsNonNegativeNumber(const json::JsonValue& v) {
  return v.Is(json::JsonValue::Kind::kNumber) && v.number >= 0.0;
}

}  // namespace

Status ValidateTelemetryJson(const std::string& doc) {
  Result<json::JsonValue> parsed = json::ParseJson(doc);
  if (!parsed.ok()) return parsed.status();
  const json::JsonValue& root = *parsed;
  if (!root.Is(json::JsonValue::Kind::kObject)) {
    return SchemaFail("root is not an object");
  }
  const json::JsonValue* schema = root.Find("schema");
  if (schema == nullptr || !schema->Is(json::JsonValue::Kind::kString)) {
    return SchemaFail("missing schema tag");
  }
  if (schema->str != kTelemetrySchema) {
    return SchemaFail("unexpected schema tag '" + schema->str + "'");
  }
  for (const char* section : {"counters", "gauges"}) {
    const json::JsonValue* obj = root.Find(section);
    if (obj == nullptr || !obj->Is(json::JsonValue::Kind::kObject)) {
      return SchemaFail(std::string(section) + " is not an object");
    }
    std::string prev;
    bool have_prev = false;
    for (const auto& [name, value] : obj->members) {
      if (!value.Is(json::JsonValue::Kind::kNumber)) {
        return SchemaFail(std::string(section) + "." + name +
                          " is not a number");
      }
      if (have_prev && !(prev < name)) {
        return SchemaFail(std::string(section) + " keys not sorted at '" +
                          name + "'");
      }
      prev = name;
      have_prev = true;
    }
  }
  const json::JsonValue* hists = root.Find("histograms");
  if (hists == nullptr || !hists->Is(json::JsonValue::Kind::kObject)) {
    return SchemaFail("histograms is not an object");
  }
  std::string prev;
  bool have_prev = false;
  for (const auto& [name, h] : hists->members) {
    if (!h.Is(json::JsonValue::Kind::kObject)) {
      return SchemaFail("histograms." + name + " is not an object");
    }
    if (have_prev && !(prev < name)) {
      return SchemaFail("histogram keys not sorted at '" + name + "'");
    }
    prev = name;
    have_prev = true;
    for (const char* field :
         {"count", "min", "max", "mean", "p50", "p99", "p999"}) {
      const json::JsonValue* v = h.Find(field);
      if (v == nullptr || !IsNonNegativeNumber(*v)) {
        return SchemaFail("histograms." + name + "." + field +
                          " missing or not a non-negative number");
      }
    }
    const json::JsonValue* count = h.Find("count");
    const json::JsonValue* minv = h.Find("min");
    const json::JsonValue* maxv = h.Find("max");
    if (count->number > 0.0 && minv->number > maxv->number) {
      return SchemaFail("histograms." + name + " has min > max");
    }
  }
  return Status::OK();
}

}  // namespace gamedb::telemetry
