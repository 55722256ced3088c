#include "telemetry/trace.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "common/json.h"

namespace gamedb::telemetry {

namespace {

/// Nanoseconds -> microseconds with 3 decimals (chrome ts/dur unit).
std::string Micros(uint64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

}  // namespace

std::string RenderChromeTraceJson(const Tracer& tracer) {
  std::vector<TraceEvent> events = tracer.Events();
  // Parallel shards append in completion order; sort so the same set of
  // spans always renders the same bytes.
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return std::tie(a.ts_ns, a.tid, a.name) <
                     std::tie(b.ts_ns, b.tid, b.name);
            });
  std::string out = "{\n";
  out += "  \"displayTimeUnit\": \"ms\",\n";
  out += "  \"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& e : events) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": " + json::Quote(e.name);
    out += ", \"cat\": \"gamedb\"";
    out += ", \"ph\": \"X\"";
    out += ", \"ts\": " + Micros(e.ts_ns);
    out += ", \"dur\": " + Micros(e.dur_ns);
    out += ", \"pid\": 1";
    out += ", \"tid\": " + std::to_string(e.tid);
    out += "}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

namespace {

Status SchemaFail(const std::string& what) {
  return Status::SchemaMismatch("trace json schema violation: " + what);
}

}  // namespace

Status ValidateChromeTraceJson(const std::string& doc) {
  Result<json::JsonValue> parsed = json::ParseJson(doc);
  if (!parsed.ok()) return parsed.status();
  const json::JsonValue& root = *parsed;
  if (!root.Is(json::JsonValue::Kind::kObject)) {
    return SchemaFail("root is not an object");
  }
  const json::JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || !events->Is(json::JsonValue::Kind::kArray)) {
    return SchemaFail("traceEvents missing or not an array");
  }
  size_t i = 0;
  for (const json::JsonValue& e : events->elements) {
    const std::string at = "traceEvents[" + std::to_string(i) + "]";
    ++i;
    if (!e.Is(json::JsonValue::Kind::kObject)) {
      return SchemaFail(at + " is not an object");
    }
    const json::JsonValue* name = e.Find("name");
    if (name == nullptr || !name->Is(json::JsonValue::Kind::kString) ||
        name->str.empty()) {
      return SchemaFail(at + ".name missing or empty");
    }
    const json::JsonValue* ph = e.Find("ph");
    if (ph == nullptr || !ph->Is(json::JsonValue::Kind::kString) ||
        ph->str != "X") {
      return SchemaFail(at + ".ph is not a complete-event \"X\"");
    }
    for (const char* field : {"ts", "dur", "pid", "tid"}) {
      const json::JsonValue* v = e.Find(field);
      if (v == nullptr || !v->Is(json::JsonValue::Kind::kNumber) ||
          v->number < 0.0) {
        return SchemaFail(at + "." + field +
                          " missing or not a non-negative number");
      }
    }
  }
  return Status::OK();
}

}  // namespace gamedb::telemetry
