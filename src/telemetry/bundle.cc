#include "telemetry/bundle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/json.h"

namespace gamedb::telemetry {

namespace {

/// Integral doubles (counter deltas, ns durations, percentile estimates)
/// print as integers; the rest keep six decimals.
std::string Num(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) &&
      std::fabs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else if (std::isfinite(v)) {
    std::snprintf(buf, sizeof(buf), "%.6f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "0");
  }
  return buf;
}

/// Re-indents an embedded multi-line JSON document by `pad` spaces (the
/// first line is emitted at the insertion point, so it gets no pad).
std::string Indent(const std::string& doc, int pad) {
  std::string out;
  out.reserve(doc.size());
  const std::string padding(static_cast<size_t>(pad), ' ');
  bool at_line_start = false;
  for (char c : doc) {
    if (c == '\n') {
      out.push_back(c);
      at_line_start = true;
      continue;
    }
    if (at_line_start) {
      out += padding;
      at_line_start = false;
    }
    out.push_back(c);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

}  // namespace

std::string SloCheck::ToString() const {
  std::string out = name + ": measured " + json::Fixed3(measured_ms) +
                    " ms vs allowed " + json::Fixed3(target_ms) + " ms";
  out += violated ? " [VIOLATED]" : " [ok]";
  return out;
}

std::string RenderFlightRecorderBundle(const BundleInputs& inputs) {
  std::string out = "{\n";
  out += "  \"schema\": \"";
  out += kFlightRecSchema;
  out += "\",\n";

  out += "  \"trigger\": {\"reason\": " + json::Quote(inputs.reason) +
         ", \"tick\": " + std::to_string(inputs.tick) +
         ", \"scenario\": " + json::Quote(inputs.scenario) + "},\n";

  out += "  \"rules\": [";
  bool first = true;
  if (inputs.watchdog != nullptr) {
    for (const RuleStatus& st : inputs.watchdog->status()) {
      out += first ? "\n" : ",\n";
      first = false;
      const HealthRule& r = st.rule;
      out += "    {\"name\": " + json::Quote(r.name);
      out += ", \"rendered\": " + json::Quote(r.ToString());
      out += ", \"metric\": " + json::Quote(r.metric);
      out += ", \"aggregation\": \"";
      out += AggregationName(r.aggregation);
      out += "\", \"window\": " + std::to_string(r.window);
      out += ", \"op\": \"";
      out += r.above ? "gt" : "lt";
      out += "\", \"threshold\": " + Num(r.threshold);
      out += ", \"severity\": \"";
      out += SeverityName(r.severity);
      out += "\", \"for_ticks\": " + std::to_string(r.for_ticks);
      out += ", \"clear_ticks\": " + std::to_string(r.clear_ticks);
      out += ", \"evaluated\": ";
      out += st.evaluated ? "true" : "false";
      out += ", \"tripped\": ";
      out += st.tripped ? "true" : "false";
      out += ", \"trip_count\": " + std::to_string(st.trip_count);
      out += ", \"tripped_tick\": " + std::to_string(st.tripped_tick);
      out += ", \"last_value\": " + Num(st.last_value);
      out += ", \"evaluations\": " + std::to_string(st.evaluations);
      out += "}";
    }
  }
  out += first ? "],\n" : "\n  ],\n";

  out += "  \"slo\": [";
  first = true;
  for (const SloCheck& check : inputs.slo_checks) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": " + json::Quote(check.name);
    out += ", \"target_ms\": " + Num(check.target_ms);
    out += ", \"measured_ms\": " + Num(check.measured_ms);
    out += ", \"violated\": ";
    out += check.violated ? "true" : "false";
    out += ", \"rendered\": " + json::Quote(check.ToString()) + "}";
  }
  out += first ? "],\n" : "\n  ],\n";

  out += "  \"series\": [";
  first = true;
  if (inputs.recorder != nullptr) {
    for (const FlightRecorder::Series& s : inputs.recorder->Snapshot()) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    {\"name\": " + json::Quote(s.name);
      out += ", \"kind\": \"";
      out += SeriesKindName(s.kind);
      out += "\", \"ticks\": [";
      for (size_t i = 0; i < s.ticks.size(); ++i) {
        if (i != 0) out += ", ";
        out += std::to_string(s.ticks[i]);
      }
      out += "], \"values\": [";
      for (size_t i = 0; i < s.values.size(); ++i) {
        if (i != 0) out += ", ";
        out += Num(s.values[i]);
      }
      out += "]}";
    }
  }
  out += first ? "],\n" : "\n  ],\n";

  if (inputs.metrics != nullptr) {
    out += "  \"metrics\": " +
           Indent(RenderTelemetryJson(*inputs.metrics), 2) + ",\n";
  } else {
    out += "  \"metrics\": null,\n";
  }

  out += "  \"trace\": [";
  first = true;
  if (inputs.tracer != nullptr) {
    std::vector<TraceEvent> events = inputs.tracer->Events();
    std::sort(events.begin(), events.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                if (a.tid != b.tid) return a.tid < b.tid;
                return a.name < b.name;
              });
    for (const TraceEvent& e : events) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    {\"name\": " + json::Quote(e.name);
      out += ", \"ts_ns\": " + std::to_string(e.ts_ns);
      out += ", \"dur_ns\": " + std::to_string(e.dur_ns);
      out += ", \"tid\": " + std::to_string(e.tid);
      out += "}";
    }
  }
  out += first ? "],\n" : "\n  ],\n";

  out += "  \"plans\": [";
  first = true;
  for (const std::string& plan : inputs.hot_plans) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + json::Quote(plan);
  }
  out += first ? "]\n" : "\n  ]\n";

  out += "}\n";
  return out;
}

namespace {

Status Fail(const std::string& what) {
  return Status::SchemaMismatch("flightrec bundle schema violation: " + what);
}

bool IsString(const json::JsonValue* v) {
  return v != nullptr && v->Is(json::JsonValue::Kind::kString);
}
bool IsNumber(const json::JsonValue* v) {
  return v != nullptr && v->Is(json::JsonValue::Kind::kNumber);
}
bool IsBool(const json::JsonValue* v) {
  return v != nullptr && v->Is(json::JsonValue::Kind::kBool);
}

bool OneOf(const std::string& s, std::initializer_list<const char*> opts) {
  for (const char* o : opts) {
    if (s == o) return true;
  }
  return false;
}

Status ValidateRules(const json::JsonValue& rules) {
  if (!rules.Is(json::JsonValue::Kind::kArray)) {
    return Fail("rules is not an array");
  }
  for (size_t i = 0; i < rules.elements.size(); ++i) {
    const json::JsonValue& r = rules.elements[i];
    const std::string at = "rules[" + std::to_string(i) + "]";
    if (!r.Is(json::JsonValue::Kind::kObject)) {
      return Fail(at + " is not an object");
    }
    for (const char* f : {"name", "rendered", "metric"}) {
      if (!IsString(r.Find(f))) {
        return Fail(at + "." + f + " missing or not a string");
      }
    }
    const json::JsonValue* agg = r.Find("aggregation");
    if (!IsString(agg) ||
        !OneOf(agg->str, {"last", "mean", "min", "max", "sum"})) {
      return Fail(at + ".aggregation missing or not a known aggregation");
    }
    const json::JsonValue* op = r.Find("op");
    if (!IsString(op) || !OneOf(op->str, {"gt", "lt"})) {
      return Fail(at + ".op missing or not gt|lt");
    }
    const json::JsonValue* sev = r.Find("severity");
    if (!IsString(sev) || !OneOf(sev->str, {"info", "warning", "critical"})) {
      return Fail(at + ".severity missing or not a known severity");
    }
    for (const char* f : {"window", "threshold", "for_ticks", "clear_ticks",
                          "trip_count", "tripped_tick", "last_value",
                          "evaluations"}) {
      if (!IsNumber(r.Find(f))) {
        return Fail(at + "." + f + " missing or not a number");
      }
    }
    for (const char* f : {"evaluated", "tripped"}) {
      if (!IsBool(r.Find(f))) {
        return Fail(at + "." + f + " missing or not a bool");
      }
    }
    if (r.Find("window")->number < 1.0) {
      return Fail(at + ".window must be >= 1");
    }
  }
  return Status::OK();
}

Status ValidateSlo(const json::JsonValue& slo) {
  if (!slo.Is(json::JsonValue::Kind::kArray)) {
    return Fail("slo is not an array");
  }
  for (size_t i = 0; i < slo.elements.size(); ++i) {
    const json::JsonValue& c = slo.elements[i];
    const std::string at = "slo[" + std::to_string(i) + "]";
    if (!c.Is(json::JsonValue::Kind::kObject)) {
      return Fail(at + " is not an object");
    }
    if (!IsString(c.Find("name")) || !IsString(c.Find("rendered"))) {
      return Fail(at + ".name/rendered missing or not strings");
    }
    for (const char* f : {"target_ms", "measured_ms"}) {
      const json::JsonValue* v = c.Find(f);
      if (!IsNumber(v) || v->number < 0.0) {
        return Fail(at + "." + f + " missing or not a non-negative number");
      }
    }
    if (!IsBool(c.Find("violated"))) {
      return Fail(at + ".violated missing or not a bool");
    }
  }
  return Status::OK();
}

Status ValidateSeries(const json::JsonValue& series) {
  if (!series.Is(json::JsonValue::Kind::kArray)) {
    return Fail("series is not an array");
  }
  std::string prev;
  bool have_prev = false;
  for (size_t i = 0; i < series.elements.size(); ++i) {
    const json::JsonValue& s = series.elements[i];
    const std::string at = "series[" + std::to_string(i) + "]";
    if (!s.Is(json::JsonValue::Kind::kObject)) {
      return Fail(at + " is not an object");
    }
    const json::JsonValue* name = s.Find("name");
    if (!IsString(name)) return Fail(at + ".name missing or not a string");
    if (have_prev && !(prev < name->str)) {
      return Fail("series not sorted by name at '" + name->str + "'");
    }
    prev = name->str;
    have_prev = true;
    const json::JsonValue* kind = s.Find("kind");
    if (!IsString(kind) ||
        !OneOf(kind->str, {"counter_delta", "gauge", "hist_p50", "hist_p99",
                           "hist_p999", "hist_count"})) {
      return Fail(at + ".kind missing or not a known series kind");
    }
    const json::JsonValue* ticks = s.Find("ticks");
    const json::JsonValue* values = s.Find("values");
    if (ticks == nullptr || !ticks->Is(json::JsonValue::Kind::kArray)) {
      return Fail(at + ".ticks missing or not an array");
    }
    if (values == nullptr || !values->Is(json::JsonValue::Kind::kArray)) {
      return Fail(at + ".values missing or not an array");
    }
    if (ticks->elements.size() != values->elements.size()) {
      return Fail(at + " ticks/values length mismatch");
    }
    if (ticks->elements.empty()) {
      return Fail(at + " is empty (never-sampled series must be omitted)");
    }
    double prev_tick = -1.0;
    for (const json::JsonValue& t : ticks->elements) {
      if (!t.Is(json::JsonValue::Kind::kNumber) || t.number < 0.0) {
        return Fail(at + ".ticks entry not a non-negative number");
      }
      if (t.number < prev_tick) {
        return Fail(at + ".ticks not non-decreasing");
      }
      prev_tick = t.number;
    }
    for (const json::JsonValue& v : values->elements) {
      if (!v.Is(json::JsonValue::Kind::kNumber)) {
        return Fail(at + ".values entry not a number");
      }
    }
  }
  return Status::OK();
}

Status ValidateMetrics(const json::JsonValue& metrics) {
  if (metrics.Is(json::JsonValue::Kind::kNull)) return Status::OK();
  if (!metrics.Is(json::JsonValue::Kind::kObject)) {
    return Fail("metrics is not an object or null");
  }
  const json::JsonValue* schema = metrics.Find("schema");
  if (!IsString(schema) || schema->str != kTelemetrySchema) {
    return Fail("metrics.schema missing or not '" +
                std::string(kTelemetrySchema) + "'");
  }
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const json::JsonValue* obj = metrics.Find(section);
    if (obj == nullptr || !obj->Is(json::JsonValue::Kind::kObject)) {
      return Fail(std::string("metrics.") + section + " is not an object");
    }
  }
  return Status::OK();
}

Status ValidateTrace(const json::JsonValue& trace) {
  if (!trace.Is(json::JsonValue::Kind::kArray)) {
    return Fail("trace is not an array");
  }
  for (size_t i = 0; i < trace.elements.size(); ++i) {
    const json::JsonValue& e = trace.elements[i];
    const std::string at = "trace[" + std::to_string(i) + "]";
    if (!e.Is(json::JsonValue::Kind::kObject)) {
      return Fail(at + " is not an object");
    }
    if (!IsString(e.Find("name"))) {
      return Fail(at + ".name missing or not a string");
    }
    for (const char* f : {"ts_ns", "dur_ns", "tid"}) {
      const json::JsonValue* v = e.Find(f);
      if (!IsNumber(v) || v->number < 0.0) {
        return Fail(at + "." + f + " missing or not a non-negative number");
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status ValidateFlightRecorderBundle(const std::string& doc) {
  Result<json::JsonValue> parsed = json::ParseJson(doc);
  if (!parsed.ok()) return parsed.status();
  const json::JsonValue& root = *parsed;
  if (!root.Is(json::JsonValue::Kind::kObject)) {
    return Fail("root is not an object");
  }
  const json::JsonValue* schema = root.Find("schema");
  if (!IsString(schema)) return Fail("missing schema tag");
  if (schema->str != kFlightRecSchema) {
    return Fail("unexpected schema tag '" + schema->str + "'");
  }

  const json::JsonValue* trigger = root.Find("trigger");
  if (trigger == nullptr || !trigger->Is(json::JsonValue::Kind::kObject)) {
    return Fail("trigger is not an object");
  }
  if (!IsString(trigger->Find("reason"))) {
    return Fail("trigger.reason missing or not a string");
  }
  if (!IsString(trigger->Find("scenario"))) {
    return Fail("trigger.scenario missing or not a string");
  }
  const json::JsonValue* tick = trigger->Find("tick");
  if (!IsNumber(tick) || tick->number < 0.0) {
    return Fail("trigger.tick missing or not a non-negative number");
  }

  const json::JsonValue* rules = root.Find("rules");
  if (rules == nullptr) return Fail("missing rules section");
  GAMEDB_RETURN_NOT_OK(ValidateRules(*rules));

  const json::JsonValue* slo = root.Find("slo");
  if (slo == nullptr) return Fail("missing slo section");
  GAMEDB_RETURN_NOT_OK(ValidateSlo(*slo));

  const json::JsonValue* series = root.Find("series");
  if (series == nullptr) return Fail("missing series section");
  GAMEDB_RETURN_NOT_OK(ValidateSeries(*series));

  const json::JsonValue* metrics = root.Find("metrics");
  if (metrics == nullptr) return Fail("missing metrics section");
  GAMEDB_RETURN_NOT_OK(ValidateMetrics(*metrics));

  const json::JsonValue* trace = root.Find("trace");
  if (trace == nullptr) return Fail("missing trace section");
  GAMEDB_RETURN_NOT_OK(ValidateTrace(*trace));

  const json::JsonValue* plans = root.Find("plans");
  if (plans == nullptr || !plans->Is(json::JsonValue::Kind::kArray)) {
    return Fail("plans is not an array");
  }
  for (size_t i = 0; i < plans->elements.size(); ++i) {
    if (!plans->elements[i].Is(json::JsonValue::Kind::kString)) {
      return Fail("plans[" + std::to_string(i) + "] is not a string");
    }
  }
  return Status::OK();
}

}  // namespace gamedb::telemetry
