#include "loadgen/metrics.h"

#include <fstream>

#include "common/json.h"
#include "common/macros.h"

namespace gamedb::loadgen {

namespace {

// --- Rendering --------------------------------------------------------------

/// Streams `"key": value` pairs with fixed order and indentation.
class ObjectWriter {
 public:
  ObjectWriter(std::string* out, int indent) : out_(out), indent_(indent) {
    *out_ += "{";
  }
  void Field(const char* key, const std::string& s) {
    Key(key);
    *out_ += json::Quote(s);
  }
  void Field(const char* key, uint64_t v) {
    Key(key);
    *out_ += std::to_string(v);
  }
  void Field(const char* key, double v) {
    Key(key);
    *out_ += json::Fixed3(v);
  }
  void Field(const char* key, bool v) {
    Key(key);
    *out_ += v ? "true" : "false";
  }
  /// Opens a nested object; `body` fills it via its own ObjectWriter.
  template <typename Fn>
  void Object(const char* key, Fn body) {
    Key(key);
    ObjectWriter child(out_, indent_ + 2);
    body(child);
    child.Close();
  }
  void Close() {
    *out_ += '\n' + std::string(indent_ > 2 ? indent_ - 2 : 0, ' ') + "}";
  }

 private:
  void Key(const char* key) {
    if (!first_) *out_ += ',';
    first_ = false;
    *out_ += '\n' + std::string(indent_, ' ') + '"' + key + "\": ";
  }
  std::string* out_;
  int indent_;
  bool first_ = true;
};

void RenderSummary(ObjectWriter& w, const telemetry::HistogramSummary& s) {
  w.Object(s.name.c_str(), [&](ObjectWriter& o) {
    o.Field("count", s.count);
    o.Field("p50", s.p50);
    o.Field("p99", s.p99);
    o.Field("p999", s.p999);
    o.Field("max", s.max);
    o.Field("mean", s.mean);
  });
}

// --- Schema checks ----------------------------------------------------------

using json::JsonValue;

Status Require(const JsonValue& obj, const char* section, const char* key,
               JsonValue::Kind kind) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) {
    return Status::InvalidArgument(std::string("schema: missing ") + section +
                                   "." + key);
  }
  if (v->kind != kind) {
    return Status::InvalidArgument(std::string("schema: wrong type for ") +
                                   section + "." + key);
  }
  return Status::OK();
}

Status CheckSummary(const JsonValue& timing, const std::string& key) {
  const JsonValue* s = timing.Find(key);
  if (s == nullptr || s->kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("schema: missing timing." + key);
  }
  for (const char* field : {"count", "p50", "p99", "p999", "max", "mean"}) {
    GAMEDB_RETURN_NOT_OK(
        Require(*s, key.c_str(), field, JsonValue::Kind::kNumber));
  }
  return Status::OK();
}

}  // namespace

std::string RenderReportJson(const ScenarioReport& report) {
  std::string out;
  out.reserve(2048);
  ObjectWriter root(&out, 2);
  root.Field("schema", std::string(kReportSchema));
  root.Object("config", [&](ObjectWriter& o) {
    const ScenarioConfig& c = report.config;
    o.Field("scenario", c.scenario);
    o.Field("clients", static_cast<uint64_t>(c.clients));
    o.Field("npcs", static_cast<uint64_t>(c.npcs));
    o.Field("ticks", static_cast<uint64_t>(c.ticks));
    o.Field("seed", c.seed);
    // Thread count is an execution detail the determinism contract says
    // cannot affect results; replay-mode reports omit it so the whole file
    // is byte-identical at any thread count.
    if (c.collect_timing) {
      o.Field("threads", static_cast<uint64_t>(c.threads));
    }
    o.Field("planner", std::string(c.planner_on ? "on" : "off"));
    o.Field("arena", static_cast<double>(c.arena));
    o.Field("interest_radius", static_cast<double>(c.interest_radius));
    o.Field("collect_timing", c.collect_timing);
  });
  root.Object("deterministic", [&](ObjectWriter& o) {
    o.Field("world_hash", report.world_hash);
    o.Field("final_entities", report.final_entities);
    o.Field("peak_entities", report.peak_entities);
    o.Field("logins", report.logins);
    o.Field("logouts", report.logouts);
    o.Field("spawns", report.spawns);
    o.Field("despawns", report.despawns);
    o.Field("deaths", report.deaths);
    o.Field("sync_bytes_total", report.sync_bytes_total);
    o.Field("sync_rows_total", report.sync_rows_total);
    o.Field("sync_removals_total", report.sync_removals_total);
    o.Field("client_ticks", report.client_ticks);
    o.Field("sync_bytes_per_client_tick", report.sync_bytes_per_client_tick);
    o.Field("script_errors", report.script_errors);
    o.Field("effect_contributions", report.effect_contributions);
    o.Field("deferred_ops", report.deferred_ops);
    o.Field("view_rounds", report.view_rounds);
    o.Field("view_change_records", report.view_change_records);
    o.Field("wounded_final", report.wounded_final);
    o.Field("critical_final", report.critical_final);
    o.Field("checkpoints", report.checkpoints);
    o.Field("wal_records", report.wal_records);
    o.Field("recovery_tick", report.recovery_tick);
  });
  if (report.config.collect_timing) {
    root.Object("timing", [&](ObjectWriter& o) {
      RenderSummary(o, report.tick);
      for (const auto& phase : report.phases) RenderSummary(o, phase);
      o.Object("slo", [&](ObjectWriter& slo) {
        slo.Field("evaluated", report.slo_evaluated);
        slo.Field("violated", report.slo_violated);
        slo.Field("detail", report.slo_detail);
        // One structured record per configured gate (passed or not), keyed
        // by gate name — the evidence --enforce-slo prints and bundles
        // embed.
        slo.Object("checks", [&](ObjectWriter& checks) {
          for (const auto& c : report.slo_checks) {
            checks.Object(c.name.c_str(), [&](ObjectWriter& w) {
              w.Field("target_ms", c.target_ms);
              w.Field("measured_ms", c.measured_ms);
              w.Field("violated", c.violated);
            });
          }
        });
      });
    });
  }
  root.Close();
  out += '\n';
  return out;
}

std::string ReportFileName(const std::string& scenario) {
  return "BENCH_e15_" + scenario + ".json";
}

Result<std::string> WriteReportFile(const ScenarioReport& report,
                                    const std::string& dir) {
  std::string path = dir.empty()
                         ? ReportFileName(report.config.scenario)
                         : dir + "/" + ReportFileName(report.config.scenario);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path);
  out << RenderReportJson(report);
  out.flush();
  if (!out) return Status::IOError("write failed: " + path);
  return path;
}

Status ValidateReportJson(const std::string& doc) {
  GAMEDB_ASSIGN_OR_RETURN(JsonValue root, json::ParseJson(doc));
  if (root.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("schema: top level must be an object");
  }
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::kString) {
    return Status::InvalidArgument("schema: missing schema tag");
  }
  if (schema->str != kReportSchema) {
    return Status::InvalidArgument("schema: unknown schema '" + schema->str +
                                   "'");
  }

  const JsonValue* config = root.Find("config");
  if (config == nullptr || config->kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("schema: missing config object");
  }
  GAMEDB_RETURN_NOT_OK(
      Require(*config, "config", "scenario", JsonValue::Kind::kString));
  for (const char* key : {"clients", "npcs", "ticks", "seed"}) {
    GAMEDB_RETURN_NOT_OK(
        Require(*config, "config", key, JsonValue::Kind::kNumber));
  }
  // `threads` is omitted from replay-mode reports (see RenderReportJson).
  const JsonValue* threads = config->Find("threads");
  if (threads != nullptr && threads->kind != JsonValue::Kind::kNumber) {
    return Status::InvalidArgument("schema: wrong type for config.threads");
  }
  GAMEDB_RETURN_NOT_OK(
      Require(*config, "config", "planner", JsonValue::Kind::kString));
  GAMEDB_RETURN_NOT_OK(Require(*config, "config", "collect_timing",
                               JsonValue::Kind::kBool));

  const JsonValue* det = root.Find("deterministic");
  if (det == nullptr || det->kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("schema: missing deterministic object");
  }
  GAMEDB_RETURN_NOT_OK(Require(*det, "deterministic", "world_hash",
                               JsonValue::Kind::kString));
  for (const char* key :
       {"final_entities", "peak_entities", "logins", "logouts", "spawns",
        "despawns", "deaths", "sync_bytes_total", "sync_rows_total",
        "sync_removals_total", "client_ticks", "sync_bytes_per_client_tick",
        "script_errors", "effect_contributions", "deferred_ops",
        "view_rounds", "view_change_records", "wounded_final",
        "critical_final", "checkpoints", "wal_records", "recovery_tick"}) {
    GAMEDB_RETURN_NOT_OK(
        Require(*det, "deterministic", key, JsonValue::Kind::kNumber));
  }

  const JsonValue* timing = root.Find("timing");
  const JsonValue* collect = config->Find("collect_timing");
  if (collect != nullptr && collect->boolean) {
    if (timing == nullptr || timing->kind != JsonValue::Kind::kObject) {
      return Status::InvalidArgument(
          "schema: collect_timing=true but no timing object");
    }
  }
  if (timing != nullptr) {
    if (timing->kind != JsonValue::Kind::kObject) {
      return Status::InvalidArgument("schema: timing must be an object");
    }
    GAMEDB_RETURN_NOT_OK(CheckSummary(*timing, "tick_ns"));
    for (const char* phase : kTickPhases) {
      GAMEDB_RETURN_NOT_OK(
          CheckSummary(*timing, std::string(phase) + "_ns"));
    }
    GAMEDB_RETURN_NOT_OK(CheckSummary(*timing, "tick.unattributed_ns"));
    const JsonValue* slo = timing->Find("slo");
    if (slo == nullptr || slo->kind != JsonValue::Kind::kObject) {
      return Status::InvalidArgument("schema: missing timing.slo");
    }
    GAMEDB_RETURN_NOT_OK(
        Require(*slo, "timing.slo", "evaluated", JsonValue::Kind::kBool));
    GAMEDB_RETURN_NOT_OK(
        Require(*slo, "timing.slo", "violated", JsonValue::Kind::kBool));
    const JsonValue* checks = slo->Find("checks");
    if (checks == nullptr || checks->kind != JsonValue::Kind::kObject) {
      return Status::InvalidArgument("schema: missing timing.slo.checks");
    }
    for (const auto& [name, check] : checks->members) {
      if (check.kind != JsonValue::Kind::kObject) {
        return Status::InvalidArgument("schema: timing.slo.checks." + name +
                                       " must be an object");
      }
      const std::string at = "timing.slo.checks." + name;
      GAMEDB_RETURN_NOT_OK(
          Require(check, at.c_str(), "target_ms", JsonValue::Kind::kNumber));
      GAMEDB_RETURN_NOT_OK(
          Require(check, at.c_str(), "measured_ms", JsonValue::Kind::kNumber));
      GAMEDB_RETURN_NOT_OK(
          Require(check, at.c_str(), "violated", JsonValue::Kind::kBool));
    }
  }
  return Status::OK();
}

}  // namespace gamedb::loadgen
