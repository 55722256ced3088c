#include "script/lint_report.h"

#include <cmath>

#include "common/json.h"
#include "common/string_util.h"

namespace gamedb::script {

namespace {

std::string WriteTargetName(uint8_t bits) {
  const bool self = (bits & kAccessWriteSelf) != 0;
  const bool foreign = (bits & kAccessWriteForeign) != 0;
  if (self && foreign) return "self+foreign";
  if (self) return "self";
  return "foreign";
}

}  // namespace

std::string RenderAccessReport(const std::string& origin,
                               const VerifyReport& report) {
  std::string out = origin + ": access summaries\n";
  for (size_t i = 0; i < report.entries.size(); ++i) {
    const EntryFacts& e = report.entries[i];
    out += StringFormat("  [%zu] %s: %s\n", i, e.name.c_str(),
                        AccessSummaryToString(e.facts.access).c_str());
    if (e.is_handler) {
      out += "      direct-write: n/a (trigger handler, runs in the apply "
             "phase)\n";
    } else {
      std::string reason;
      if (DirectWriteEligible(e, &reason)) {
        out += "      direct-write: yes\n";
      } else {
        out += "      direct-write: no — " + reason + "\n";
      }
    }
  }
  out += StringFormat("%s: conflict matrix (%zu entries, %zu edges)\n",
                      origin.c_str(), report.entries.size(),
                      report.conflicts.size());
  if (report.entries.size() < 2) {
    out += "  (fewer than two entries — nothing to conflict)\n";
    return out;
  }
  // Cell width follows the widest "[i]" tag so the grid stays aligned for
  // packs with 10+ entries.
  const size_t n = report.entries.size();
  size_t tag_w = StringFormat("[%zu]", n - 1).size();
  auto tag = [&](size_t i) {
    std::string t = StringFormat("[%zu]", i);
    return std::string(tag_w - t.size(), ' ') + t;
  };
  std::string header(2 + tag_w, ' ');
  for (size_t j = 0; j < n; ++j) header += " " + tag(j);
  out += header + "\n";
  std::vector<std::vector<bool>> grid(n, std::vector<bool>(n, false));
  for (const ConflictEdge& edge : report.conflicts) {
    grid[edge.a][edge.b] = true;
    grid[edge.b][edge.a] = true;
  }
  for (size_t i = 0; i < n; ++i) {
    std::string row = "  " + tag(i);
    for (size_t j = 0; j < n; ++j) {
      std::string cell = i == j ? "-" : grid[i][j] ? "X" : ".";
      row += " " + std::string(tag_w - 1, ' ') + cell;
    }
    out += row + "\n";
  }
  for (const ConflictEdge& edge : report.conflicts) {
    out += StringFormat("  [%zu]x[%zu] %s ~ %s: %s\n", edge.a, edge.b,
                        report.entries[edge.a].name.c_str(),
                        report.entries[edge.b].name.c_str(),
                        edge.reason.c_str());
  }
  return out;
}

namespace {

std::string DotEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string RenderConflictDot(const std::string& origin,
                              const VerifyReport& report) {
  std::string out = "graph conflicts {\n";
  out += "  label=\"" + DotEscape(origin) + "\";\n";
  out += "  node [shape=box];\n";
  for (size_t i = 0; i < report.entries.size(); ++i) {
    const EntryFacts& e = report.entries[i];
    out += StringFormat("  n%zu [label=\"%s\\n%s\"];\n", i,
                        DotEscape(e.name).c_str(),
                        DotEscape(EffectSetName(e.facts.effects)).c_str());
  }
  for (const ConflictEdge& edge : report.conflicts) {
    out += StringFormat("  n%zu -- n%zu [label=\"%s\"];\n", edge.a, edge.b,
                        DotEscape(edge.reason).c_str());
  }
  out += "}\n";
  return out;
}

// ---------------------------------------------------------------------------
// JSON emission
// ---------------------------------------------------------------------------

namespace {

using json::Quote;

std::string JsonNum(double v) {
  if (v == static_cast<int64_t>(v) && std::fabs(v) < 1e15) {
    return StringFormat("%lld", static_cast<long long>(v));
  }
  return StringFormat("%.17g", v);
}

const char* JsonBool(bool b) { return b ? "true" : "false"; }

}  // namespace

std::string RenderLintJson(const std::vector<LintFileResult>& files,
                           bool werror) {
  std::string out = "{\n";
  out += "  \"schema\": \"gamedb.gsl_lint.v1\",\n";
  out += StringFormat("  \"werror\": %s,\n", JsonBool(werror));
  out += "  \"files\": [";
  for (size_t fi = 0; fi < files.size(); ++fi) {
    const LintFileResult& f = files[fi];
    out += fi == 0 ? "\n" : ",\n";
    out += "    {\n";
    out += "      \"file\": " + Quote(f.file) + ",\n";
    out += "      \"phase\": " +
           Quote(PhaseContextName(f.phase)) + ",\n";
    // Pack static cost estimate: the verifier's per-entry abstract costs
    // summed over the pack, plus the most expensive entry. `unbounded`
    // means at least one entry's cost analysis hit an unbounded loop, so
    // `total` is a lower bound.
    double total_cost = 0.0;
    bool cost_unbounded = false;
    for (const EntryFacts& e : f.report.entries) {
      total_cost += e.facts.cost;
      cost_unbounded = cost_unbounded || e.facts.cost_unbounded;
    }
    out += "      \"static_cost\": {\"total\": " + JsonNum(total_cost) +
           StringFormat(", \"unbounded\": %s", JsonBool(cost_unbounded)) +
           ", \"max_entry\": " +
           (f.report.max_entry_name.empty()
                ? std::string("null")
                : Quote(f.report.max_entry_name)) +
           ", \"max_entry_cost\": " + JsonNum(f.report.max_entry_cost) +
           "},\n";
    out += "      \"parse_error\": " +
           (f.parse_error.empty() ? std::string("null")
                                  : Quote(f.parse_error)) +
           ",\n";
    out += "      \"diagnostics\": [";
    for (size_t di = 0; di < f.diagnostics.size(); ++di) {
      const Diagnostic& d = f.diagnostics[di];
      out += di == 0 ? "\n" : ",\n";
      out += StringFormat(
          "        {\"severity\": %s, \"pass\": %s, \"line\": %d, "
          "\"col\": %d, \"message\": %s}",
          Quote(SeverityName(d.severity)).c_str(),
          Quote(DiagPassName(d.pass)).c_str(), d.loc.line, d.loc.col,
          Quote(d.message).c_str());
    }
    out += f.diagnostics.empty() ? "],\n" : "\n      ],\n";
    out += "      \"entries\": [";
    for (size_t ei = 0; ei < f.report.entries.size(); ++ei) {
      const EntryFacts& e = f.report.entries[ei];
      const AccessSummary& a = e.facts.access;
      out += ei == 0 ? "\n" : ",\n";
      out += "        {\n";
      out += "          \"name\": " + Quote(e.name) + ",\n";
      out += StringFormat("          \"handler\": %s,\n",
                          JsonBool(e.is_handler));
      out += "          \"effects\": " +
             Quote(EffectSetName(e.facts.effects)) + ",\n";
      out += "          \"cost\": " + JsonNum(e.facts.cost) + ",\n";
      out += StringFormat("          \"cost_unbounded\": %s,\n",
                          JsonBool(e.facts.cost_unbounded));
      out += "          \"reads\": [";
      bool first = true;
      for (const auto& [key, bits] : a.fields) {
        if ((bits & kAccessRead) == 0) continue;
        if (!first) out += ", ";
        first = false;
        out += Quote(key);
      }
      out += "],\n";
      out += "          \"writes\": [";
      first = true;
      for (const auto& [key, bits] : a.fields) {
        if ((bits & (kAccessWriteSelf | kAccessWriteForeign)) == 0) continue;
        if (!first) out += ", ";
        first = false;
        out += "{\"field\": " + Quote(key) + ", \"target\": " +
               Quote(WriteTargetName(bits)) + "}";
      }
      out += "],\n";
      out += StringFormat("          \"unknown_read\": %s,\n",
                          JsonBool(a.unknown_read));
      out += StringFormat("          \"unknown_write\": %s,\n",
                          JsonBool(a.unknown_write));
      out += StringFormat("          \"structural\": %s,\n",
                          JsonBool(a.structural_write));
      out += "          \"radius\": " + JsonNum(a.radius) + ",\n";
      out += StringFormat("          \"radius_unbounded\": %s,\n",
                          JsonBool(a.radius_unbounded));
      std::string reason;
      const bool eligible =
          !e.is_handler && DirectWriteEligible(e, &reason);
      if (e.is_handler) reason = "trigger handler";
      out += StringFormat("          \"direct_write_eligible\": %s,\n",
                          JsonBool(eligible));
      out += "          \"ineligible_reason\": " +
             (eligible ? std::string("null") : Quote(reason)) + "\n";
      out += "        }";
    }
    out += f.report.entries.empty() ? "],\n" : "\n      ],\n";
    out += "      \"conflicts\": [";
    for (size_t ci = 0; ci < f.report.conflicts.size(); ++ci) {
      const ConflictEdge& edge = f.report.conflicts[ci];
      out += ci == 0 ? "\n" : ",\n";
      out += StringFormat(
          "        {\"a\": %s, \"b\": %s, \"reason\": %s}",
          Quote(f.report.entries[edge.a].name).c_str(),
          Quote(f.report.entries[edge.b].name).c_str(),
          Quote(edge.reason).c_str());
    }
    out += f.report.conflicts.empty() ? "]\n" : "\n      ]\n";
    out += "    }";
  }
  out += files.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

// ---------------------------------------------------------------------------
// JSON validation: the shared common/json reader plus a walker for the
// gamedb.gsl_lint.v1 shape.
// ---------------------------------------------------------------------------

namespace {

using json::JsonValue;

Status Expect(bool cond, const std::string& what) {
  if (cond) return Status::OK();
  return Status::InvalidArgument("gsl_lint json schema violation: " + what);
}

bool IsKind(const JsonValue* v, JsonValue::Kind k) {
  return v != nullptr && v->kind == k;
}

bool OneOf(const std::string& s, std::initializer_list<const char*> opts) {
  for (const char* o : opts) {
    if (s == o) return true;
  }
  return false;
}

Status ValidateDiagnostic(const JsonValue& d) {
  GAMEDB_RETURN_NOT_OK(Expect(d.kind == JsonValue::Kind::kObject,
                              "diagnostic must be an object"));
  const JsonValue* sev = d.Find("severity");
  GAMEDB_RETURN_NOT_OK(Expect(
      IsKind(sev, JsonValue::Kind::kString) &&
          OneOf(sev->str, {"warning", "error"}),
      "diagnostic.severity must be \"warning\" or \"error\""));
  const JsonValue* pass = d.Find("pass");
  GAMEDB_RETURN_NOT_OK(Expect(
      IsKind(pass, JsonValue::Kind::kString) &&
          OneOf(pass->str, {"structure", "phase", "bindings", "cost"}),
      "diagnostic.pass must be a verifier pass token"));
  GAMEDB_RETURN_NOT_OK(Expect(
      IsKind(d.Find("line"), JsonValue::Kind::kNumber) &&
          IsKind(d.Find("col"), JsonValue::Kind::kNumber),
      "diagnostic.line/col must be numbers"));
  return Expect(IsKind(d.Find("message"), JsonValue::Kind::kString),
                "diagnostic.message must be a string");
}

Status ValidateEntry(const JsonValue& e) {
  GAMEDB_RETURN_NOT_OK(
      Expect(e.kind == JsonValue::Kind::kObject, "entry must be an object"));
  GAMEDB_RETURN_NOT_OK(Expect(
      IsKind(e.Find("name"), JsonValue::Kind::kString),
      "entry.name must be a string"));
  GAMEDB_RETURN_NOT_OK(Expect(
      IsKind(e.Find("handler"), JsonValue::Kind::kBool),
      "entry.handler must be a bool"));
  GAMEDB_RETURN_NOT_OK(Expect(
      IsKind(e.Find("effects"), JsonValue::Kind::kString),
      "entry.effects must be a string"));
  GAMEDB_RETURN_NOT_OK(Expect(
      IsKind(e.Find("cost"), JsonValue::Kind::kNumber),
      "entry.cost must be a number"));
  for (const char* key :
       {"cost_unbounded", "unknown_read", "unknown_write", "structural",
        "radius_unbounded", "direct_write_eligible"}) {
    GAMEDB_RETURN_NOT_OK(Expect(IsKind(e.Find(key), JsonValue::Kind::kBool),
                                std::string("entry.") + key +
                                    " must be a bool"));
  }
  GAMEDB_RETURN_NOT_OK(Expect(
      IsKind(e.Find("radius"), JsonValue::Kind::kNumber),
      "entry.radius must be a number"));
  const JsonValue* reads = e.Find("reads");
  GAMEDB_RETURN_NOT_OK(Expect(IsKind(reads, JsonValue::Kind::kArray),
                              "entry.reads must be an array"));
  for (const JsonValue& r : reads->elements) {
    GAMEDB_RETURN_NOT_OK(Expect(r.kind == JsonValue::Kind::kString,
                                "entry.reads items must be strings"));
  }
  const JsonValue* writes = e.Find("writes");
  GAMEDB_RETURN_NOT_OK(Expect(IsKind(writes, JsonValue::Kind::kArray),
                              "entry.writes must be an array"));
  for (const JsonValue& w : writes->elements) {
    GAMEDB_RETURN_NOT_OK(Expect(
        w.kind == JsonValue::Kind::kObject &&
            IsKind(w.Find("field"), JsonValue::Kind::kString),
        "entry.writes items must be {field, target} objects"));
    const JsonValue* target = w.Find("target");
    GAMEDB_RETURN_NOT_OK(Expect(
        IsKind(target, JsonValue::Kind::kString) &&
            OneOf(target->str, {"self", "foreign", "self+foreign"}),
        "entry.writes[].target must be self/foreign/self+foreign"));
  }
  const JsonValue* reason = e.Find("ineligible_reason");
  return Expect(reason != nullptr &&
                    (reason->kind == JsonValue::Kind::kNull ||
                     reason->kind == JsonValue::Kind::kString),
                "entry.ineligible_reason must be a string or null");
}

Status ValidateFile(const JsonValue& f) {
  GAMEDB_RETURN_NOT_OK(
      Expect(f.kind == JsonValue::Kind::kObject, "file must be an object"));
  GAMEDB_RETURN_NOT_OK(Expect(
      IsKind(f.Find("file"), JsonValue::Kind::kString),
      "file.file must be a string"));
  const JsonValue* phase = f.Find("phase");
  GAMEDB_RETURN_NOT_OK(Expect(
      IsKind(phase, JsonValue::Kind::kString) &&
          OneOf(phase->str,
                {"sequential", "parallel-defer", "parallel-reject"}),
      "file.phase must be a phase context token"));
  const JsonValue* cost = f.Find("static_cost");
  GAMEDB_RETURN_NOT_OK(Expect(IsKind(cost, JsonValue::Kind::kObject),
                              "file.static_cost must be an object"));
  GAMEDB_RETURN_NOT_OK(Expect(
      IsKind(cost->Find("total"), JsonValue::Kind::kNumber) &&
          IsKind(cost->Find("max_entry_cost"), JsonValue::Kind::kNumber),
      "file.static_cost total/max_entry_cost must be numbers"));
  GAMEDB_RETURN_NOT_OK(Expect(
      IsKind(cost->Find("unbounded"), JsonValue::Kind::kBool),
      "file.static_cost.unbounded must be a bool"));
  const JsonValue* max_entry = cost->Find("max_entry");
  GAMEDB_RETURN_NOT_OK(
      Expect(max_entry != nullptr &&
                 (max_entry->kind == JsonValue::Kind::kNull ||
                  max_entry->kind == JsonValue::Kind::kString),
             "file.static_cost.max_entry must be a string or null"));
  const JsonValue* parse_error = f.Find("parse_error");
  GAMEDB_RETURN_NOT_OK(
      Expect(parse_error != nullptr &&
                 (parse_error->kind == JsonValue::Kind::kNull ||
                  parse_error->kind == JsonValue::Kind::kString),
             "file.parse_error must be a string or null"));
  const JsonValue* diags = f.Find("diagnostics");
  GAMEDB_RETURN_NOT_OK(Expect(IsKind(diags, JsonValue::Kind::kArray),
                              "file.diagnostics must be an array"));
  for (const JsonValue& d : diags->elements) {
    GAMEDB_RETURN_NOT_OK(ValidateDiagnostic(d));
  }
  const JsonValue* entries = f.Find("entries");
  GAMEDB_RETURN_NOT_OK(Expect(IsKind(entries, JsonValue::Kind::kArray),
                              "file.entries must be an array"));
  for (const JsonValue& e : entries->elements) {
    GAMEDB_RETURN_NOT_OK(ValidateEntry(e));
  }
  const JsonValue* conflicts = f.Find("conflicts");
  GAMEDB_RETURN_NOT_OK(Expect(IsKind(conflicts, JsonValue::Kind::kArray),
                              "file.conflicts must be an array"));
  for (const JsonValue& c : conflicts->elements) {
    GAMEDB_RETURN_NOT_OK(Expect(
        c.kind == JsonValue::Kind::kObject &&
            IsKind(c.Find("a"), JsonValue::Kind::kString) &&
            IsKind(c.Find("b"), JsonValue::Kind::kString) &&
            IsKind(c.Find("reason"), JsonValue::Kind::kString),
        "file.conflicts items must be {a, b, reason} string objects"));
  }
  return Status::OK();
}

}  // namespace

Status ValidateLintJson(const std::string& doc) {
  GAMEDB_ASSIGN_OR_RETURN(JsonValue root, json::ParseJson(doc));
  GAMEDB_RETURN_NOT_OK(Expect(root.kind == JsonValue::Kind::kObject,
                              "top level must be an object"));
  const JsonValue* schema = root.Find("schema");
  GAMEDB_RETURN_NOT_OK(Expect(
      IsKind(schema, JsonValue::Kind::kString) &&
          schema->str == "gamedb.gsl_lint.v1",
      "schema must be \"gamedb.gsl_lint.v1\""));
  GAMEDB_RETURN_NOT_OK(Expect(
      IsKind(root.Find("werror"), JsonValue::Kind::kBool),
      "werror must be a bool"));
  const JsonValue* files = root.Find("files");
  GAMEDB_RETURN_NOT_OK(Expect(IsKind(files, JsonValue::Kind::kArray),
                              "files must be an array"));
  for (const JsonValue& f : files->elements) {
    GAMEDB_RETURN_NOT_OK(ValidateFile(f));
  }
  return Status::OK();
}

}  // namespace gamedb::script
