#pragma once

/// \file metrics.h
/// Machine-readable perf trajectory: renders a ScenarioReport as JSON with
/// a fixed key order (schema "gamedb.e15.v1"), writes the canonical
/// BENCH_e15_<scenario>.json artifact, and validates emitted files against
/// the schema (the CI scenario-smoke job runs `loadgen --validate`).
///
/// The deterministic section is rendered first and contains no timing; when
/// the run was configured with collect_timing=false the timing object is
/// omitted entirely, so the whole file is byte-identical for a fixed
/// (scenario, seed, clients, npcs, ticks) at any thread count — that file
/// equality is what the scenario-replay regression tier pins.

#include <string>

#include "common/status.h"
#include "loadgen/scenario.h"

namespace gamedb::loadgen {

/// Schema identifier stamped into (and required from) every report.
inline constexpr char kReportSchema[] = "gamedb.e15.v1";

/// Renders the report as pretty-printed JSON with deterministic key order.
std::string RenderReportJson(const ScenarioReport& report);

/// Canonical artifact name: BENCH_e15_<scenario>.json.
std::string ReportFileName(const std::string& scenario);

/// Renders and writes the report under `dir` (default: cwd). Returns the
/// path written.
Result<std::string> WriteReportFile(const ScenarioReport& report,
                                    const std::string& dir);

/// Structural schema check over a rendered report: valid JSON, schema tag
/// "gamedb.e15.v1", required config + deterministic fields with the right
/// types, and — when the timing section is present — the digests of
/// `tick_ns`, every phase's `<phase>_ns` and `tick.unattributed_ns`.
/// Returns OK, a ParseError for malformed JSON, or an InvalidArgument naming
/// the first schema problem.
Status ValidateReportJson(const std::string& doc);

}  // namespace gamedb::loadgen
