#pragma once

/// \file lint_report.h
/// Rendering for verifier results beyond plain diagnostics: per-entry access
/// summaries, the pack conflict matrix (text + DOT), and the machine-readable
/// `gsl_lint --json` document with its validator. Lives in the library (not
/// the tool) so tests can pin the formats and future schedulers can reuse the
/// JSON emitter.

#include <string>
#include <vector>

#include "common/status.h"
#include "script/analyzer.h"
#include "script/diagnostics.h"

namespace gamedb::script {

/// Everything gsl_lint knows about one linted file.
struct LintFileResult {
  std::string file;
  PhaseContext phase = PhaseContext::kSequential;
  /// Non-empty when the file did not parse (then `report` is empty).
  std::string parse_error;
  std::vector<Diagnostic> diagnostics;
  VerifyReport report;
};

/// Human-readable access summaries + direct-write verdicts + conflict
/// matrix for one verified file. Deterministic (golden-testable).
std::string RenderAccessReport(const std::string& origin,
                               const VerifyReport& report);

/// Graphviz DOT rendering of the conflict graph (one `graph` per file;
/// conflict-free entries are isolated nodes).
std::string RenderConflictDot(const std::string& origin,
                              const VerifyReport& report);

/// The `gsl_lint --json` document (schema "gamedb.gsl_lint.v1"): schema
/// tag, werror flag, and one object per linted file with diagnostics,
/// entry access summaries, conflict edges, and a `static_cost` pack
/// estimate (summed per-entry verifier costs + the most expensive entry).
std::string RenderLintJson(const std::vector<LintFileResult>& files,
                           bool werror);

/// Validates that `doc` parses as JSON *and* conforms to the
/// gamedb.gsl_lint.v1 shape (required keys, enum values, types). Malformed
/// JSON is a ParseError, a shape violation an InvalidArgument. gsl_lint
/// round-trips its own output through this before printing, so a schema
/// regression fails in CI rather than in a consumer.
Status ValidateLintJson(const std::string& doc);

}  // namespace gamedb::script
