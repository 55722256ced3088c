#pragma once

/// \file watchdog.h
/// Declarative engine-health rules over the flight recorder's time series,
/// evaluated at the sequential point of every tick. A rule names a recorder
/// series (timeseries.h naming: "script.ticks", "tick_ns:p99", ...),
/// an aggregation over the last N ticks, a threshold, and a severity; a
/// tripped rule is the signal that makes loadgen dump a
/// `gamedb.flightrec.v1` diagnostic bundle (bundle.h) — and, per the
/// ROADMAP, the input the future admission-control / load-shedding policies
/// will act on instead of missing ticks.
///
/// Hysteresis: a rule trips only after `for_ticks` consecutive breaching
/// evaluations and clears only after `clear_ticks` consecutive healthy
/// ones, so a single noisy tick neither fires a bundle nor silences an
/// ongoing incident.
///
/// Thread safety: none — Evaluate/AddRule/Status run from sequential code,
/// like the planner's OnQuiescent.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "telemetry/timeseries.h"

namespace gamedb::telemetry {

enum class Aggregation : uint8_t { kLast, kMean, kMin, kMax, kSum };
enum class Severity : uint8_t { kInfo, kWarning, kCritical };

/// Stable wire names ("last"/"mean"/... and "info"/"warning"/"critical").
const char* AggregationName(Aggregation agg);
const char* SeverityName(Severity severity);

/// One declarative health rule.
struct HealthRule {
  std::string name;    ///< unique handle ("slo_tick_p99", "fsync_stall")
  std::string metric;  ///< recorder series name
  Aggregation aggregation = Aggregation::kMean;
  /// Aggregate over the last `window` recorded ticks (>= 1; fewer points
  /// are aggregated as-is while the recorder warms up).
  size_t window = 1;
  /// true: breach when aggregate > threshold; false: breach when <.
  bool above = true;
  double threshold = 0.0;
  Severity severity = Severity::kWarning;
  size_t for_ticks = 1;    ///< consecutive breaches required to trip
  size_t clear_ticks = 1;  ///< consecutive healthy evaluations to clear

  /// One-line human rendering:
  /// "name: mean(metric, 30) > 5000000 [critical, for 3, clear 5]".
  std::string ToString() const;
};

/// Parses the declarative rule spec the loadgen `--watch` flag takes:
///
///   NAME,METRIC,AGG,WINDOW,OP,THRESHOLD[,SEVERITY[,FOR,CLEAR]]
///
/// AGG in {last,mean,min,max,sum}; OP in {gt,lt}; SEVERITY in
/// {info,warning,critical} (default warning); FOR/CLEAR default 1.
/// Example: "tick_p99,tick_ns:p99,last,1,gt,5000000,critical".
Result<HealthRule> ParseHealthRule(const std::string& spec);

/// Live evaluation state of one rule.
struct RuleStatus {
  HealthRule rule;
  /// The series existed at the most recent evaluation (a rule over a
  /// series that never appears is configured-but-silent, not tripped).
  bool evaluated = false;
  bool tripped = false;
  uint64_t trip_count = 0;    ///< lifetime trips
  uint64_t tripped_tick = 0;  ///< tick of the most recent trip
  double last_value = 0.0;    ///< most recent aggregate
  uint64_t evaluations = 0;
};

class Watchdog {
 public:
  /// `recorder` is non-owning and must outlive the watchdog.
  explicit Watchdog(const FlightRecorder* recorder) : recorder_(recorder) {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void AddRule(HealthRule rule);
  size_t rule_count() const { return rules_.size(); }

  /// Evaluates every rule against the recorder's current rings (call after
  /// FlightRecorder::Sample for the tick). Returns the names of rules that
  /// transitioned to tripped at this evaluation.
  std::vector<std::string> Evaluate(uint64_t tick);

  bool AnyTripped() const;
  /// Highest severity among currently-tripped rules (kInfo when none).
  Severity MaxTrippedSeverity() const;
  uint64_t total_trips() const { return total_trips_; }
  const std::vector<RuleStatus>& status() const { return rules_; }

 private:
  struct Streaks {
    size_t breach = 0;
    size_t clear = 0;
  };

  const FlightRecorder* recorder_;
  std::vector<RuleStatus> rules_;
  std::vector<Streaks> streaks_;
  uint64_t total_trips_ = 0;
};

}  // namespace gamedb::telemetry
