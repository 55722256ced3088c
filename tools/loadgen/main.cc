/// \file main.cc
/// loadgen CLI — the e15 scenario harness entry point.
///
///   loadgen --list
///   loadgen --scenario=steady_state --clients=64 --npcs=4000 --ticks=200
///   loadgen --scenario=all --out=bench_out --validate --enforce-slo
///   loadgen --scenario=chase --deterministic --threads=4
///   loadgen --scenario=flash_crowd --trace=trace.json --metrics=metrics.json
///
/// Exit codes: 0 success; 1 usage / harness error; 2 schema validation
/// failure (--validate, or a --trace/--metrics artifact failing its
/// validator); 3 SLO violation (--enforce-slo).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "loadgen/driver.h"
#include "loadgen/metrics.h"
#include "loadgen/scenario.h"
#include "telemetry/bundle.h"
#include "telemetry/registry.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"
#include "telemetry/watchdog.h"

namespace {

using gamedb::Result;
using gamedb::Status;
using namespace gamedb::loadgen;

void PrintUsage() {
  std::fprintf(stderr,
               "usage: loadgen [--scenario=<name|all>] [options]\n"
               "  --list              list scenarios and exit\n"
               "  --scenario=NAME     scenario to run, or 'all' (default: "
               "steady_state)\n"
               "  --clients=N         simulated clients\n"
               "  --npcs=N            initial NPC population\n"
               "  --ticks=N           simulation ticks\n"
               "  --seed=N            rng seed\n"
               "  --threads=N         script-phase threads\n"
               "  --planner=on|off    cost-based planner policy\n"
               "  --out=DIR           directory for BENCH_e15_*.json "
               "(default: .)\n"
               "  --deterministic     omit timing from the report (replay "
               "mode)\n"
               "  --validate          schema-check each emitted report\n"
               "  --enforce-slo       exit 3 if any scenario violates its "
               "SLO\n"
               "  --strict-scripts    reject the behavior pack on any GSL "
               "verifier error\n"
               "  --lint              verify the behavior pack against the "
               "full stack and exit\n"
               "  --trace=FILE        write a chrome://tracing span trace "
               "(trace_event JSON)\n"
               "  --metrics=FILE      write a gamedb.telemetry.v1 metrics "
               "snapshot (one per\n"
               "                      scenario on a sweep, named like "
               "--flightrec bundles)\n"
               "  --flightrec=FILE    arm the flight recorder + watchdog; "
               "dump a gamedb.flightrec.v1\n"
               "                      bundle to FILE on SLO breach, watchdog "
               "trip, or run failure\n"
               "                      (not combinable with --trace: bundles "
               "keep only the last tick's spans)\n"
               "  --slo-p50=MS        override the scenario's tick p50 SLO "
               "(0 disables)\n"
               "  --slo-p99=MS        override the scenario's tick p99 SLO\n"
               "  --slo-p999=MS       override the scenario's tick p99.9 "
               "SLO\n"
               "  --watch=SPEC        add a watchdog rule (repeatable): "
               "NAME,METRIC,AGG,WINDOW,\n"
               "                      OP,THRESHOLD[,SEVERITY[,FOR,CLEAR]] — "
               "e.g.\n"
               "                      stall,tick_ns:p99,last,1,gt,5e6,"
               "critical\n");
}

bool ParseUint(const std::string& v, uint64_t* out) {
  if (v.empty()) return false;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(v.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = parsed;
  return true;
}

struct CliOptions {
  std::string scenario = "steady_state";
  std::string out_dir;
  std::string trace_path;
  std::string metrics_path;
  std::string flightrec_path;
  /// Extra watchdog rules from --watch, pre-parsed at argv time.
  std::vector<gamedb::telemetry::HealthRule> watch_rules;
  /// Live taps owned by main() when --trace/--metrics/--flightrec were
  /// given: one tracer for the whole invocation, one registry per
  /// scenario.
  gamedb::telemetry::MetricsRegistry* metrics = nullptr;
  gamedb::telemetry::Tracer* tracer = nullptr;
  bool list = false;
  bool lint = false;
  bool deterministic = false;
  bool validate = false;
  bool enforce_slo = false;
  bool strict_scripts = false;
  // Overrides: only applied when the flag was given, so per-scenario
  // defaults (DefaultConfig) survive untouched flags.
  bool has_clients = false, has_npcs = false, has_ticks = false;
  bool has_seed = false, has_threads = false, has_planner = false;
  bool has_slo_p50 = false, has_slo_p99 = false, has_slo_p999 = false;
  uint64_t clients = 0, npcs = 0, ticks = 0, seed = 0, threads = 0;
  double slo_p50_ms = 0.0, slo_p99_ms = 0.0, slo_p999_ms = 0.0;
  bool planner_on = true;
  /// True when more than one scenario runs (--scenario=all): bundle and
  /// metrics files get a per-scenario suffix so runs don't overwrite each
  /// other.
  bool multi_scenario = false;
};

bool ParseMs(const std::string& v, double* out) {
  if (v.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(v.c_str(), &end);
  return end != nullptr && *end == '\0';
}

bool ParseArgs(int argc, char** argv, CliOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    auto eat = [&](const char* name) {
      std::string prefix = std::string(name) + "=";
      if (arg.rfind(prefix, 0) == 0) {
        value = arg.substr(prefix.size());
        return true;
      }
      return false;
    };
    if (arg == "--list") {
      opts->list = true;
    } else if (arg == "--lint") {
      opts->lint = true;
    } else if (arg == "--strict-scripts") {
      opts->strict_scripts = true;
    } else if (arg == "--deterministic") {
      opts->deterministic = true;
    } else if (arg == "--validate") {
      opts->validate = true;
    } else if (arg == "--enforce-slo") {
      opts->enforce_slo = true;
    } else if (eat("--scenario")) {
      opts->scenario = value;
    } else if (eat("--out")) {
      opts->out_dir = value;
    } else if (eat("--trace")) {
      if (value.empty()) return false;
      opts->trace_path = value;
    } else if (eat("--metrics")) {
      if (value.empty()) return false;
      opts->metrics_path = value;
    } else if (eat("--flightrec")) {
      if (value.empty()) return false;
      opts->flightrec_path = value;
    } else if (eat("--watch")) {
      Result<gamedb::telemetry::HealthRule> rule =
          gamedb::telemetry::ParseHealthRule(value);
      if (!rule.ok()) {
        std::fprintf(stderr, "loadgen: %s\n",
                     rule.status().ToString().c_str());
        return false;
      }
      opts->watch_rules.push_back(rule.value());
    } else if (eat("--slo-p50")) {
      if (!ParseMs(value, &opts->slo_p50_ms)) return false;
      opts->has_slo_p50 = true;
    } else if (eat("--slo-p99")) {
      if (!ParseMs(value, &opts->slo_p99_ms)) return false;
      opts->has_slo_p99 = true;
    } else if (eat("--slo-p999")) {
      if (!ParseMs(value, &opts->slo_p999_ms)) return false;
      opts->has_slo_p999 = true;
    } else if (eat("--clients")) {
      if (!ParseUint(value, &opts->clients)) return false;
      opts->has_clients = true;
    } else if (eat("--npcs")) {
      if (!ParseUint(value, &opts->npcs)) return false;
      opts->has_npcs = true;
    } else if (eat("--ticks")) {
      if (!ParseUint(value, &opts->ticks)) return false;
      opts->has_ticks = true;
    } else if (eat("--seed")) {
      if (!ParseUint(value, &opts->seed)) return false;
      opts->has_seed = true;
    } else if (eat("--threads")) {
      if (!ParseUint(value, &opts->threads) || opts->threads == 0) {
        return false;
      }
      opts->has_threads = true;
    } else if (eat("--planner")) {
      if (value != "on" && value != "off") return false;
      opts->planner_on = (value == "on");
      opts->has_planner = true;
    } else {
      std::fprintf(stderr, "loadgen: unknown flag '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

int WriteTelemetryArtifact(const std::string& path, const std::string& content,
                           const char* what,
                           Status (*validate)(const std::string&));

/// Per-scenario artifact path for `name`: `path` (--flightrec's or
/// --metrics'), with ".<scenario>" inserted before the extension on a
/// multi-scenario sweep so runs don't overwrite each other.
std::string ScenarioPath(const CliOptions& opts, const std::string& path,
                         const std::string& name) {
  if (!opts.multi_scenario) return path;
  size_t dot = path.rfind('.');
  size_t slash = path.find_last_of('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + "." + name;
  }
  return path.substr(0, dot) + "." + name + path.substr(dot);
}

/// Runs one scenario; returns its exit code contribution (0/1/2/3).
int RunOne(const std::string& name, const CliOptions& opts) {
  Result<ScenarioConfig> cfg_or = DefaultConfig(name);
  if (!cfg_or.ok()) {
    std::fprintf(stderr, "loadgen: %s\n",
                 cfg_or.status().ToString().c_str());
    return 1;
  }
  ScenarioConfig cfg = cfg_or.value();
  if (opts.has_clients) cfg.clients = opts.clients;
  if (opts.has_npcs) cfg.npcs = opts.npcs;
  if (opts.has_ticks) cfg.ticks = opts.ticks;
  if (opts.has_seed) cfg.seed = opts.seed;
  if (opts.has_threads) cfg.threads = opts.threads;
  if (opts.has_planner) cfg.planner_on = opts.planner_on;
  if (opts.has_slo_p50) cfg.slo_p50_ms = opts.slo_p50_ms;
  if (opts.has_slo_p99) cfg.slo_p99_ms = opts.slo_p99_ms;
  if (opts.has_slo_p999) cfg.slo_p999_ms = opts.slo_p999_ms;
  cfg.strict_scripts = opts.strict_scripts;
  cfg.collect_timing = !opts.deterministic;
  cfg.metrics = opts.metrics;
  cfg.tracer = opts.tracer;

  // Flight recorder + watchdog, armed per scenario over the scenario's own
  // registry (ticks restart at 1 each scenario, which a per-run recorder
  // keeps monotonic).
  gamedb::telemetry::FlightRecorder recorder(opts.metrics);
  gamedb::telemetry::Watchdog watchdog(&recorder);
  std::vector<std::string> hot_plans;
  const bool flightrec = !opts.flightrec_path.empty();
  if (flightrec) {
    recorder.SetEnabled(true);
    cfg.recorder = &recorder;
    cfg.watchdog = &watchdog;
    cfg.hot_plans_out = &hot_plans;
    cfg.trace_last_tick_only = true;
    // The scenario's SLO targets double as default watchdog rules over the
    // tick histogram, so a breach is visible the tick it develops — not
    // just in the post-run verdict.
    auto slo_rule = [&](const char* rule_name, const char* metric,
                       double target_ms) {
      if (target_ms <= 0.0) return;
      gamedb::telemetry::HealthRule r;
      r.name = rule_name;
      r.metric = metric;
      r.aggregation = gamedb::telemetry::Aggregation::kLast;
      r.window = 1;
      r.above = true;
      r.threshold = target_ms * 1e6;  // ms -> ns, the histogram's unit
      r.severity = gamedb::telemetry::Severity::kCritical;
      watchdog.AddRule(r);
    };
    if (cfg.collect_timing) {
      slo_rule("slo_tick_p50", "tick_ns:p50", cfg.slo_p50_ms);
      slo_rule("slo_tick_p99", "tick_ns:p99", cfg.slo_p99_ms);
      slo_rule("slo_tick_p999", "tick_ns:p999", cfg.slo_p999_ms);
    }
    for (const auto& rule : opts.watch_rules) watchdog.AddRule(rule);
  }
  auto dump_bundle =
      [&](const std::string& reason, uint64_t tick,
          const std::vector<gamedb::telemetry::SloCheck>& checks) {
        gamedb::telemetry::BundleInputs in;
        in.reason = reason;
        in.tick = tick;
        in.scenario = name;
        in.recorder = &recorder;
        in.watchdog = &watchdog;
        in.metrics = opts.metrics;
        in.tracer = opts.tracer;
        in.slo_checks = checks;
        in.hot_plans = hot_plans;
        return WriteTelemetryArtifact(
            ScenarioPath(opts, opts.flightrec_path, name),
            gamedb::telemetry::RenderFlightRecorderBundle(in), "flightrec",
            &gamedb::telemetry::ValidateFlightRecorderBundle);
      };

  Result<ScenarioReport> report_or = RunScenario(cfg);
  if (!report_or.ok()) {
    std::fprintf(stderr, "loadgen: %s: %s\n", name.c_str(),
                 report_or.status().ToString().c_str());
    // A failed run (e.g. the crash-recovery differential) is exactly when
    // the evidence matters: dump the bundle before bailing.
    if (flightrec) {
      dump_bundle("run_failure: " + report_or.status().ToString(),
                  cfg.ticks, {});
    }
    return 1;
  }
  const ScenarioReport& report = report_or.value();

  Result<std::string> path_or = WriteReportFile(report, opts.out_dir);
  if (!path_or.ok()) {
    std::fprintf(stderr, "loadgen: %s\n",
                 path_or.status().ToString().c_str());
    return 1;
  }
  std::printf("%-14s hash=%s entities=%llu sync=%.1f B/client-tick",
              name.c_str(), report.world_hash.c_str(),
              static_cast<unsigned long long>(report.final_entities),
              report.sync_bytes_per_client_tick);
  if (cfg.collect_timing) {
    std::printf(" tick p50=%.3fms p99=%.3fms p99.9=%.3fms",
                report.tick.p50 / 1e6, report.tick.p99 / 1e6,
                report.tick.p999 / 1e6);
  }
  std::printf(" -> %s\n", path_or.value().c_str());

  int rc = 0;
  if (opts.validate) {
    std::ifstream in(path_or.value(), std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    Status v = ValidateReportJson(buffer.str());
    if (!v.ok()) {
      std::fprintf(stderr, "loadgen: %s: validation failed: %s\n",
                   name.c_str(), v.ToString().c_str());
      rc = 2;
    } else {
      std::printf("%-14s schema OK (%s)\n", name.c_str(), kReportSchema);
    }
  }
  if (report.slo_evaluated && report.slo_violated) {
    // Name the tripping gates with measured-vs-allowed evidence — the exit
    // code alone is not a diagnosis.
    std::fprintf(stderr, "loadgen: %s: SLO VIOLATED:\n", name.c_str());
    for (const auto& check : report.slo_checks) {
      std::fprintf(stderr, "loadgen:   %s\n", check.ToString().c_str());
    }
    if (opts.enforce_slo && rc == 0) rc = 3;
  }
  if (flightrec &&
      (report.slo_violated || watchdog.total_trips() > 0)) {
    int one = dump_bundle(report.slo_violated ? "slo_breach" : "watchdog",
                          cfg.ticks, report.slo_checks);
    if (one != 0 && (rc == 0 || one < rc)) rc = one;
  }
  return rc;
}

/// --lint: stand up the full stack (world, planner, views, channels),
/// strict-load the shipped behavior pack so the GSL verifier checks it
/// against the real schema/catalog, print every finding, and exit 0/1.
int RunLint() {
  ScenarioConfig cfg;
  cfg.clients = 1;
  cfg.npcs = 4;
  cfg.ticks = 0;
  cfg.collect_timing = false;
  cfg.strict_scripts = true;
  Driver driver(cfg);
  Status st = driver.Init();
  for (const auto& d : driver.script_diagnostics().diagnostics()) {
    std::printf("%s\n", d.ToString().c_str());
  }
  if (!st.ok()) {
    std::fprintf(stderr, "loadgen: lint failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("loadgen behavior pack: strict verification clean (%zu "
              "warning(s))\n",
              driver.script_diagnostics().warning_count());
  return 0;
}

/// Writes `content` to `path` and re-validates it with `validate` — the
/// emitted artifact itself (not the in-memory string) is what downstream
/// tools load, so that's what gets schema-checked. Returns 0/1/2.
int WriteTelemetryArtifact(const std::string& path, const std::string& content,
                           const char* what,
                           Status (*validate)(const std::string&)) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "loadgen: cannot write %s file '%s'\n", what,
                   path.c_str());
      return 1;
    }
    out << content;
    if (!out.flush()) {
      std::fprintf(stderr, "loadgen: short write to %s file '%s'\n", what,
                   path.c_str());
      return 1;
    }
  }
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  Status v = validate(buffer.str());
  if (!v.ok()) {
    std::fprintf(stderr, "loadgen: %s validation failed: %s\n", what,
                 v.ToString().c_str());
    return 2;
  }
  std::printf("%-14s %s OK -> %s\n", what, "schema", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  if (!ParseArgs(argc, argv, &opts)) {
    PrintUsage();
    return 1;
  }
  // The tracer lives here, above every scenario the invocation runs, so one
  // --scenario=all sweep lands in a single trace.
  gamedb::telemetry::Tracer tracer;
  if (!opts.trace_path.empty()) {
    tracer.SetEnabled(true);
    opts.tracer = &tracer;
  }
  if (!opts.flightrec_path.empty()) {
    if (!opts.trace_path.empty()) {
      std::fprintf(stderr,
                   "loadgen: --flightrec and --trace are mutually exclusive "
                   "(bundles keep only the current tick's spans; a whole-run "
                   "trace needs them all)\n");
      return 1;
    }
    // Bundles embed the current tick's spans, so the tracer is live even
    // without --trace.
    tracer.SetEnabled(true);
    opts.tracer = &tracer;
  }
  opts.multi_scenario = opts.scenario == "all";
  if (opts.lint) return RunLint();
  if (opts.list) {
    for (const std::string& name : ScenarioNames()) {
      std::printf("%-14s %s\n", name.c_str(),
                  ScenarioDescription(name).c_str());
    }
    return 0;
  }
  std::vector<std::string> to_run;
  if (opts.scenario == "all") {
    to_run = ScenarioNames();
  } else {
    if (!IsScenarioName(opts.scenario)) {
      std::fprintf(stderr, "loadgen: unknown scenario '%s' (try --list)\n",
                   opts.scenario.c_str());
      return 1;
    }
    to_run.push_back(opts.scenario);
  }
  // Each scenario gets its own registry: the report's timing section is
  // read from it, so it must hold that scenario's ticks alone. The
  // recorder samples the registry, so --flightrec needs one too.
  const bool metrics =
      !opts.metrics_path.empty() || !opts.flightrec_path.empty();
  int rc = 0;
  for (const std::string& name : to_run) {
    gamedb::telemetry::MetricsRegistry registry;
    registry.SetEnabled(metrics);
    opts.metrics = metrics ? &registry : nullptr;
    int one = RunOne(name, opts);
    if (one != 0 && (rc == 0 || one < rc)) rc = one;
    if (!opts.metrics_path.empty()) {
      one = WriteTelemetryArtifact(
          ScenarioPath(opts, opts.metrics_path, name),
          gamedb::telemetry::RenderTelemetryJson(registry), "metrics",
          &gamedb::telemetry::ValidateTelemetryJson);
      if (one != 0 && (rc == 0 || one < rc)) rc = one;
    }
  }
  if (!opts.trace_path.empty()) {
    int one = WriteTelemetryArtifact(
        opts.trace_path, gamedb::telemetry::RenderChromeTraceJson(tracer),
        "trace", &gamedb::telemetry::ValidateChromeTraceJson);
    if (one != 0 && (rc == 0 || one < rc)) rc = one;
  }
  return rc;
}
