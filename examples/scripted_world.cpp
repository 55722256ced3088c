// Data-driven design end to end: XML prefabs + loot tables + a GSL behavior
// script + event triggers drive a small hunt simulation without a line of
// game-specific C++ logic.
//
//   ./build/examples/scripted_world
//
// With `--threads N` it instead runs the *parallel* scripted tick: a wolf
// pack whose per-entity GSL behavior executes set-at-a-time on a ScriptHost
// (one interpreter per shard, writes through effect channels + deferred
// ops), then proves determinism by re-running the same pack single-threaded
// and comparing serialized world state bit for bit.
//
//   ./build/examples/scripted_world --threads 8 [--wolves 2000] [--ticks 50]
//
// With `--explain` the classic hunt runs with the cost-based query planner
// attached: before the hunt it prints the statistics snapshot and the
// EXPLAIN output of the queries the designer script executes every tick,
// and after the hunt EXPLAIN ANALYZE for the same queries (estimated vs
// actual rows per operator, from the runtime counters the script's own
// executions recorded) plus the plan-cache hit rate (per-tick replanning
// is a hash lookup).
//
//   ./build/examples/scripted_world --explain
//
// `--trace FILE` writes a chrome://tracing (trace_event JSON) span trace
// of the run — planner spans in the classic hunt, per-shard script-phase
// spans in `--threads` mode — validated before the process exits.
//
//   ./build/examples/scripted_world --threads 4 --trace trace.json
//
// `--flightrec FILE` (parallel mode only) arms the flight recorder +
// watchdog over the N-thread run and dumps a validated
// gamedb.flightrec.v1 diagnostic bundle at the end — render it with
// tools/telereport.
//
//   ./build/examples/scripted_world --threads 4 --flightrec bundle.json
//
// `--lint` runs the GSL static verifier (script/analyzer.h) over the
// shipped packs (assets/scripts/hunt.gsl, wolf_pack.gsl) and exits 0/1;
// `--strict-scripts` makes every script load reject on verifier errors.
//
//   ./build/examples/scripted_world --lint

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "content/data_table.h"
#include "content/prefab.h"
#include "core/serialize.h"
#include "planner/planner.h"
#include "script/analyzer.h"
#include "script/bindings.h"
#include "script/builtins.h"
#include "script/host.h"
#include "script/parser.h"
#include "script/triggers.h"
#include "telemetry/bundle.h"
#include "telemetry/registry.h"
#include "telemetry/sink.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"
#include "telemetry/watchdog.h"

// Shipped GSL packs, embedded from assets/scripts/ at build time
// (cmake/EmbedGsl.cmake): kHuntScript / kWolfPackScript + *Name origins.
#include "hunt_gsl.h"
#include "wolf_pack_gsl.h"

using namespace gamedb;          // NOLINT
using gamedb::script::Value;

// Designer content: entity templates with inheritance.
constexpr char kPrefabs[] = R"(
<Prefabs>
  <Prefab name="beast">
    <Component type="Health" hp="40" max_hp="40"/>
    <Component type="Position"/>
    <Component type="Faction" team="2"/>
  </Prefab>
  <Prefab name="wolf" extends="beast">
    <Component type="Combat" attack="6" range="2"/>
  </Prefab>
  <Prefab name="alpha_wolf" extends="wolf">
    <Component type="Health" hp="80" max_hp="80"/>
    <Component type="Combat" attack="12" range="2"/>
  </Prefab>
  <Prefab name="hunter">
    <Component type="Health" hp="100" max_hp="100"/>
    <Component type="Position"/>
    <Component type="Faction" team="1"/>
    <Component type="Combat" attack="15" range="5"/>
  </Prefab>
</Prefabs>)";

constexpr char kLoot[] = R"(
<LootTables>
  <LootTable name="wolf_drops">
    <Entry item="pelt" weight="70"/>
    <Entry item="fang" weight="25"/>
    <Entry item="moonstone" weight="5"/>
  </LootTable>
</LootTables>)";

// Runs the pack sim at `threads` threads; fills `snapshot` with the final
// serialized world and returns elapsed seconds for the scripted ticks.
static double RunPack(size_t threads, size_t wolves, size_t ticks,
                      const content::PrefabLibrary& prefabs, bool strict,
                      const telemetry::TelemetrySink& sink,
                      std::string* snapshot) {
  World world;
  std::vector<EntityId> pack;
  pack.reserve(wolves);
  for (size_t i = 0; i < wolves; ++i) {
    pack.push_back(prefabs.Instantiate(&world, "wolf").value());
  }
  // Feuds: scattered, deterministic.
  for (size_t i = 0; i < wolves; ++i) {
    world.Patch<Combat>(pack[i], [&](Combat& c) {
      c.target = pack[(i * 37 + 11) % wolves];
    });
  }

  script::ScriptHostOptions opts;
  opts.num_threads = threads;
  opts.interpreter.restriction = script::Restriction::kNoRecursion;
  opts.telemetry = sink;
  if (strict) opts.strictness = script::Strictness::kStrict;
  script::ScriptHost host(&world, opts);
  host.OnChannel("bite", [&world](EntityId e, double total) {
    bool dead = false;
    world.Patch<Health>(e, [&](Health& h) {
      h.hp -= float(total);
      dead = h.hp <= 0.0f;
    });
    if (dead) world.Destroy(e);
  });
  host.OnChannel("lick", [&world](EntityId e, double total) {
    world.Patch<Health>(e, [&](Health& h) {
      h.hp = std::min(h.hp + float(total), h.max_hp);
    });
  });
  if (Status st = host.Load(kWolfPackScript, kWolfPackScriptName); !st.ok()) {
    std::printf("pack script error: %s\n", st.ToString().c_str());
    std::exit(1);
  }

  auto start = std::chrono::steady_clock::now();
  for (size_t t = 0; t < ticks; ++t) {
    world.AdvanceTick();
    auto stats = host.RunTickOver("pack_tick", "Combat");
    if (!stats.ok() || stats->script_errors > 0) {
      std::printf("tick %zu failed: %s\n", t,
                  (stats.ok() ? stats->first_error : stats.status())
                      .ToString()
                      .c_str());
      std::exit(1);
    }
    // Continuous observability at the sequential point, exactly as
    // loadgen's Driver does it.
    for (const std::string& rule : sink.TickHeartbeat(t + 1)) {
      std::printf("  watchdog TRIPPED at tick %zu: %s\n", t + 1,
                  rule.c_str());
    }
  }
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  snapshot->clear();
  EncodeWorldSnapshot(world, snapshot);
  std::printf("  %zu thread%s: %zu wolves x %zu ticks in %.3fs (%.0f "
              "entity-ticks/s), %zu survivors\n",
              threads, threads == 1 ? " " : "s", wolves, ticks, secs,
              double(wolves * ticks) / secs, world.AliveCount());
  return secs;
}

static int RunParallelMode(size_t threads, size_t wolves, size_t ticks,
                           bool strict, telemetry::Tracer* tracer,
                           const std::string& flightrec_path) {
  auto prefabs = content::PrefabLibrary::Load(kPrefabs);
  if (!prefabs.ok()) {
    std::printf("prefab error: %s\n", prefabs.status().ToString().c_str());
    return 1;
  }
  // --flightrec: record the parallel run per tick and always dump a bundle
  // at the end — the demo equivalent of loadgen's breach-triggered dumps.
  telemetry::MetricsRegistry registry;
  telemetry::FlightRecorder recorder(&registry);
  telemetry::Watchdog watchdog(&recorder);
  telemetry::TelemetrySink sink;
  sink.tracer = tracer;
  if (!flightrec_path.empty()) {
    registry.SetEnabled(true);
    sink.metrics = &registry;
    // Any script error across the retained window trips (counter-delta
    // series sum): the pack sim treats errors as fatal anyway, so a trip
    // here means the recorder caught it the same tick.
    telemetry::HealthRule errors;
    errors.name = "script_errors";
    errors.metric = "script.errors";
    errors.aggregation = telemetry::Aggregation::kSum;
    errors.window = ticks;
    errors.above = true;
    errors.threshold = 0.0;
    errors.severity = telemetry::Severity::kCritical;
    watchdog.AddRule(errors);
  }
  std::printf("parallel pack sim (set-at-a-time GSL on the script host):\n");
  std::string snap_seq;
  double secs_seq = RunPack(1, wolves, ticks, *prefabs, strict, sink,
                            &snap_seq);
  if (!flightrec_path.empty()) {
    // Only the N-thread run is recorded: enabling here primes counter
    // baselines so the 1-thread warm-up doesn't pollute the deltas.
    recorder.SetEnabled(true);
    sink.recorder = &recorder;
    sink.watchdog = &watchdog;
  }
  std::string snap_par;
  double secs_par = RunPack(threads, wolves, ticks, *prefabs, strict, sink,
                            &snap_par);
  bool identical = snap_seq == snap_par;
  std::printf("  speedup at %zu threads: %.2fx — world state %s\n", threads,
              secs_seq / secs_par,
              identical ? "bit-identical to the 1-thread run"
                        : "DIVERGED (determinism bug!)");
  if (!flightrec_path.empty()) {
    telemetry::BundleInputs in;
    in.reason = identical ? "manual" : "determinism_divergence";
    in.tick = ticks;
    in.scenario = "scripted_world.pack";
    in.recorder = &recorder;
    in.watchdog = &watchdog;
    in.metrics = &registry;
    in.tracer = tracer;
    std::string doc = telemetry::RenderFlightRecorderBundle(in);
    if (Status st = telemetry::ValidateFlightRecorderBundle(doc); !st.ok()) {
      std::printf("flightrec validation failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::ofstream out(flightrec_path, std::ios::binary | std::ios::trunc);
    out << doc;
    if (!out.flush()) {
      std::printf("cannot write flightrec file '%s'\n",
                  flightrec_path.c_str());
      return 1;
    }
    std::printf("flightrec: %zu series -> %s\n", recorder.series_count(),
                flightrec_path.c_str());
  }
  return identical ? 0 : 1;
}

// --lint: run the static verifier over every shipped pack (no simulation)
// and exit non-zero on any error-severity finding. This is what CI's
// scenario-smoke job runs to keep the shipped packs strict-clean.
static int RunLint() {
  World world;
  script::Interpreter interp;
  script::RegisterCoreBuiltins(&interp);
  script::BindWorld(&interp, &world, nullptr, script::WorldBindOptions{});
  script::TriggerSystem triggers(&interp);
  triggers.InstallFireBuiltin();

  struct Pack {
    const char* source;
    const char* origin;
    script::PhaseContext phase;
  };
  // hunt.gsl runs on a sequential interpreter (direct mutations legal);
  // wolf_pack.gsl runs as a parallel query phase with deferred writes.
  const Pack packs[] = {
      {kHuntScript, kHuntScriptName, script::PhaseContext::kSequential},
      {kWolfPackScript, kWolfPackScriptName,
       script::PhaseContext::kParallelDefer},
  };
  bool ok = true;
  for (const Pack& pack : packs) {
    auto parsed = script::Parse(pack.source, pack.origin);
    if (!parsed.ok()) {
      std::printf("%s: parse error: %s\n", pack.origin,
                  parsed.status().ToString().c_str());
      ok = false;
      continue;
    }
    script::VerifierOptions vopts;
    vopts.restriction = script::Restriction::kNoRecursion;
    vopts.phase = pack.phase;
    vopts.is_builtin = [&interp](const std::string& name) {
      return interp.IsBuiltin(name);
    };
    vopts.schema = script::ReflectionSchema();
    vopts.top_level_must_be_pure =
        pack.phase != script::PhaseContext::kSequential;
    script::DiagnosticSink sink;
    script::VerifyReport report = script::Verify(*parsed, vopts, &sink);
    for (const auto& d : sink.diagnostics()) {
      std::printf("%s\n", d.ToString().c_str());
    }
    std::printf("%s: %zu error(s), %zu warning(s); effects [%s], "
                "max entry cost %.0f units (%s)\n",
                pack.origin, sink.error_count(), sink.warning_count(),
                script::EffectSetName(report.effects).c_str(),
                report.max_entry_cost, report.max_entry_name.c_str());
    if (sink.has_errors()) ok = false;
  }
  return ok ? 0 : 1;
}

// Renders the trace, self-validates it through the independent schema
// checker, and writes it to `path`. Returns 0 on success.
static int WriteTrace(const telemetry::Tracer& tracer,
                      const std::string& path) {
  std::string doc = telemetry::RenderChromeTraceJson(tracer);
  if (Status st = telemetry::ValidateChromeTraceJson(doc); !st.ok()) {
    std::printf("trace validation failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << doc;
  if (!out.flush()) {
    std::printf("cannot write trace file '%s'\n", path.c_str());
    return 1;
  }
  std::printf("trace: %zu span(s) -> %s (load in chrome://tracing)\n",
              tracer.size(), path.c_str());
  return 0;
}

int main(int argc, char** argv) {
  RegisterStandardComponents();

  size_t threads = 0;  // 0 = classic single-threaded hunt demo
  size_t wolves = 2000;
  size_t ticks = 50;
  bool explain = false;
  bool lint = false;
  bool strict = false;
  std::string trace_path;
  std::string flightrec_path;
  for (int i = 1; i < argc; ++i) {
    auto number_after = [&](const char* flag) -> size_t {
      if (i + 1 >= argc) {
        std::printf("%s needs a positive number\n", flag);
        std::exit(2);
      }
      const char* arg = argv[++i];
      char* end = nullptr;
      unsigned long long v = std::strtoull(arg, &end, 10);
      // Reject junk outright: a silently-zero value would turn the
      // parallel determinism check into a vacuous empty-world comparison.
      if (end == arg || *end != '\0' || v == 0) {
        std::printf("%s needs a positive number, got '%s'\n", flag, arg);
        std::exit(2);
      }
      return size_t(v);
    };
    if (std::strcmp(argv[i], "--threads") == 0) {
      threads = number_after("--threads");
    } else if (std::strcmp(argv[i], "--wolves") == 0) {
      wolves = number_after("--wolves");
    } else if (std::strcmp(argv[i], "--ticks") == 0) {
      ticks = number_after("--ticks");
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      explain = true;
    } else if (std::strcmp(argv[i], "--lint") == 0) {
      lint = true;
    } else if (std::strcmp(argv[i], "--strict-scripts") == 0) {
      strict = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) {
        std::printf("--trace needs a file path\n");
        return 2;
      }
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--flightrec") == 0) {
      if (i + 1 >= argc) {
        std::printf("--flightrec needs a file path\n");
        return 2;
      }
      flightrec_path = argv[++i];
    } else {
      std::printf(
          "usage: %s [--threads N] [--wolves M] [--ticks K] [--explain] "
          "[--lint] [--strict-scripts] [--trace FILE] [--flightrec FILE]\n",
          argv[0]);
      return 2;
    }
  }
  if (!flightrec_path.empty() && threads == 0) {
    std::printf("--flightrec needs the parallel pack mode (--threads N)\n");
    return 2;
  }
  if (lint) return RunLint();
  telemetry::Tracer tracer;
  telemetry::Tracer* tracer_ptr = nullptr;
  if (!trace_path.empty()) {
    tracer.SetEnabled(true);
    tracer_ptr = &tracer;
  }
  if (threads > 0) {
    int rc = RunParallelMode(threads, wolves, ticks, strict, tracer_ptr,
                             flightrec_path);
    if (tracer_ptr != nullptr && rc == 0) rc = WriteTrace(tracer, trace_path);
    return rc;
  }

  World world;

  // Load the content.
  auto prefabs = content::PrefabLibrary::Load(kPrefabs);
  if (!prefabs.ok()) {
    std::printf("prefab error: %s\n", prefabs.status().ToString().c_str());
    return 1;
  }
  auto loot = content::LootTableSet::Load(kLoot);
  if (!loot.ok()) {
    std::printf("loot error: %s\n", loot.status().ToString().c_str());
    return 1;
  }

  // Spawn the scene from templates.
  EntityId hunter = *prefabs->Instantiate(&world, "hunter");
  for (int i = 0; i < 5; ++i) prefabs->Instantiate(&world, "wolf").value();
  prefabs->Instantiate(&world, "alpha_wolf").value();
  std::printf("spawned %zu entities from prefabs (%zu templates)\n",
              world.AliveCount(), prefabs->size());

  // Boot the interpreter with ECS bindings + triggers — and, under
  // --explain, the cost-based planner behind every query builtin.
  planner::PlannerOptions planner_opts;
  planner_opts.telemetry.tracer = tracer_ptr;
  planner::QueryPlanner query_planner(&world, planner_opts);
  script::InterpreterOptions opts;
  opts.restriction = script::Restriction::kNoRecursion;
  script::Interpreter interp(opts);
  script::RegisterCoreBuiltins(&interp);
  script::WorldBindOptions bind;
  if (explain) bind.planner = &query_planner;
  script::BindWorld(&interp, &world, nullptr, bind);
  script::TriggerSystem triggers(&interp);
  triggers.InstallFireBuiltin();

  if (explain) {
    query_planner.Analyze();
    // Per-operator runtime counters for the post-hunt EXPLAIN ANALYZE.
    query_planner.SetCollectRuntime(true);
    std::printf("%s", query_planner.stats().ToString().c_str());
    // The queries the hunt script runs every tick, as the planner sees
    // them: argmin("Health","hp") and the kill handler's count("Health").
    DynamicQuery weakest(&world);
    weakest.SetPlanner(&query_planner).With("Health");
    std::printf("argmin(\"Health\", \"hp\") -> %s",
                weakest.Explain()->c_str());
    DynamicQuery wounded(&world);
    wounded.SetPlanner(&query_planner)
        .WhereField("Health", "hp", CmpOp::kLt, 50.0);
    std::printf("where(\"Health\", \"hp\", \"<\", 50) -> %s",
                wounded.Explain()->c_str());
    DynamicQuery nearby(&world);
    nearby.SetPlanner(&query_planner)
        .WithinRadius("Position", "value", Vec3(0, 0, 0), 10.0f);
    std::printf("within(vec3(0,0,0), 10) -> %s", nearby.Explain()->c_str());
  }

  auto parsed = script::Parse(kHuntScript, kHuntScriptName);
  if (!parsed.ok()) {
    std::printf("parse error: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  if (strict) {
    // Full static verification (phase safety, schema bindings, cost)
    // before the load — the interpreter alone only runs structure checks.
    script::VerifierOptions vopts;
    vopts.restriction = opts.restriction;
    vopts.is_builtin = [&interp](const std::string& name) {
      return interp.IsBuiltin(name);
    };
    vopts.schema = script::ReflectionSchema();
    script::DiagnosticSink sink;
    script::Verify(*parsed, vopts, &sink);
    if (sink.has_errors()) {
      std::printf("script verification failed:\n%s\n",
                  sink.ToString().c_str());
      return 1;
    }
  }
  if (Status st = interp.Load(std::move(*parsed)); !st.ok()) {
    std::printf("load error: %s\n", st.ToString().c_str());
    return 1;
  }

  // Run the hunt. The wolves don't fight back — it's a loot demo.
  Rng rng(2009);
  const content::LootTable* drops = loot->Find("wolf_drops");
  int kills = 0;
  for (int tick = 0; tick < 100 && world.AliveCount() > 1; ++tick) {
    world.AdvanceTick();
    // Sequential point: refresh stats once the kills drift table sizes
    // past the threshold (this is what invalidates cached plans).
    if (explain) query_planner.MaybeRefreshStats();
    auto alive = interp.Call("hunt_tick", {Value(hunter)});
    if (!alive.ok()) {
      std::printf("script error: %s\n", alive.status().ToString().c_str());
      return 1;
    }
    size_t before = triggers.stats().handled;
    (void)triggers.Pump();
    if (triggers.stats().handled > before) {
      auto drop = drops->Roll(&rng);
      std::printf("  loot: %lld x %s\n",
                  static_cast<long long>(drop.count), drop.item.c_str());
      ++kills;
    }
  }
  for (const std::string& line : interp.output()) {
    std::printf("  [script] %s\n", line.c_str());
  }
  std::printf("hunt over: %d wolves slain across %llu ticks, fuel used %llu\n",
              kills, static_cast<unsigned long long>(world.tick()),
              static_cast<unsigned long long>(interp.total_fuel_used()));
  if (explain) {
    // EXPLAIN ANALYZE: the same plans, now annotated with the runtime row
    // counts the script's own executions recorded — estimated vs actual
    // per operator (shape-matched via the plan cache key).
    DynamicQuery weakest(&world);
    weakest.SetPlanner(&query_planner).With("Health");
    DynamicQuery wounded(&world);
    wounded.SetPlanner(&query_planner)
        .WhereField("Health", "hp", CmpOp::kLt, 50.0);
    auto analyze = [&](const char* label, const DynamicQuery& q) {
      auto text = query_planner.ExplainAnalyzeQuery(q);
      if (text.ok()) std::printf("%s -> %s", label, text->c_str());
    };
    analyze("analyze argmin(\"Health\", \"hp\")", weakest);
    analyze("analyze where(\"Health\", \"hp\", \"<\", 50)", wounded);
    std::printf(
        "planner: %llu plans built, %llu cache hits (replanning per tick "
        "is a hash lookup), %llu stats refreshes\n",
        static_cast<unsigned long long>(query_planner.plan_cache_misses()),
        static_cast<unsigned long long>(query_planner.plan_cache_hits()),
        static_cast<unsigned long long>(query_planner.stats_refreshes()));
  }
  if (tracer_ptr != nullptr) {
    if (int rc = WriteTrace(tracer, trace_path); rc != 0) return rc;
  }
  return kills == 6 ? 0 : 1;
}
