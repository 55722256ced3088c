// E15 — MMO scenario load harness: whole-stack tick latency under hostile
// scripted workloads. Where e01–e14 isolate one subsystem each, e15 drives
// the *composed* engine — World mutations, the ScriptHost parallel query
// phase, the cost-based planner, ViewCatalog interest-view client sync and
// WAL/checkpoint persistence — through the tools/loadgen scenario library
// (login storms, hotspot flash crowds, mass spawn waves, chase-recenter
// churn, mixed steady state). This is the paper's actual claim under test:
// a declarative database-backed engine sustaining an MMO-shaped load, not a
// microbenchmark of one of its organs.
//
// Each counter iteration is one full scenario run; per-tick latency
// quantiles (p50/p99/p99.9) and sync bytes/client-tick are attached as
// benchmark counters. The canonical machine-readable trajectory artifact is
// produced by the standalone `loadgen` CLI (BENCH_e15_<scenario>.json);
// this wrapper exists so the scenario sweep rides the same bench-smoke
// harness as e01–e14.

#include <benchmark/benchmark.h>

#include <string>

#include "loadgen/scenario.h"

namespace {

using namespace gamedb::loadgen;  // NOLINT

void RunScenarioBench(benchmark::State& state, const std::string& name) {
  ScenarioConfig cfg = DefaultConfig(name).value();
  cfg.clients = static_cast<size_t>(state.range(0));
  cfg.npcs = static_cast<size_t>(state.range(1));
  cfg.ticks = 60;
  cfg.threads = static_cast<size_t>(state.range(2));
  ScenarioReport last;
  for (auto _ : state) {
    auto report = RunScenario(cfg);
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    last = report.value();
    benchmark::DoNotOptimize(last.world_hash);
  }
  state.counters["tick_p50_us"] = double(last.tick.p50) / 1e3;
  state.counters["tick_p99_us"] = double(last.tick.p99) / 1e3;
  state.counters["tick_p999_us"] = double(last.tick.p999) / 1e3;
  state.counters["sync_B_per_client_tick"] = last.sync_bytes_per_client_tick;
  state.counters["script_p99_us"] =
      double(last.phases[kPhaseRunTick].p99) / 1e3;
  state.counters["maintain_p99_us"] =
      double(last.phases[kPhaseMaintainPreScript].p99) / 1e3;
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(cfg.ticks));
}

void ScenarioArgs(benchmark::internal::Benchmark* b) {
  // {clients, npcs, threads}: small and bench-scale, 1 vs 4 threads at
  // bench scale (the container is 1-CPU, so the 4-thread rows measure
  // oversubscription overhead, not speedup — see docs/BASELINES.md).
  b->Args({8, 500, 1})->Args({32, 2000, 1})->Args({32, 2000, 4});
  b->Unit(benchmark::kMillisecond);
}

#define GAMEDB_SCENARIO_BENCH(scenario)                            \
  void BM_Scenario_##scenario(benchmark::State& state) {           \
    RunScenarioBench(state, #scenario);                            \
  }                                                                \
  BENCHMARK(BM_Scenario_##scenario)->Apply(ScenarioArgs)

GAMEDB_SCENARIO_BENCH(login_storm);
GAMEDB_SCENARIO_BENCH(flash_crowd);
GAMEDB_SCENARIO_BENCH(spawn_wave);
GAMEDB_SCENARIO_BENCH(chase);
GAMEDB_SCENARIO_BENCH(steady_state);

#undef GAMEDB_SCENARIO_BENCH

}  // namespace

BENCHMARK_MAIN();
