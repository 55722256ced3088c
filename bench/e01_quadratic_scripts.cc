// E1 — "scripts where every object in the game interacts with every other
// object, resulting in computations that are Ω(n²)" ... "game developers
// often rely on indices to speed up computations that involve relationships
// between pairs of objects."
//
// Workload: a proximity-damage script (every unit within range hits its
// neighbors) over n units, three plans:
//   naive      — the designer's nested loop, Ω(n²)
//   grid_join  — spatial-hash pair join, O(n·k)
//   aggregate  — the per-frame "total hp" side query: a rescan of the
//                table vs a maintained SUM index, O(1) per write + read
// Expected shape: naive scales quadratically and falls off a cliff;
// indexed stays near-linear; the maintained aggregate is flat.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/aggregate.h"
#include "core/world.h"
#include "spatial/pair_join.h"
#include "spatial/uniform_grid.h"

namespace {

using namespace gamedb;           // NOLINT
using namespace gamedb::spatial;  // NOLINT

constexpr float kArea = 1000.0f;
constexpr float kRange = 10.0f;

std::vector<PointEntry> MakeUnits(size_t n) {
  Rng rng(42);
  std::vector<PointEntry> units;
  units.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    units.push_back(PointEntry{
        EntityId(i, 0),
        {rng.NextFloat(0, kArea), 0, rng.NextFloat(0, kArea)}});
  }
  return units;
}

void BM_NaivePairs(benchmark::State& state) {
  auto units = MakeUnits(static_cast<size_t>(state.range(0)));
  uint64_t pairs = 0;
  for (auto _ : state) {
    NestedLoopPairs(units, kRange,
                    [&](const PointEntry&, const PointEntry&) { ++pairs; });
  }
  state.counters["pairs"] =
      benchmark::Counter(static_cast<double>(pairs) /
                         static_cast<double>(state.iterations()));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NaivePairs)->RangeMultiplier(2)->Range(256, 8192)->Complexity();

void BM_GridJoinPairs(benchmark::State& state) {
  auto units = MakeUnits(static_cast<size_t>(state.range(0)));
  uint64_t pairs = 0;
  for (auto _ : state) {
    GridPairs(units, kRange,
              [&](const PointEntry&, const PointEntry&) { ++pairs; });
  }
  state.counters["pairs"] =
      benchmark::Counter(static_cast<double>(pairs) /
                         static_cast<double>(state.iterations()));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GridJoinPairs)->RangeMultiplier(2)->Range(256, 8192)->Complexity();

void BM_IndexJoinPairs(benchmark::State& state) {
  auto units = MakeUnits(static_cast<size_t>(state.range(0)));
  UniformGrid index(UniformGridOptions{kRange});
  for (const auto& u : units) index.Insert(u.id, Aabb::FromPoint(u.pos));
  uint64_t pairs = 0;
  for (auto _ : state) {
    IndexPairs(index, units, kRange,
               [&](const PointEntry&, const PointEntry&) { ++pairs; });
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IndexJoinPairs)->RangeMultiplier(2)->Range(256, 8192)->Complexity();

// The per-frame side query, "total hp": the unindexed script rescans the
// Health table every frame; BM_MaintainedAggregate below keeps the same
// SUM maintained and pays one tracked write plus an O(1) read instead.
void FillHealth(World* world, size_t n) {
  Rng rng(7);
  for (size_t i = 0; i < n; ++i) {
    EntityId e = world->Create();
    world->Set(e, Health{float(rng.NextInt(1, 100)), 100});
  }
}

// What a script's per-frame loop does.
double RescanHp(World& world) {
  double sum = 0;
  world.Table<Health>().ForEach(
      [&](EntityId, const Health& h) { sum += h.hp; });
  return sum;
}

void BM_RescanAggregate(benchmark::State& state) {
  RegisterStandardComponents();
  World world;
  FillHealth(&world, static_cast<size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(RescanHp(world));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RescanAggregate)->RangeMultiplier(4)->Range(256, 16384)->Complexity();

// The pair compares two ways to the same answer: the rescan must equal a
// SumAggregate<Health> over the same world. The check is its own family,
// without ->Complexity(): libbenchmark 1.7 crashes fitting a BigO to a
// family whose every run called SkipWithError, and a wrong rescan is wrong
// at every size, so inside BM_RescanAggregate it would segfault the run
// instead of reporting the disagreement.
void BM_RescanMatchesMaintainedSum(benchmark::State& state) {
  RegisterStandardComponents();
  World world;
  FillHealth(&world, static_cast<size_t>(state.range(0)));
  SumAggregate<Health> total(world, [](const Health& h) { return h.hp; });
  if (total.sum() != RescanHp(world)) {
    state.SkipWithError("rescan and maintained SUM disagree");
  }
  for (auto _ : state) benchmark::DoNotOptimize(total.sum());
}
BENCHMARK(BM_RescanMatchesMaintainedSum)->RangeMultiplier(4)->Range(256, 16384);

void BM_MaintainedAggregate(benchmark::State& state) {
  RegisterStandardComponents();
  World world;
  auto n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  std::vector<EntityId> ids;
  for (size_t i = 0; i < n; ++i) {
    EntityId e = world.Create();
    world.Set(e, Health{float(rng.NextInt(1, 100)), 100});
    ids.push_back(e);
  }
  SumAggregate<Health> total(world, [](const Health& h) { return h.hp; });
  for (auto _ : state) {
    // One tracked write (the maintenance cost) plus the O(1) read.
    world.Patch<Health>(ids[rng.NextBounded(ids.size())],
                        [&](Health& h) { h.hp = float(rng.NextInt(1, 100)); });
    benchmark::DoNotOptimize(total.sum());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MaintainedAggregate)
    ->RangeMultiplier(4)
    ->Range(256, 16384)
    ->Complexity();

}  // namespace

BENCHMARK_MAIN();
