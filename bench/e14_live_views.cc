// E14 — incremental view maintenance vs per-tick re-scan. The follow-up
// paper's incremental-processing claim: a continuous query maintained from
// deltas costs O(change volume), a re-scanned one O(world size), so below
// some churn rate maintenance wins and the gap widens with world size and
// with the number of registered queries (the re-scan pays per view, the
// change capture is paid once). Sweep: world size × churn rate × view
// count; the measured crossover is recorded in docs/BASELINES.md.
//
// Both variants pay the identical mutation cost per iteration (tracked
// Patch writes); the difference under measurement is evaluate-by-rescan
// (fresh planner execution per view) vs maintain-from-deltas + read.
//
// The work counters (`rows`, `reevals_per_tick`) come from a second,
// identically seeded sweep run for kCountedTicks ticks outside the timed
// loop, so every run prints the same counters whatever iteration count
// Google Benchmark picks. `rows` is the member count summed over all
// views after those ticks; rescan and incremental must agree on it.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/world.h"
#include "planner/planner.h"
#include "views/maintainer.h"

namespace {

using namespace gamedb;           // NOLINT
using namespace gamedb::views;    // NOLINT
using planner::QueryPlanner;

constexpr float kArena = 1000.0f;
constexpr int kCountedTicks = 4;

/// The shared sweep harness: a world of n entities (Health everywhere,
/// Position on all), `nviews` view definitions with distinct predicate
/// shapes (every 4th also carries a proximity term).
struct Sweep {
  Sweep(size_t n, size_t nviews)
      : planner(&world), catalog(&world, &planner), rng(2026) {
    RegisterStandardComponents();
    pool.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      EntityId e = world.Create();
      world.Set(e, Health{rng.NextFloat(0, 100), 100.0f});
      world.Set(e, Position{{rng.NextFloat(0, kArena), 0,
                             rng.NextFloat(0, kArena)}});
      pool.push_back(e);
    }
    for (size_t v = 0; v < nviews; ++v) {
      ViewDef def;
      def.name = "v" + std::to_string(v);
      def.where = {{"Health", "hp", CmpOp::kLt,
                    double(5 + (v * 17) % 90)}};
      if (v % 4 == 3) {
        def.has_near = true;
        def.near = {"Position", "value",
                    {float((v * 131) % 1000), 0, float((v * 71) % 1000)},
                    60.0f};
      }
      defs.push_back(def);
    }
    planner.Analyze();
  }

  /// `churn_pct`% of entities get a tracked hp rewrite; a quarter of those
  /// also move.
  void Churn(int churn_pct) {
    world.AdvanceTick();
    size_t writes = pool.size() * size_t(churn_pct) / 100;
    for (size_t i = 0; i < writes; ++i) {
      EntityId e = pool[rng.NextU64() % pool.size()];
      world.Patch<Health>(e,
                          [&](Health& h) { h.hp = rng.NextFloat(0, 100); });
      if (i % 4 == 0) {
        world.Patch<Position>(e, [&](Position& p) {
          p.value.x += rng.NextFloat(-20, 20);
          p.value.z += rng.NextFloat(-20, 20);
        });
      }
    }
  }

  World world;
  QueryPlanner planner;
  ViewCatalog catalog;
  Rng rng;
  std::vector<EntityId> pool;
  std::vector<ViewDef> defs;
};

/// Evaluates every view definition by a fresh planner execution; returns
/// the rows summed over all views.
size_t Rescan(Sweep& s) {
  size_t rows = 0;
  for (const ViewDef& def : s.defs) {
    DynamicQuery q(&s.world);
    q.SetPlanner(&s.planner);
    q.WhereField(def.where[0].component, def.where[0].field,
                 def.where[0].op, def.where[0].rhs);
    if (def.has_near) {
      q.WithinRadius(def.near.component, def.near.field, def.near.center,
                     def.near.radius);
    }
    benchmark::DoNotOptimize(q.Each([&](EntityId) { ++rows; }));
  }
  return rows;
}

std::vector<LiveView*> RegisterAll(Sweep& s) {
  std::vector<LiveView*> views;
  for (const ViewDef& def : s.defs) {
    auto r = s.catalog.Register(def);
    GAMEDB_CHECK(r.ok());
    views.push_back(*r);
  }
  return views;
}

void BM_ViewRescan(benchmark::State& state) {
  auto n = static_cast<size_t>(state.range(0));
  int churn = static_cast<int>(state.range(1));
  auto nviews = static_cast<size_t>(state.range(2));
  Sweep s(n, nviews);

  for (auto _ : state) {
    s.Churn(churn);
    benchmark::DoNotOptimize(Rescan(s));
  }

  Sweep counted(n, nviews);
  for (int t = 0; t < kCountedTicks; ++t) counted.Churn(churn);
  state.counters["rows"] =
      benchmark::Counter(static_cast<double>(Rescan(counted)));
  state.SetLabel("rescan");
}
BENCHMARK(BM_ViewRescan)
    ->ArgsProduct({{10000, 100000}, {1, 10, 50}, {1, 8, 32}})
    ->Unit(benchmark::kMicrosecond);

void BM_ViewIncremental(benchmark::State& state) {
  auto n = static_cast<size_t>(state.range(0));
  int churn = static_cast<int>(state.range(1));
  auto nviews = static_cast<size_t>(state.range(2));
  Sweep s(n, nviews);
  std::vector<LiveView*> views = RegisterAll(s);

  for (auto _ : state) {
    s.Churn(churn);
    s.catalog.Maintain();
    for (LiveView* v : views) {
      // Read like the replication consumer, which asks a view about one
      // entity at a time (order-sensitive readers pay an O(m log m)
      // Members() sort after membership changes).
      benchmark::DoNotOptimize(v->size());
    }
  }

  Sweep counted(n, nviews);
  std::vector<LiveView*> counted_views = RegisterAll(counted);
  for (int t = 0; t < kCountedTicks; ++t) {
    counted.Churn(churn);
    counted.catalog.Maintain();
  }
  uint64_t reevals = 0;
  size_t rows = 0;
  for (LiveView* v : counted_views) {
    reevals += v->stats().reevaluated;
    rows += v->size();
  }
  state.counters["rows"] = benchmark::Counter(static_cast<double>(rows));
  state.counters["reevals_per_tick"] = benchmark::Counter(
      static_cast<double>(reevals) / kCountedTicks);
  state.SetLabel("incremental");
}
BENCHMARK(BM_ViewIncremental)
    ->ArgsProduct({{10000, 100000}, {1, 10, 50}, {1, 8, 32}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
