// E7 — "Another way in which games deal with concurrency is by having
// weaker consistency guarantees ... animation or other uncontested activity
// may be out of sync between computers but the persistent game state is the
// same."
//
// Bytes/tick vs divergence for full-snapshot / delta / interest / eventual
// sync across a moving 2k-entity shard with 8 clients. Expected shape:
// full snapshot buys zero divergence at maximal bandwidth; delta matches it
// at a fraction of the bytes; interest cuts bytes by the visibility ratio
// at the cost of global awareness; eventual trades bounded staleness for
// the lowest byte rate.
//
// The counters (`bytes/tick/client`, `bytes/tick`, `pos_rmse_*`) come from
// a second, identically seeded shard run for kCountedTicks ticks outside
// the timed loop, so every run prints the same counters whatever iteration
// count Google Benchmark picks.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "replication/divergence.h"
#include "replication/sync.h"
#include "txn/workload.h"

namespace {

using namespace gamedb;               // NOLINT
using namespace gamedb::replication;  // NOLINT

constexpr int kCountedTicks = 60;

txn::WorkloadOptions ShardWorkload() {
  txn::WorkloadOptions wopts;
  wopts.num_entities = 2000;
  wopts.area_extent = 1000.0f;
  wopts.max_speed = 8.0f;
  return wopts;
}

/// The moving shard both benchmarks sync, with `clients` clients.
struct Shard {
  Shard(const SyncOptions& sopts, size_t clients)
      : workload(ShardWorkload()), sync(&workload.world(), sopts) {
    for (size_t c = 0; c < clients; ++c) {
      sync.AddClient(workload.entities()[c * 37]);
    }
  }

  /// One tick: move, sync every client, then sample client 0's position
  /// RMSE into `*rmse`. Returns the bytes sent to all clients.
  uint64_t Tick(double* rmse) {
    workload.AdvancePositions(0.05f);
    workload.world().AdvanceTick();
    Status st = sync.SyncAll(&stats);
    GAMEDB_CHECK(st.ok());
    uint64_t bytes = 0;
    for (const auto& s : stats) bytes += s.bytes_sent;
    *rmse = MeasureDivergence(workload.world(), sync.client(0).world())
                .position_rmse;
    return bytes;
  }

  txn::MmoWorkload workload;
  SyncServer sync;
  std::vector<SyncStats> stats;
};

/// Totals over kCountedTicks ticks of a fresh shard.
struct Counted {
  uint64_t bytes = 0;
  double rmse_sum = 0;
  double rmse_max = 0;
};

Counted CountTicks(const SyncOptions& sopts, size_t clients) {
  Shard shard(sopts, clients);
  Counted c;
  for (int t = 0; t < kCountedTicks; ++t) {
    double rmse = 0;
    c.bytes += shard.Tick(&rmse);
    c.rmse_sum += rmse;
    c.rmse_max = std::max(c.rmse_max, rmse);
  }
  return c;
}

void BM_SyncStrategy(benchmark::State& state) {
  auto strategy = static_cast<SyncStrategy>(state.range(0));
  SyncOptions sopts;
  sopts.strategy = strategy;
  sopts.interest_radius = 100.0f;
  sopts.period_ticks = 10;
  const size_t kClients = 8;
  Shard shard(sopts, kClients);

  for (auto _ : state) {
    // Divergence sampled every tick on client 0.
    double rmse = 0;
    benchmark::DoNotOptimize(shard.Tick(&rmse));
    benchmark::DoNotOptimize(rmse);
  }

  Counted c = CountTicks(sopts, kClients);
  state.counters["bytes/tick/client"] =
      benchmark::Counter(double(c.bytes) / kCountedTicks / kClients);
  state.counters["pos_rmse_avg"] =
      benchmark::Counter(c.rmse_sum / kCountedTicks);
  state.counters["pos_rmse_max"] = benchmark::Counter(c.rmse_max);
  state.SetLabel(SyncStrategyName(strategy));
}
BENCHMARK(BM_SyncStrategy)
    ->Arg(int(SyncStrategy::kFullSnapshot))
    ->Arg(int(SyncStrategy::kDelta))
    ->Arg(int(SyncStrategy::kInterest))
    ->Arg(int(SyncStrategy::kEventual))
    ->Unit(benchmark::kMillisecond);

void BM_EventualPeriodSweep(benchmark::State& state) {
  // The staleness dial: longer periods, fewer bytes, more drift.
  SyncOptions sopts;
  sopts.strategy = SyncStrategy::kEventual;
  sopts.period_ticks = uint32_t(state.range(0));
  Shard shard(sopts, 1);

  for (auto _ : state) {
    double rmse = 0;
    benchmark::DoNotOptimize(shard.Tick(&rmse));
    benchmark::DoNotOptimize(rmse);
  }

  Counted c = CountTicks(sopts, 1);
  state.counters["bytes/tick"] =
      benchmark::Counter(double(c.bytes) / kCountedTicks);
  state.counters["pos_rmse_max"] = benchmark::Counter(c.rmse_max);
  state.SetLabel("period=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_EventualPeriodSweep)
    ->Arg(1)
    ->Arg(5)
    ->Arg(20)
    ->Arg(60)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
