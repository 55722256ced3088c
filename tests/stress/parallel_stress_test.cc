// Stress tier (ctest label: stress): bigger worlds and longer parallel
// loops than the unit suites run, sized to still finish in seconds. These
// are the suites the ThreadSanitizer CI job runs — they exist to make
// cross-thread interleavings dense enough that a reintroduced race (e.g. a
// mutation builtin writing the World from a query-phase thread, or a
// thread-pool completion bug) actually fires.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/serialize.h"
#include "core/state_effect.h"
#include "script/host.h"

namespace gamedb {
namespace {

using script::ScriptHost;
using script::ScriptHostOptions;

class ParallelStressTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterStandardComponents(); }
};

// A long scripted parallel loop over a big world must stay bit-identical
// to the single-threaded run — the unit-suite determinism proof, scaled up
// until scheduling noise has thousands of chances to leak in.
TEST_F(ParallelStressTest, LargeScriptedWorldDeterminism) {
  constexpr size_t kEntities = 4096;
  constexpr size_t kTicks = 30;
  auto run = [](size_t threads) {
    World world;
    std::vector<EntityId> ids;
    ids.reserve(kEntities);
    for (size_t i = 0; i < kEntities; ++i) {
      EntityId e = world.Create();
      ids.push_back(e);
      world.Set(e, Health{40.0f + float(i % 61), 120.0f});
      Combat c;
      c.attack = 0.5f + float(i % 9);
      world.Set(e, c);
    }
    for (size_t i = 0; i < kEntities; ++i) {
      world.Patch<Combat>(ids[i], [&](Combat& c) {
        c.target = ids[(i * 37 + 11) % kEntities];  // scattered targets
      });
    }
    ScriptHostOptions opts;
    opts.num_threads = threads;
    ScriptHost host(&world, opts);
    host.OnChannel("damage", [&world](EntityId e, double total) {
      bool dead = false;
      world.Patch<Health>(e, [&](Health& h) {
        h.hp -= float(total);
        dead = h.hp <= 0.0f;
      });
      if (dead) world.Destroy(e);
    });
    host.OnChannel("regen", [&world](EntityId e, double total) {
      world.Patch<Health>(e, [&](Health& h) {
        h.hp = std::min(h.hp + float(total), h.max_hp);
      });
    });
    EXPECT_TRUE(host
                    .Load("fn tick(e) {\n"
                          "  let t = get(e, \"Combat\", \"target\")\n"
                          "  if is_alive(t) {\n"
                          "    emit(\"damage\", t, get(e, \"Combat\", "
                          "\"attack\"))\n"
                          "  }\n"
                          "  emit(\"regen\", e, random() * 3)\n"
                          "  if get(e, \"Health\", \"hp\") > 110 {\n"
                          "    set(e, \"Health\", \"hp\", 110)\n"
                          "  }\n"
                          "}")
                    .ok());
    for (size_t t = 0; t < kTicks; ++t) {
      world.AdvanceTick();
      auto stats = host.RunTickOver("tick", "Combat");
      EXPECT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(stats->script_errors, 0u) << stats->first_error.ToString();
    }
    std::string snap;
    EncodeWorldSnapshot(world, &snap);
    return snap;
  };
  std::string seq = run(1);
  EXPECT_EQ(seq, run(4));
  EXPECT_EQ(seq, run(8));
}

// Many external threads hammering one pool with overlapping batches, some
// of whose chunks run nested batches.
TEST(ThreadPoolStressTest, OverlappingAndNestedBatches) {
  ThreadPool pool(8);
  std::atomic<long> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 6; ++c) {
    callers.emplace_back([&pool, &total, c] {
      for (int round = 0; round < 60; ++round) {
        if ((round + c) % 3 == 0) {
          // Nested: every chunk fans out again from inside the pool.
          pool.ParallelForChunks(4, [&](size_t, size_t b, size_t e) {
            for (size_t part = b; part < e; ++part) {
              pool.ParallelForChunks(512, [&](size_t, size_t b2, size_t e2) {
                total.fetch_add(long(e2 - b2));
              });
            }
          });
        } else {
          pool.ParallelFor(2048, [&](size_t b, size_t e) {
            total.fetch_add(long(e - b));
          });
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  // Per caller: 20 nested rounds of 4*512 + 40 plain rounds of 2048.
  EXPECT_EQ(total.load(), 6L * (20 * 4 * 512 + 40 * 2048));
}

// Long contribute/drain loop through the state-effect executor: per-shard
// buffers on pool threads, merged drains on the caller thread.
TEST(StateEffectStressTest, RepeatedParallelContributeDrain) {
  StateEffectExecutor exec(8);
  Effect<double> acc(exec.shard_count());
  std::vector<int> items(20000);
  for (size_t i = 0; i < items.size(); ++i) items[i] = int(i);
  double expected_per_round = 0;
  for (int v : items) expected_per_round += double(v % 97);
  for (int round = 0; round < 50; ++round) {
    exec.ParallelOver(items, [&](size_t shard, int v) {
      acc.Contribute(shard, EntityId(uint32_t(v % 512), 0), double(v % 97));
    });
    double sum = 0;
    acc.Drain([&](EntityId, const double& v) { sum += v; });
    ASSERT_DOUBLE_EQ(sum, expected_per_round);
  }
}

}  // namespace
}  // namespace gamedb
