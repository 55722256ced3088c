#include "core/sparse_set.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace gamedb {
namespace {

struct Hp {
  float value = 0;
};

TEST(SparseSetTest, SetGetContains) {
  SparseSet<Hp> set;
  EntityId e(3, 0);
  EXPECT_FALSE(set.Contains(e));
  EXPECT_EQ(set.Get(e), nullptr);
  set.Set(e, Hp{10});
  EXPECT_TRUE(set.Contains(e));
  ASSERT_NE(set.Get(e), nullptr);
  EXPECT_FLOAT_EQ(set.Get(e)->value, 10);
  EXPECT_EQ(set.Size(), 1u);
}

TEST(SparseSetTest, SetOverwrites) {
  SparseSet<Hp> set;
  EntityId e(0, 0);
  set.Set(e, Hp{1});
  set.Set(e, Hp{2});
  EXPECT_EQ(set.Size(), 1u);
  EXPECT_FLOAT_EQ(set.Get(e)->value, 2);
}

TEST(SparseSetTest, GenerationMismatchIsMiss) {
  SparseSet<Hp> set;
  set.Set(EntityId(5, 0), Hp{1});
  EXPECT_FALSE(set.Contains(EntityId(5, 1)));
  EXPECT_EQ(set.Get(EntityId(5, 1)), nullptr);
  EXPECT_FALSE(set.Erase(EntityId(5, 1)));
  EXPECT_EQ(set.Size(), 1u);
}

TEST(SparseSetTest, EraseSwapsLastIntoHole) {
  SparseSet<Hp> set;
  EntityId a(0, 0), b(1, 0), c(2, 0);
  set.Set(a, Hp{1});
  set.Set(b, Hp{2});
  set.Set(c, Hp{3});
  EXPECT_TRUE(set.Erase(b));
  EXPECT_EQ(set.Size(), 2u);
  EXPECT_FALSE(set.Contains(b));
  EXPECT_FLOAT_EQ(set.Get(a)->value, 1);
  EXPECT_FLOAT_EQ(set.Get(c)->value, 3);  // survived the swap
  EXPECT_FALSE(set.Erase(b));             // double-erase is a no-op
}

TEST(SparseSetTest, PatchMutatesInPlace) {
  SparseSet<Hp> set;
  EntityId e(9, 0);
  set.Set(e, Hp{5});
  EXPECT_TRUE(set.Patch(e, [](Hp& hp) { hp.value += 1; }));
  EXPECT_FLOAT_EQ(set.Get(e)->value, 6);
  EXPECT_FALSE(set.Patch(EntityId(8, 0), [](Hp&) {}));
}

TEST(SparseSetTest, VersionsIncreaseMonotonically) {
  SparseSet<Hp> set;
  EntityId a(0, 0), b(1, 0);
  uint64_t v0 = set.last_version();
  set.Set(a, Hp{1});
  uint64_t v1 = set.last_version();
  EXPECT_GT(v1, v0);
  set.Set(b, Hp{2});
  set.Patch(a, [](Hp& hp) { hp.value = 9; });
  uint64_t v3 = set.last_version();
  EXPECT_GT(v3, v1);
}

// Every tracked write, erasures included, reaches the change log as one
// record of its kind, which a cursor walks once; reading them drops them
// from the log.
TEST(SparseSetTest, RemovedLogTracksErasures) {
  SparseSet<Hp> set;
  EntityId a(0, 0), b(1, 0);
  set.Set(a, Hp{1});
  ChangeLog::Cursor cursor = set.changes().Open();
  set.Set(b, Hp{2});                           // add
  set.Set(b, Hp{3});                           // update (overwrite)
  set.Patch(b, [](Hp& hp) { hp.value = 4; });  // update (patch)
  set.Erase(a);                                // remove
  using Record = std::pair<EntityId, ChangeKind>;
  auto read = [&]() {
    std::vector<Record> records;
    set.changes().ForEachRecord(cursor, [&](EntityId e, ChangeKind kind) {
      records.emplace_back(e, kind);
    });
    return records;
  };
  EXPECT_EQ(read(), (std::vector<Record>{{b, ChangeKind::kAdd},
                                         {b, ChangeKind::kUpdate},
                                         {b, ChangeKind::kUpdate},
                                         {a, ChangeKind::kRemove}}));
  EXPECT_EQ(set.changes().size(), 0u);
  EXPECT_TRUE(read().empty());
  set.changes().Close(cursor);
}

TEST(SparseSetTest, GetMutableUntrackedSkipsVersionBump) {
  SparseSet<Hp> set;
  EntityId e(0, 0);
  set.Set(e, Hp{1});
  uint64_t v = set.last_version();
  Hp* hp = set.GetMutableUntracked(e);
  ASSERT_NE(hp, nullptr);
  hp->value = 99;
  EXPECT_EQ(set.last_version(), v);
  set.Touch(e);
  EXPECT_GT(set.last_version(), v);
}

TEST(SparseSetTest, ClearNotifiesRemovals) {
  SparseSet<Hp> set;
  for (uint32_t i = 0; i < 10; ++i) set.Set(EntityId(i, 0), Hp{float(i)});
  ChangeLog::Cursor cursor = set.changes().Open();
  set.Clear();
  EXPECT_EQ(set.Size(), 0u);
  std::set<uint32_t> removed;
  set.changes().ForEachRecord(cursor, [&](EntityId e, ChangeKind kind) {
    EXPECT_EQ(kind, ChangeKind::kRemove);
    removed.insert(e.index);
  });
  EXPECT_EQ(removed.size(), 10u);
  set.changes().Close(cursor);
}

TEST(SparseSetTest, RandomOpsAgainstReferenceModel) {
  SparseSet<Hp> set;
  std::set<uint32_t> model;  // indexes present (generation fixed at 0)
  Rng rng(777);
  for (int op = 0; op < 20000; ++op) {
    uint32_t idx = static_cast<uint32_t>(rng.NextBounded(256));
    EntityId e(idx, 0);
    switch (rng.NextBounded(3)) {
      case 0:
        set.Set(e, Hp{float(idx)});
        model.insert(idx);
        break;
      case 1:
        EXPECT_EQ(set.Erase(e), model.erase(idx) > 0);
        break;
      case 2:
        EXPECT_EQ(set.Contains(e), model.count(idx) > 0);
        break;
    }
    ASSERT_EQ(set.Size(), model.size());
  }
  // Values survived the swaps correctly.
  set.ForEach([&](EntityId e, const Hp& hp) {
    ASSERT_TRUE(model.count(e.index));
    ASSERT_FLOAT_EQ(hp.value, float(e.index));
  });
}

}  // namespace
}  // namespace gamedb
