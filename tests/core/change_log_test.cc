#include "core/change_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/reflect.h"
#include "core/sparse_set.h"
#include "core/world.h"

namespace gamedb {
namespace {

class ChangeLogTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterStandardComponents(); }

  /// Raw ids in a ChangeSet list, for order-insensitive membership checks.
  static std::vector<uint64_t> Raw(const std::vector<EntityId>& v) {
    std::vector<uint64_t> out;
    for (EntityId e : v) out.push_back(e.Raw());
    return out;
  }

  static bool Lists(const std::vector<EntityId>& v, EntityId e) {
    return std::find(v.begin(), v.end(), e) != v.end();
  }

  /// Reads the Health log through the fixture's cursor into `cs`.
  void Read() { log().Read(cursor, &cs); }
  ChangeLog& log() { return world.Table<Health>().changes(); }

  World world;
  ChangeSet cs;
  ChangeLog::Cursor cursor = 0;
};

// Capture is on exactly while a cursor is open: with none, a table keeps
// no records, and a cursor opened later sees nothing from before it.
TEST_F(ChangeLogTest, CaptureDisabledRecordsNothing) {
  auto& table = world.Table<Health>();
  EntityId e = world.Create();
  world.Set(e, Health{50, 100});
  world.Patch<Health>(e, [](Health& h) { h.hp = 10; });
  table.Erase(e);
  EXPECT_EQ(log().size(), 0u);
  cursor = log().Open();
  Read();
  EXPECT_TRUE(cs.Empty());
}

TEST_F(ChangeLogTest, LogHoldsOnlyRecordsAfterTheSlowestCursor) {
  EntityId a = world.Create();
  EntityId b = world.Create();
  ChangeLog::Cursor slow = log().Open();
  ChangeLog::Cursor fast = log().Open();
  world.Set(a, Health{50, 100});  // record 1
  world.Set(b, Health{60, 100});  // record 2
  EXPECT_EQ(log().size(), 2u);

  log().Read(fast, &cs);  // fast is done; slow still needs both records
  EXPECT_EQ(cs.added.size(), 2u);
  EXPECT_EQ(log().size(), 2u);

  world.Patch<Health>(a, [](Health& h) { h.hp = 1; });  // record 3
  log().Read(slow, &cs);  // slow reads 1-3; fast still needs record 3
  EXPECT_EQ(cs.added.size(), 2u) << "a's update folds into its add";
  EXPECT_EQ(log().size(), 1u);

  // The raw reader sees records 3 and 4 uncoalesced, in log order.
  std::vector<std::pair<EntityId, ChangeKind>> raw;
  world.Remove<Health>(b);  // record 4
  log().ForEachRecord(fast, [&](EntityId e, ChangeKind kind) {
    raw.emplace_back(e, kind);
  });
  ASSERT_EQ(raw.size(), 2u);
  EXPECT_EQ(raw[0], std::make_pair(a, ChangeKind::kUpdate));
  EXPECT_EQ(raw[1], std::make_pair(b, ChangeKind::kRemove));
  EXPECT_EQ(log().size(), 1u) << "only record 4, which slow has not read";
  log().Read(slow, &cs);
  EXPECT_EQ(Raw(cs.removed), std::vector<uint64_t>{b.Raw()});
  EXPECT_EQ(log().size(), 0u);
  log().Close(slow);
  log().Close(fast);
}

TEST_F(ChangeLogTest, ClosingTheSlowestCursorFreesItsRecords) {
  EntityId e = world.Create();
  ChangeLog::Cursor slow = log().Open();
  world.Set(e, Health{50, 100});
  ChangeLog::Cursor fast = log().Open();
  world.Patch<Health>(e, [](Health& h) { h.hp = 1; });
  EXPECT_EQ(log().size(), 2u);

  log().Close(slow);  // fast never needed the add
  EXPECT_EQ(log().size(), 1u);
  log().Close(fast);  // no reader left: the log empties and stops recording
  EXPECT_EQ(log().size(), 0u);
  world.Patch<Health>(e, [](Health& h) { h.hp = 2; });
  EXPECT_EQ(log().size(), 0u);

  // A closed slot is reused, and starts at the end of the log.
  cursor = log().Open();
  Read();
  EXPECT_TRUE(cs.Empty());
  log().Close(cursor);
}

TEST_F(ChangeLogTest, AddUpdateRemoveReportedSeparately) {
  auto& table = world.Table<Health>();
  cursor = log().Open();

  EntityId e = world.Create();
  world.Set(e, Health{50, 100});
  Read();
  EXPECT_EQ(cs.added.size(), 1u);
  EXPECT_TRUE(cs.removed.empty());
  EXPECT_TRUE(cs.updated.empty());
  EXPECT_TRUE(Lists(cs.added, e));

  // Multiple updates coalesce into one net `updated` record.
  world.Patch<Health>(e, [](Health& h) { h.hp = 20; });
  world.Patch<Health>(e, [](Health& h) { h.hp = 30; });
  table.Touch(e);
  Read();
  EXPECT_TRUE(cs.added.empty());
  EXPECT_EQ(cs.updated.size(), 1u);
  EXPECT_TRUE(Lists(cs.updated, e));

  table.Erase(e);
  Read();
  EXPECT_EQ(cs.removed.size(), 1u);
  EXPECT_TRUE(Lists(cs.removed, e));

  // Reading again reports nothing: the cursor advanced.
  Read();
  EXPECT_TRUE(cs.Empty());
}

TEST_F(ChangeLogTest, UpdateThenRemoveCoalescesToRemoved) {
  auto& table = world.Table<Health>();
  EntityId e = world.Create();
  world.Set(e, Health{50, 100});
  cursor = log().Open();

  world.Patch<Health>(e, [](Health& h) { h.hp = 1; });
  world.Patch<Health>(e, [](Health& h) { h.hp = 2; });
  table.Erase(e);
  Read();
  EXPECT_TRUE(cs.added.empty());
  EXPECT_TRUE(cs.updated.empty());
  EXPECT_EQ(Raw(cs.removed), std::vector<uint64_t>{e.Raw()});
}

TEST_F(ChangeLogTest, AddThenRemoveCancelsOut) {
  auto& table = world.Table<Health>();
  cursor = log().Open();
  EntityId e = world.Create();
  world.Set(e, Health{50, 100});
  world.Patch<Health>(e, [](Health& h) { h.hp = 1; });
  table.Erase(e);
  Read();
  EXPECT_TRUE(cs.Empty()) << "a row born and dead within one window is "
                             "invisible to delta consumers";
}

TEST_F(ChangeLogTest, RemoveThenReAddReportsUpdated) {
  auto& table = world.Table<Health>();
  EntityId e = world.Create();
  world.Set(e, Health{50, 100});
  cursor = log().Open();

  table.Erase(e);
  world.Set(e, Health{75, 100});
  Read();
  EXPECT_TRUE(cs.added.empty());
  EXPECT_TRUE(cs.removed.empty());
  EXPECT_EQ(Raw(cs.updated), std::vector<uint64_t>{e.Raw()})
      << "row existed at window start and exists now, value may differ";
}

TEST_F(ChangeLogTest, DestroyThenRecreateSameSlotInOneWindow) {
  cursor = log().Open();

  EntityId old_e = world.Create();
  world.Set(old_e, Health{50, 100});
  Read();  // window boundary: old_e's add is read

  world.Destroy(old_e);  // erases the Health row -> logged as remove
  EntityId new_e = world.Create();
  ASSERT_EQ(new_e.index, old_e.index);  // slot reuse
  ASSERT_NE(new_e, old_e);              // distinct generation
  world.Set(new_e, Health{10, 100});

  Read();
  EXPECT_EQ(Raw(cs.removed), std::vector<uint64_t>{old_e.Raw()});
  EXPECT_EQ(Raw(cs.added), std::vector<uint64_t>{new_e.Raw()});
  EXPECT_TRUE(cs.updated.empty());
}

TEST_F(ChangeLogTest, ClearReportsEveryRemoval) {
  auto& table = world.Table<Health>();
  std::vector<EntityId> es;
  for (int i = 0; i < 5; ++i) {
    EntityId e = world.Create();
    world.Set(e, Health{float(i), 100});
    es.push_back(e);
  }
  cursor = log().Open();
  table.Clear();
  Read();
  EXPECT_EQ(cs.removed.size(), 5u);
  for (EntityId e : es) EXPECT_TRUE(Lists(cs.removed, e));
}

TEST_F(ChangeLogTest, FirstMutationOrderIsPreserved) {
  cursor = log().Open();
  EntityId a = world.Create();
  EntityId b = world.Create();
  EntityId c = world.Create();
  world.Set(b, Health{1, 100});
  world.Set(a, Health{2, 100});
  world.Set(c, Health{3, 100});
  world.Patch<Health>(a, [](Health& h) { h.hp = 9; });  // no reordering
  Read();
  EXPECT_EQ(Raw(cs.added),
            (std::vector<uint64_t>{b.Raw(), a.Raw(), c.Raw()}));
}

}  // namespace
}  // namespace gamedb
