// Every consumer of a table's change log sees every delta: each
// ViewCatalog and each external reader holds its own cursor
// (core/change_log.h), so two catalogs on one World, a catalog beside any
// other reader, and a catalog that outlives another all stay fresh.

#include "core/change_log.h"

#include <gtest/gtest.h>

#include "core/reflect.h"
#include "core/sparse_set.h"
#include "core/world.h"
#include "views/maintainer.h"

namespace gamedb {
namespace {

using views::LiveView;
using views::ViewCatalog;
using views::ViewDef;

ViewDef WoundedDef(const std::string& name) {
  ViewDef def;
  def.name = name;
  def.where = {{"Health", "hp", CmpOp::kLt, 30.0}};
  return def;
}

class ChangeLogMultiConsumerTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterStandardComponents(); }

  EntityId Spawn(float hp) {
    EntityId e = world.Create();
    world.Set(e, Health{hp, 100.0f});
    return e;
  }

  void Wound(EntityId e) {
    world.Patch<Health>(e, [](Health& h) { h.hp = 5.0f; });
  }

  World world;
};

// Baseline sanity: with exactly one consumer, deltas arrive exactly once
// and maintenance converges.
TEST_F(ChangeLogMultiConsumerTest, SingleCatalogSeesEveryDelta) {
  ViewCatalog catalog(&world);
  EntityId e = Spawn(80.0f);
  LiveView* view = catalog.Register(WoundedDef("wounded")).value();
  EXPECT_FALSE(view->Contains(e));

  Wound(e);
  catalog.Maintain();
  EXPECT_TRUE(view->Contains(e));
  EXPECT_EQ(catalog.stats().change_records, 1u);
}

// An external reader between the mutation and Maintain() reads through its
// own cursor; the catalog still sees the delta.
TEST_F(ChangeLogMultiConsumerTest, ExternalReaderDoesNotStarveTheCatalog) {
  ViewCatalog catalog(&world);
  EntityId e = Spawn(80.0f);
  LiveView* view = catalog.Register(WoundedDef("wounded")).value();
  ChangeLog& log = world.Table<Health>().changes();
  ChangeLog::Cursor external = log.Open();

  Wound(e);
  ChangeSet seen;
  log.Read(external, &seen);
  ASSERT_EQ(seen.updated.size(), 1u) << "external reader got the delta";

  catalog.Maintain();
  EXPECT_TRUE(view->Contains(e)) << "and so did the catalog";
  EXPECT_EQ(catalog.stats().change_records, 1u);

  // Both go on seeing later mutations of the same row.
  world.Patch<Health>(e, [](Health& h) { h.hp = 95.0f; });
  log.Read(external, &seen);
  EXPECT_EQ(seen.updated.size(), 1u);
  catalog.Maintain();
  EXPECT_FALSE(view->Contains(e));
  log.Close(external);
}

// Two catalogs on one World each read every delta, whichever maintains
// first.
TEST_F(ChangeLogMultiConsumerTest, TwoCatalogsEachSeeEveryDelta) {
  ViewCatalog first(&world);
  ViewCatalog second(&world);
  EntityId e = Spawn(80.0f);
  LiveView* first_view = first.Register(WoundedDef("wounded_a")).value();
  LiveView* second_view = second.Register(WoundedDef("wounded_b")).value();

  Wound(e);
  first.Maintain();
  second.Maintain();
  EXPECT_TRUE(first_view->Contains(e));
  EXPECT_TRUE(second_view->Contains(e));
  EXPECT_EQ(second.stats().change_records, 1u);

  // Reverse the order for the next mutation: both see the exit.
  world.Patch<Health>(e, [](Health& h) { h.hp = 95.0f; });
  second.Maintain();
  first.Maintain();
  EXPECT_FALSE(second_view->Contains(e));
  EXPECT_FALSE(first_view->Contains(e));
  EXPECT_EQ(world.Table<Health>().changes().size(), 0u)
      << "both cursors read everything, so the log is empty";
}

// Registration itself populates from a full scan, so a brand-new catalog is
// correct at birth even though its cursor starts at the end of the log.
TEST_F(ChangeLogMultiConsumerTest, RegistrationSnapshotIsUnaffected) {
  ViewCatalog drainer(&world);
  drainer.Register(WoundedDef("drain")).value();
  EntityId e = Spawn(80.0f);
  Wound(e);
  drainer.Maintain();  // reads the delta

  ViewCatalog late(&world);
  LiveView* late_view = late.Register(WoundedDef("late")).value();
  EXPECT_TRUE(late_view->Contains(e))
      << "Register() populates by scan, not from the log";
}

// Destroying a catalog closes only its own cursors: a surviving catalog
// still sees the deltas recorded before and after the teardown.
TEST_F(ChangeLogMultiConsumerTest, CatalogTeardownKeepsTheSurvivorFresh) {
  ViewCatalog survivor(&world);
  LiveView* view = survivor.Register(WoundedDef("survivor")).value();
  EntityId e = Spawn(80.0f);
  {
    ViewCatalog doomed(&world);
    doomed.Register(WoundedDef("doomed")).value();
    Wound(e);  // logged for both catalogs
  }  // ~ViewCatalog closes the doomed catalog's cursor only

  survivor.Maintain();
  EXPECT_TRUE(view->Contains(e)) << "the survivor sees the wound";

  // Later mutations reach it too.
  world.Patch<Health>(e, [](Health& h) { h.hp = 90.0f; });
  survivor.Maintain();
  EXPECT_FALSE(view->Contains(e));
  world.Patch<Health>(e, [](Health& h) { h.hp = 2.0f; });
  survivor.Maintain();
  EXPECT_TRUE(view->Contains(e));
}

}  // namespace
}  // namespace gamedb
