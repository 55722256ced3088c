#pragma once

/// \file maintainer.h
/// ViewCatalog: owns a World's LiveViews and drives their incremental
/// maintenance from the tables' change logs.
///
/// Flow per quiescent point (ViewCatalog::Maintain — the tick loop calls it
/// at the sequential point before each parallel script phase and again
/// before each sync; ScriptHost never calls it):
///   1. every dependency table's change log is read once through the
///      catalog's own cursor into a net ChangeSet (core/change_log.h);
///   2. each changed entity is marked as a re-evaluation candidate on every
///      view depending on that table (deduplicated per view);
///   3. each view re-evaluates its candidates against current world state —
///      enter/exit/update transitions fire subscriptions deterministically.
/// Re-evaluation is stateless per entity (current match status vs current
/// membership), so any candidate superset converges to the correct
/// membership; cost scales with change volume, not world size.
///
/// Each catalog reads through cursors of its own, so any number of
/// catalogs and other change-log readers can share a World: every one of
/// them sees every delta.

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/world.h"
#include "telemetry/sink.h"
#include "views/view.h"

namespace gamedb::views {

/// Maintenance counters for one catalog.
struct CatalogStats {
  uint64_t rounds = 0;          ///< Maintain() calls
  uint64_t tables_flushed = 0;  ///< table reads that carried any net change
  uint64_t change_records = 0;  ///< net change records routed to views
};

/// Registry + maintainer of LiveViews over one World. Sequential-phase
/// object: Register/Maintain must not run concurrently with each other or
/// with view reads (the tick loop calls Maintain from its sequential
/// point, which is exactly that discipline).
class ViewCatalog {
 public:
  /// `planner` (a planner/planner.h QueryPlanner, or null for the built-in
  /// query path) executes view (re)populations; it must outlive the
  /// catalog.
  explicit ViewCatalog(World* world, QueryPlanHook* planner = nullptr)
      : world_(world), planner_(planner) {}
  /// Closes the catalog's change-log cursors, so its tables stop keeping
  /// records for it. The catalog must therefore not outlive its World.
  ~ViewCatalog();
  GAMEDB_DISALLOW_COPY(ViewCatalog);

  /// Resolves, registers and populates a view. Opens a change-log cursor
  /// on each dependency table the catalog does not read yet. Fails on
  /// unknown names, empty constraint sets or a duplicate view name; the
  /// catalog is unchanged on failure (the cursors this call opened are
  /// closed again).
  Result<LiveView*> Register(ViewDef def);

  /// Registered view by name (O(1), no key-copy allocation — the GSL view
  /// builtins resolve a name per call on the parallel-phase path);
  /// nullptr when unknown.
  LiveView* Find(const std::string& name);
  const LiveView* Find(const std::string& name) const;

  /// Quiescent-point maintenance: read each dependency table's changes,
  /// re-evaluate changed entities, fire subscriptions. See file comment.
  void Maintain();

  size_t view_count() const { return views_.size(); }

  /// Names of every registered view, in registration order (feeds schema
  /// enumeration for did-you-mean lint suggestions).
  std::vector<std::string> ViewNames() const {
    std::vector<std::string> names;
    names.reserve(views_.size());
    for (const auto& v : views_) names.push_back(v->name());
    return names;
  }

  const CatalogStats& stats() const { return stats_; }
  World* world() const { return world_; }
  QueryPlanHook* planner() const { return planner_; }

  /// Attaches a telemetry sink: Maintain() folds its round/table/change
  /// counters into `views.*` registry instruments. (The tick loop times
  /// each round as its own phase.) Non-owning; the sink's registry must
  /// outlive the catalog. Call from sequential code.
  void SetTelemetry(const telemetry::TelemetrySink& sink);

 private:
  World* world_;
  QueryPlanHook* planner_;
  std::vector<std::unique_ptr<LiveView>> views_;
  /// name -> view (the GSL builtins resolve names per call; keep it O(1)).
  std::unordered_map<std::string, LiveView*> by_name_;
  /// One dependency table: the catalog's cursor into its change log and
  /// the views depending on it (registration order).
  struct Table {
    uint32_t type_id = 0;
    ChangeLog::Cursor cursor = 0;
    std::vector<LiveView*> views;
  };
  /// Dependency tables, in first-registration order.
  std::vector<Table> tables_;
  ChangeSet scratch_;
  CatalogStats stats_;
  /// Cached registry instruments (all nullptr until SetTelemetry).
  telemetry::Counter* m_rounds_ = nullptr;
  telemetry::Counter* m_tables_flushed_ = nullptr;
  telemetry::Counter* m_change_records_ = nullptr;
};

}  // namespace gamedb::views
