#pragma once

/// \file view.h
/// LiveView: an incrementally-maintained materialized view over the game
/// state database — a registered continuous query (conjunctive component /
/// field predicates, an optional fixed-center proximity term, an optional
/// aggregate) that is populated once through the cost-based planner and
/// thereafter maintained from per-table change capture
/// (core/change_log.h), so its per-tick cost scales with *change volume*,
/// not world size.
///
/// Paper: the "declarative processing" follow-up (Sowell et al., PAPERS.md)
/// argues the payoff of declarative game state is *incremental* evaluation:
/// queries that persist across ticks and are maintained from deltas instead
/// of re-scanned. A LiveView is that artifact; E14 measures the re-scan vs
/// maintenance crossover.
///
/// A LiveView holds the DynamicQuery it was registered as: population runs
/// that query (through the planner) and maintenance re-evaluates each
/// candidate with its DynamicQuery::Matches, so match semantics agree with
/// fresh execution by construction. tests/views/differential_test.cc
/// checks the rest of the contract: after any sequence of tracked
/// mutations followed by maintenance, a LiveView's membership, iteration
/// order and Aggregate() value are bit-identical to a from-scratch
/// execution of the same query. Writes that bypass change tracking
/// (GetMutableUntracked without Touch) are invisible — the same contract
/// maintained aggregates (core/aggregate.h) live with.
///
/// Thread safety: maintenance (ViewCatalog::Maintain) and registration
/// are sequential-phase operations. Read accessors —
/// Contains/size/Members/Aggregate — are safe to call
/// concurrently with each other (the scripted parallel query phase does;
/// the lazy sort cache behind Members is double-checked-locked), but not
/// concurrently with maintenance.

#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "core/change_log.h"
#include "core/query.h"
#include "core/world.h"

namespace gamedb::views {

/// Aggregate a LiveView folds over its members when read, with exactly
/// DynamicQuery's terminal semantics (Count/Sum/Min/Max/Avg).
enum class AggKind : uint8_t { kNone, kCount, kSum, kAvg, kMin, kMax };

const char* AggKindName(AggKind k);

/// Declarative definition of a LiveView — the continuous-query analogue of
/// building a DynamicQuery. Component/field names resolve at registration;
/// unknown names fail Register with NotFound.
struct ViewDef {
  /// Catalog-unique view name (subscriptions, GSL builtins, diagnostics).
  std::string name;

  /// Entities must carry every listed component.
  std::vector<std::string> with;

  /// One field comparison, as DynamicQuery::WhereField.
  struct Where {
    std::string component;
    std::string field;
    CmpOp op;
    FieldValue rhs;
  };
  std::vector<Where> where;

  /// Optional proximity term, as DynamicQuery::WithinRadius, around a
  /// center fixed at registration. Only moved entities re-probe it.
  struct Near {
    std::string component;
    std::string field;
    Vec3 center;
    float radius = 0.0f;
  };
  bool has_near = false;
  Near near;

  /// Optional aggregate over `agg_component.agg_field`, read through
  /// LiveView::Aggregate. An aggregate view additionally requires the
  /// aggregated component (a fresh DynamicQuery aggregate terminal does
  /// the same).
  AggKind aggregate = AggKind::kNone;
  std::string agg_component;
  std::string agg_field;
};

/// Maintenance counters for one LiveView.
struct ViewStats {
  uint64_t reevaluated = 0;    ///< per-entity delta re-evaluations
  uint64_t enters = 0;         ///< membership additions
  uint64_t exits = 0;          ///< membership removals
  uint64_t updates = 0;        ///< in-membership value changes
  uint64_t repopulations = 0;  ///< planner populations (1, at Register)
};

class ViewCatalog;

/// One registered continuous query. Created via ViewCatalog::Register;
/// maintained by ViewCatalog::Maintain.
class LiveView {
 public:
  GAMEDB_DISALLOW_COPY(LiveView);

  const std::string& name() const { return def_.name; }
  const ViewDef& def() const { return def_; }

  // --- Membership reads --------------------------------------------------

  bool Contains(EntityId e) const { return members_.count(e.Raw()) > 0; }
  size_t size() const { return members_.size(); }

  /// Members in canonical order — the dense order of the query's smallest
  /// required table, exactly the order a fresh planner execution of the
  /// same query emits. Lazily re-sorted (O(m log m)) when the world moved
  /// under the cached order; safe for concurrent readers.
  const std::vector<EntityId>& Members() const;

  // --- Aggregate reads ---------------------------------------------------

  /// The aggregate evaluated with DynamicQuery terminal semantics: folds
  /// current member values in canonical order, so the result is
  /// bit-identical to the equivalent fresh Count/Sum/Min/Max/Avg call
  /// (floating-point addition is order-sensitive). Min/Max/Avg on an
  /// empty fold return NotFound, as the fresh terminals do. NotSupported
  /// when the view has no aggregate.
  Result<double> Aggregate() const;

  // --- Subscriptions -----------------------------------------------------

  using Callback = std::function<void(EntityId)>;

  /// Fired from maintenance (a sequential point): entity entered / left
  /// the view, or a tracked write touched a current member. Handlers run
  /// in deterministic delta order and must not mutate the World. Each
  /// returns a handle for the matching Remove* (subscribers whose owner
  /// can die before the view — TriggerSystem::WatchView — unsubscribe in
  /// their destructor).
  size_t OnEnter(Callback cb) { return Add(&enter_cbs_, std::move(cb)); }
  size_t OnExit(Callback cb) { return Add(&exit_cbs_, std::move(cb)); }
  size_t OnUpdate(Callback cb) { return Add(&update_cbs_, std::move(cb)); }
  void RemoveOnEnter(size_t handle) { Remove(&enter_cbs_, handle); }
  void RemoveOnExit(size_t handle) { Remove(&exit_cbs_, handle); }
  void RemoveOnUpdate(size_t handle) { Remove(&update_cbs_, handle); }

  // --- Maintenance surface (ViewCatalog; tests) ---------------------------

  /// Component tables (type ids, deduplicated) this view must observe.
  const std::vector<uint32_t>& dependencies() const { return deps_; }

  const ViewStats& stats() const { return stats_; }

 private:
  friend class ViewCatalog;

  LiveView(World* world, QueryPlanHook* planner, ViewDef def)
      : world_(world), planner_(planner), def_(std::move(def)),
        query_(world) {}

  /// Builds query_ from def_ in DynamicQuery construction order (With...,
  /// WhereField..., WithinRadius, aggregate component last: the canonical
  /// driver's tie-break depends on this order), validates it, and resolves
  /// the aggregate field and the dependency list.
  Status Resolve();

  /// The initial population (ViewCatalog::Register, on an empty view):
  /// runs the query (through the planner, when there is one) and enters
  /// each row in canonical order.
  Status Populate();

  // Delta application (ViewCatalog::Maintain).
  void MarkCandidate(EntityId e);
  void ApplyCandidates();
  void Reevaluate(EntityId e);

  void Enter(EntityId e);
  void Exit(EntityId e);
  void Update(EntityId e);

  static size_t Add(std::vector<Callback>* cbs, Callback cb) {
    cbs->push_back(std::move(cb));
    return cbs->size() - 1;
  }
  static void Remove(std::vector<Callback>* cbs, size_t handle) {
    GAMEDB_DCHECK(handle < cbs->size());
    if (handle < cbs->size()) (*cbs)[handle] = nullptr;
  }

  World* world_;
  QueryPlanHook* planner_;
  ViewDef def_;

  /// The query def_ describes, attached to planner_.
  DynamicQuery query_;
  std::vector<uint32_t> deps_;  // query_.required(), deduplicated
  uint32_t agg_type_ = 0;
  const FieldInfo* agg_field_ = nullptr;

  // Membership.
  std::unordered_set<uint64_t> members_;

  // Canonical-order cache: valid while nothing structural moved in the
  // cached driver table and membership is unchanged.
  mutable std::shared_mutex sort_mu_;
  mutable std::vector<EntityId> sorted_;
  mutable const ComponentStore* sorted_driver_ = nullptr;
  mutable uint64_t sorted_driver_version_ = 0;
  mutable bool sorted_dirty_ = true;

  // Per-maintenance-round candidate set (deduplicated, first-mark order).
  std::vector<EntityId> candidates_;
  std::unordered_set<uint64_t> candidate_set_;

  std::vector<Callback> enter_cbs_;
  std::vector<Callback> exit_cbs_;
  std::vector<Callback> update_cbs_;

  ViewStats stats_;
};

}  // namespace gamedb::views
