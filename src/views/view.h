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
/// Correctness contract (enforced by tests/views/differential_test.cc):
/// after any sequence of tracked mutations followed by maintenance, a
/// LiveView's membership, iteration order and Aggregate() value are
/// bit-identical to a from-scratch planner execution of the same
/// DynamicQuery. Writes that bypass change tracking
/// (GetMutableUntracked without Touch) are invisible — the same contract
/// maintained aggregates (core/aggregate.h) live with.
///
/// Thread safety: maintenance (ViewCatalog::Maintain, Recenter) and
/// registration are sequential-phase operations. Read accessors —
/// Contains/size/count/running_*/Members/Aggregate — are safe to call
/// concurrently with each other (the scripted parallel query phase does;
/// the lazy sort cache behind Members is double-checked-locked), but not
/// concurrently with maintenance.

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "core/aggregate.h"
#include "core/change_log.h"
#include "core/query.h"
#include "core/world.h"

namespace gamedb::views {

/// Aggregate a LiveView maintains over its members, evaluated with exactly
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

  /// Optional proximity term, as DynamicQuery::WithinRadius. The center
  /// may later be moved with LiveView::Recenter (an index-assisted
  /// repopulate, not an O(world) rescan).
  struct Near {
    std::string component;
    std::string field;
    Vec3 center;
    float radius = 0.0f;
  };
  bool has_near = false;
  Near near;

  /// Optional maintained aggregate over `agg_component.agg_field`. An
  /// aggregate view additionally requires the aggregated component (a
  /// fresh DynamicQuery aggregate terminal does the same).
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
  uint64_t repopulations = 0;  ///< full planner (re)populations
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

  /// Unordered member iteration: no canonical sort, no allocation. The
  /// right read for consumers that don't need deterministic order (e.g.
  /// building an interest set); large views pay only O(m) here where
  /// Members() pays a re-sort after any driver-table write.
  template <typename Fn>
  void ForEachMember(Fn&& fn) const {
    for (uint64_t raw : members_) fn(EntityId::FromRaw(raw));
  }

  // --- Aggregate reads ---------------------------------------------------

  /// The aggregate evaluated with DynamicQuery terminal semantics: folds
  /// current member values in canonical order, so the result is
  /// bit-identical to the equivalent fresh Count/Sum/Min/Max/Avg call
  /// (floating-point addition is order-sensitive; the maintained running
  /// values below trade that exactness for O(1) reads). Min/Max/Avg on an
  /// empty fold return NotFound, as the fresh terminals do. NotSupported
  /// when the view has no aggregate.
  Result<double> Aggregate() const;

  /// O(1)/O(log n) incrementally-maintained reads (core/aggregate.h
  /// machinery). `count` is exact: membership size for count views,
  /// numeric contributions for folding aggregates.
  /// `running_sum`/`running_avg` can drift from Aggregate() by
  /// floating-point rounding accumulated across maintenance;
  /// `running_min`/`running_max` are exact over the current member
  /// multiset (maintained only for kMin/kMax views).
  int64_t count() const {
    switch (def_.aggregate) {
      case AggKind::kSum:
      case AggKind::kAvg:
      case AggKind::kMin:
      case AggKind::kMax:
        return running_.count;
      case AggKind::kNone:
      case AggKind::kCount:
        break;
    }
    return static_cast<int64_t>(members_.size());
  }
  double running_sum() const { return running_.sum; }
  double running_avg() const { return running_.Average(); }
  bool running_extrema_empty() const { return extrema_.empty(); }
  double running_min() const {
    GAMEDB_DCHECK(!extrema_.empty());
    return *extrema_.begin();
  }
  double running_max() const {
    GAMEDB_DCHECK(!extrema_.empty());
    return *extrema_.rbegin();
  }

  // --- Subscriptions -----------------------------------------------------

  using Callback = std::function<void(EntityId)>;

  /// Fired from maintenance (a sequential point): entity entered / left
  /// the view, or a tracked write touched a current member. Handlers run
  /// in deterministic delta order and must not mutate the World. Each
  /// returns a handle for the matching Remove* (subscribers whose owner
  /// can die before the view — TriggerSystem::WatchView — unsubscribe in
  /// their destructor, the core/aggregate.h pattern).
  size_t OnEnter(Callback cb) { return Add(&enter_cbs_, std::move(cb)); }
  size_t OnExit(Callback cb) { return Add(&exit_cbs_, std::move(cb)); }
  size_t OnUpdate(Callback cb) { return Add(&update_cbs_, std::move(cb)); }
  void RemoveOnEnter(size_t handle) { Remove(&enter_cbs_, handle); }
  void RemoveOnExit(size_t handle) { Remove(&exit_cbs_, handle); }
  void RemoveOnUpdate(size_t handle) { Remove(&update_cbs_, handle); }

  // --- Maintenance surface (ViewCatalog; tests) ---------------------------

  /// Moves the proximity term's center and repopulates through the planner
  /// (index-assisted), diffing against current membership so subscribers
  /// still see enter/exit deltas. InvalidArgument when the view has no
  /// proximity term. No-op (cheap) when the center is unchanged.
  Status Recenter(const Vec3& center);

  /// Full planner repopulation (diffs + fires callbacks). Register calls
  /// this once; Recenter reuses it.
  Status Repopulate();

  /// Component tables (type ids, deduplicated) this view must observe.
  const std::vector<uint32_t>& dependencies() const { return deps_; }

  const ViewStats& stats() const { return stats_; }

 private:
  friend class ViewCatalog;

  LiveView(World* world, QueryPlanHook* planner, ViewDef def)
      : world_(world), planner_(planner), def_(std::move(def)) {}

  /// Resolves names against the TypeRegistry; builds required/predicate
  /// lists mirroring DynamicQuery construction order.
  Status Resolve();

  /// Exactly DynamicQuery::Matches over the resolved constraints.
  bool Matches(EntityId e) const;

  /// Runs the view's query as a DynamicQuery through the planner hook.
  Status RunQuery(std::vector<EntityId>* out) const;

  /// The store a fresh execution would drive from (smallest required
  /// table, earliest in construction order on ties).
  const ComponentStore* CanonicalDriver() const;

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

  /// Current aggregate contribution of `e`, if its agg field is numeric.
  bool AggValue(EntityId e, double* out) const;
  void AggAdd(EntityId e);
  void AggRemove(EntityId e);

  /// Resolves the stores behind required_/predicates_ once (ViewCatalog
  /// creates them before populating); Matches runs against these cached
  /// pointers instead of paying a map lookup per table per candidate.
  /// Store objects are stable for the life of a World.
  void CacheStores();

  World* world_;
  QueryPlanHook* planner_;
  ViewDef def_;

  // Resolved query (mirrors DynamicQuery's internal lists).
  std::vector<uint32_t> required_;  // construction order, with duplicates
  std::vector<DynamicQuery::Predicate> predicates_;
  std::vector<DynamicQuery::RadiusPredicate> radius_predicates_;
  std::vector<uint32_t> deps_;  // required_, deduplicated
  uint32_t agg_type_ = 0;
  const FieldInfo* agg_field_ = nullptr;

  // Resolved store pointers (CacheStores): dep_stores_ parallels deps_
  // (deduplicated, first-occurrence order — equivalent to required_ for
  // both the Contains pass and the smallest-table/earliest-tie driver
  // choice); the predicate/radius lists parallel their predicate vectors.
  std::vector<const ComponentStore*> dep_stores_;
  std::vector<const ComponentStore*> predicate_stores_;
  std::vector<const ComponentStore*> radius_stores_;
  const ComponentStore* agg_store_ = nullptr;

  // Membership.
  std::unordered_set<uint64_t> members_;

  // Canonical-order cache: valid while nothing structural moved in the
  // cached driver table and membership is unchanged.
  mutable std::shared_mutex sort_mu_;
  mutable std::vector<EntityId> sorted_;
  mutable const ComponentStore* sorted_driver_ = nullptr;
  mutable uint64_t sorted_driver_version_ = 0;
  mutable bool sorted_dirty_ = true;

  // Maintained aggregate state: running sum/count (O(1) reads), exact
  // extrema multiset, and each member's last folded-in contribution (the
  // "old value" a later exit/update must subtract).
  RunningSum running_;
  std::multiset<double> extrema_;
  std::unordered_map<uint64_t, double> contrib_;

  // Per-maintenance-round candidate set (deduplicated, first-mark order).
  std::vector<EntityId> candidates_;
  std::unordered_set<uint64_t> candidate_set_;

  std::vector<Callback> enter_cbs_;
  std::vector<Callback> exit_cbs_;
  std::vector<Callback> update_cbs_;

  ViewStats stats_;
};

}  // namespace gamedb::views
