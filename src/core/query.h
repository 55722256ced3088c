#pragma once

/// \file query.h
/// Declarative queries over the World.
///
/// Two layers:
///  - View<Ts...>: statically-typed multi-component join (the workhorse for
///    engine code), driven by the smallest table.
///  - DynamicQuery: runtime-typed query by component/field *names* with
///    comparison predicates and aggregate terminals. This is the query
///    facility exposed to GSL scripts and content tools — the "declarative
///    processing" direction of the tutorial [11, 13]. It is also the one
///    evaluator of match semantics: the planner's filter tail calls its
///    per-predicate checks and a LiveView re-evaluates candidates with its
///    Matches.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/reflect.h"
#include "core/world.h"

namespace gamedb {

/// Statically-typed view over all entities that have every component in
/// Ts... Iteration visits entities in the dense order of the smallest
/// table (the earliest in Ts... on ties).
template <typename... Ts>
class View {
 public:
  explicit View(World& world) : world_(world) {}

  /// Calls fn(EntityId, Ts&...) for each matching entity. Adding or removing
  /// rows of the iterated tables from inside `fn` is undefined behaviour
  /// (in-place value mutation is fine).
  template <typename Fn>
  void Each(Fn&& fn) {
    auto tables = std::tuple<SparseSet<Ts>*...>{&world_.Table<Ts>()...};
    size_t sizes[] = {std::get<SparseSet<Ts>*>(tables)->Size()...};
    size_t driver = 0;
    for (size_t i = 1; i < sizeof...(Ts); ++i) {
      if (sizes[i] < sizes[driver]) driver = i;
    }
    DispatchDriver<0>(driver, tables, std::forward<Fn>(fn));
  }

  /// Number of matching entities.
  size_t Count() {
    size_t n = 0;
    Each([&](EntityId, Ts&...) { ++n; });
    return n;
  }

  /// Matching entity ids (driver order).
  std::vector<EntityId> Entities() {
    std::vector<EntityId> out;
    Each([&](EntityId e, Ts&...) { out.push_back(e); });
    return out;
  }

 private:
  template <size_t I, typename Tables, typename Fn>
  void DispatchDriver(size_t driver, Tables& tables, Fn&& fn) {
    if constexpr (I < sizeof...(Ts)) {
      if (driver == I) {
        using Driver = std::tuple_element_t<I, std::tuple<Ts...>>;
        IterateDriver<Driver>(tables, std::forward<Fn>(fn));
      } else {
        DispatchDriver<I + 1>(driver, tables, std::forward<Fn>(fn));
      }
    }
  }

  template <typename Driver, typename Tables, typename Fn>
  void IterateDriver(Tables& tables, Fn&& fn) {
    SparseSet<Driver>* driver = std::get<SparseSet<Driver>*>(tables);
    const auto& entities = driver->entities();
    for (size_t i = 0; i < entities.size(); ++i) {
      EntityId e = entities[i];
      if (!world_.Alive(e)) continue;
      if ((... && (std::get<SparseSet<Ts>*>(tables)->Contains(e)))) {
        fn(e, *static_cast<Ts*>(
                  std::get<SparseSet<Ts>*>(tables)->Find(e))...);
      }
    }
  }

  World& world_;
};

/// Comparison operator for dynamic predicates.
enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpName(CmpOp op);

class DynamicQuery;

/// Execution hook a query optimizer implements (planner/planner.h). The
/// dependency is inverted — core/ cannot depend on planner/ — so DynamicQuery
/// talks to the planner through this interface. Contract for Execute: call
/// `fn` exactly for the entities the unplanned path would visit, in the same
/// order (the dense order of the smallest required table), so plans change
/// cost but never results.
class QueryPlanHook {
 public:
  virtual ~QueryPlanHook() = default;

  /// False parks the hook (PlannerPolicy::kOff): DynamicQuery uses its
  /// built-in path, keeping the old behaviour testable with the hook wired.
  virtual bool PlanningEnabled() const { return true; }

  /// Plans and executes `q`, invoking `fn` per matching entity.
  virtual Status Execute(const DynamicQuery& q,
                         const std::function<void(EntityId)>& fn) = 0;

  /// Renders the plan that Execute would choose, with cardinality and cost
  /// estimates, as human-readable text.
  virtual Result<std::string> ExplainQuery(const DynamicQuery& q) = 0;
};

/// Runtime-typed declarative query: components and fields addressed by name.
///
/// Example (what a designer's script compiles to):
///   DynamicQuery q(&world);
///   q.With("Health").With("Faction");
///   q.WhereField("Faction", "team", CmpOp::kEq, int64_t{2});
///   Result<double> total = q.Sum("Health", "hp");
class DynamicQuery {
 public:
  /// One field comparison constraint (component.field op rhs).
  struct Predicate {
    uint32_t type_id;
    const FieldInfo* field;
    CmpOp op;
    FieldValue rhs;
  };
  /// One proximity constraint (distance(component.field, center) <= radius).
  struct RadiusPredicate {
    uint32_t type_id;
    const FieldInfo* field;
    Vec3 center;
    float radius;
  };

  explicit DynamicQuery(World* world) : world_(world) {}

  /// Attaches (or detaches, with nullptr) a query planner. With a planner
  /// attached and enabled, Each/terminals execute through the planner's
  /// chosen physical plan instead of the built-in
  /// smallest-table-scan-plus-filters path. Results are identical either
  /// way; only the access path changes.
  DynamicQuery& SetPlanner(QueryPlanHook* planner) {
    planner_ = planner;
    return *this;
  }

  /// Requires entities to carry the named component. Unknown names put the
  /// query in an error state surfaced by the terminal call.
  DynamicQuery& With(std::string_view component);

  /// Adds a field comparison predicate (component is implicitly required).
  DynamicQuery& WhereField(std::string_view component, std::string_view field,
                           CmpOp op, FieldValue rhs);

  /// Restricts matches to entities within `radius` of `center` using the
  /// named Vec3 field as the position (linear filter; spatial-index joins
  /// live in spatial/pair_join.h).
  DynamicQuery& WithinRadius(std::string_view component,
                             std::string_view field, const Vec3& center,
                             float radius);

  // --- Terminals ---------------------------------------------------------

  /// Iterates matching entities. Returns the deferred error, if any.
  Status Each(const std::function<void(EntityId)>& fn);

  /// Number of matches.
  Result<int64_t> Count();
  /// Sum / min / max / average of a numeric field over the matches. Min/max
  /// on zero matches return NotFound.
  Result<double> Sum(std::string_view component, std::string_view field);
  Result<double> Min(std::string_view component, std::string_view field);
  Result<double> Max(std::string_view component, std::string_view field);
  Result<double> Avg(std::string_view component, std::string_view field);

  /// Matching ids.
  Result<std::vector<EntityId>> Collect();

  /// Entity with the smallest / largest value of the field (NotFound when
  /// no matches). Ties break toward the earlier entity in scan order.
  Result<EntityId> ArgMin(std::string_view component, std::string_view field);
  Result<EntityId> ArgMax(std::string_view component, std::string_view field);

  /// Renders the physical plan the next terminal would execute. With a
  /// planner attached this is the cost-based plan with cardinality
  /// estimates; without one it describes the built-in path.
  Result<std::string> Explain();

  /// The deferred construction error (an unknown component or field name),
  /// or OK: validates a query without running it.
  const Status& status() const { return error_; }

  // --- Match semantics ----------------------------------------------------
  //
  // The one definition of "does entity e match this query". The built-in
  // path, every planned access path (planner/planner.cc) and LiveView
  // maintenance (views/view.h) all decide membership through these checks.

  /// True when `e` carries every required table and satisfies every
  /// predicate. Does not check that `e` is alive.
  bool Matches(EntityId e) const;

  /// Predicate `i` of predicates() holds for `e`; `e` must carry that
  /// predicate's table.
  bool PredicateHolds(size_t i, EntityId e) const;

  /// `e`'s position is within radius of radius_predicates()[i]'s center
  /// (distance² <= radius², so a NaN coordinate is inside no radius); `e`
  /// must carry that predicate's table. A non-Vec3 field never matches.
  bool RadiusHolds(size_t i, EntityId e) const;

  // --- Read access for the planner (QueryPlanHook implementations) -------

  World* world() const { return world_; }
  const std::vector<uint32_t>& required() const { return required_; }
  const std::vector<Predicate>& predicates() const { return predicates_; }
  const std::vector<RadiusPredicate>& radius_predicates() const {
    return radius_predicates_;
  }

  /// The store the built-in path drives from: smallest required table,
  /// earliest in required() on ties. nullptr when any required table is
  /// missing (no matches possible). Planned execution emits matches in this
  /// store's dense order so plans never change result order.
  const ComponentStore* CanonicalDriver() const;

 private:
  /// Resolves a component name; records error state on failure.
  const TypeInfo* ResolveComponent(std::string_view name);
  const FieldInfo* ResolveField(std::string_view component,
                                std::string_view field, uint32_t* type_id);
  /// The built-in access path: scan CanonicalDriver, filter everything.
  Status EachUnplanned(const std::function<void(EntityId)>& fn);

  World* world_;
  QueryPlanHook* planner_ = nullptr;
  Status error_ = Status::OK();
  std::vector<uint32_t> required_;  // type ids
  std::vector<Predicate> predicates_;
  std::vector<RadiusPredicate> radius_predicates_;
};

/// True when `lhs op rhs` holds under FieldValue comparison semantics
/// (numeric kinds compare numerically; strings lexicographically; entities
/// by raw id; mismatched kinds are never equal and are unordered).
bool CompareFieldValues(const FieldValue& lhs, CmpOp op, const FieldValue& rhs);

/// Widens a numeric FieldValue (double/int64/bool) to double — the exact
/// numeric-comparison domain CompareFieldValues uses, so index keys built
/// through this helper reproduce predicate semantics bit for bit. Returns
/// false for non-numeric kinds.
bool FieldValueAsNumber(const FieldValue& v, double* out);

}  // namespace gamedb
