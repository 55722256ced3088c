#pragma once

/// \file planner.h
/// The cost-based query planner: the missing database layer between
/// gamedb's declarative queries (core/query.h DynamicQuery, the GSL query
/// builtins) and its physical operators (table scans, sorted field indexes,
/// spatial indexes, the three pair-join algorithms). The paper's framing is
/// that a designer's Ω(n²) "every object interacts with every object" loop
/// is just a bad plan; this module is the component that picks a good one —
/// the "declarative processing" step of the Sowell et al. follow-up.
///
/// Data flow: stats (stats.h) → cost model (CostConstants, plan.h) → plan
/// (QueryPlan) → execution (this file). Plans are cached by predicate shape
/// + stats epoch, so per-tick replanning costs a hash lookup until stats
/// drift past the refresh threshold.
///
/// Correctness contract: with the planner attached and enabled
/// (PlannerPolicy::kOn), every DynamicQuery produces bit-identical results
/// — same entities, same order — as the built-in path (kOff). Indexes only
/// prune: every access path decides each predicate with the query's own
/// DynamicQuery::PredicateHolds/RadiusHolds, the checks the built-in path
/// matches with. Planned access paths that enumerate in index order buffer
/// their matches and re-sort them into the canonical driver's dense order
/// before emitting.

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "planner/field_index.h"
#include "planner/plan.h"
#include "planner/stats.h"
#include "telemetry/sink.h"

namespace gamedb::spatial {
class KdBspTree;
}  // namespace gamedb::spatial

namespace gamedb::planner {

/// Configuration for a QueryPlanner.
struct PlannerOptions {
  PlannerPolicy policy = PlannerPolicy::kOn;
  /// Relative row-count drift that triggers a stats refresh (and therefore
  /// invalidates every cached plan) at the next quiescent point.
  double drift_threshold = 0.25;
  StatsOptions stats;
  CostConstants costs;
  /// Optional telemetry hook: plan-cache hit/miss and stats-refresh
  /// counters fold into the registry, Analyze records a span. Non-owning;
  /// must outlive the planner.
  telemetry::TelemetrySink telemetry{};
};

/// Per-operator runtime totals EXPLAIN ANALYZE accumulates for one plan
/// shape (one plan-cache entry) while SetCollectRuntime(true) is active.
/// Vector entries are indexed like the query's predicates() /
/// radius_predicates(); totals sum over `executions` runs.
struct PlanRuntimeStats {
  uint64_t executions = 0;
  uint64_t driver_rows = 0;      ///< rows the access path enumerated
  uint64_t probe_survivors = 0;  ///< rows past alive + membership probes
  uint64_t output_rows = 0;      ///< rows emitted
  uint64_t exec_ns = 0;          ///< wall clock across executions
  std::vector<uint64_t> predicate_in;   ///< rows reaching each predicate
  std::vector<uint64_t> predicate_out;  ///< rows surviving each predicate
  std::vector<uint64_t> radius_in;
  std::vector<uint64_t> radius_out;
  /// EXPLAIN text (QueryPlan::ToString) rendered once when the shape first
  /// executed, so the hottest plans stay explainable after the driving
  /// queries are gone (the flight-recorder bundle needs exactly this).
  std::string plan_text;
};

/// Cost-based planner + executor for one World. Attach to queries with
/// DynamicQuery::SetPlanner, or to a ScriptHost via
/// ScriptHostOptions::planner (every query builtin then plans through it).
///
/// Thread safety: Execute/ExplainQuery are safe to call concurrently (the
/// scripted parallel query phase does); Analyze/MaybeRefreshStats/
/// OnQuiescent mutate statistics and must run from sequential code — the
/// tick loop calls OnQuiescent before the ScriptHost fans out, which is the
/// intended pattern.
class QueryPlanner final : public QueryPlanHook {
 public:
  explicit QueryPlanner(World* world, PlannerOptions options = {});
  ~QueryPlanner() override;

  /// Full statistics rebuild (bumps the stats epoch; invalidates cached
  /// plans).
  void Analyze();

  /// Re-analyzes when table sizes drifted past the threshold. Returns
  /// whether a refresh happened.
  bool MaybeRefreshStats();

  const WorldStats& stats() const { return stats_; }
  World* world() const { return world_; }

  PlannerPolicy policy() const { return options_.policy; }
  void set_policy(PlannerPolicy p) { options_.policy = p; }

  // --- QueryPlanHook ------------------------------------------------------

  bool PlanningEnabled() const override {
    return options_.policy == PlannerPolicy::kOn;
  }
  Status Execute(const DynamicQuery& q,
                 const std::function<void(EntityId)>& fn) override;
  Result<std::string> ExplainQuery(const DynamicQuery& q) override;

  // --- EXPLAIN ANALYZE ----------------------------------------------------

  /// Toggles per-operator runtime collection in Execute. Off (the default)
  /// costs one relaxed atomic load per Execute; on, each Execute counts
  /// rows in/out of every operator and merges them into the per-shape
  /// runtime table (one short exclusive lock per query). Thread-safe.
  void SetCollectRuntime(bool on) {
    collect_runtime_.store(on, std::memory_order_relaxed);
  }
  bool collect_runtime() const {
    return collect_runtime_.load(std::memory_order_relaxed);
  }

  /// Copies the accumulated runtime totals for `q`'s plan shape. False when
  /// the shape never executed under SetCollectRuntime(true).
  bool GetRuntimeStats(const DynamicQuery& q, PlanRuntimeStats* out) const;

  /// EXPLAIN ANALYZE: the cost-based EXPLAIN (QueryPlan::ToString) followed
  /// by an "analyze:" block showing estimated-vs-actual rows for every
  /// operator — driver, membership probes, each field/radius predicate,
  /// output — averaged over the shape's recorded executions. Renders a
  /// "no runtime samples" note when nothing was collected yet.
  Result<std::string> ExplainAnalyzeQuery(const DynamicQuery& q);

  /// The `n` plan shapes with the largest accumulated wall clock under
  /// SetCollectRuntime(true), hottest first, each rendered as its EXPLAIN
  /// text plus an analyze summary (executions, avg latency, avg rows per
  /// operator stage). Empty until runtime collection has run. Thread-safe.
  std::vector<std::string> HottestPlans(size_t n) const;
  /// Sequential-point hook: refreshes stats if drifted. The tick loop
  /// calls it before each parallel query phase, before any (possibly
  /// concurrent) query of the tick plans.
  void OnQuiescent() { MaybeRefreshStats(); }

  // --- Plan surface (benchmarks, tests) -----------------------------------

  /// Builds a fresh plan for `q` from current stats, bypassing the cache.
  QueryPlan BuildPlan(const DynamicQuery& q) const;

  /// Executes `q` under an explicit plan (the e13 "force each fixed plan"
  /// harness). Falls back to a full scan when the plan does not fit the
  /// query's shape. Emits in canonical order regardless of plan.
  Status ExecuteWithPlan(const DynamicQuery& q, const QueryPlan& plan,
                         const std::function<void(EntityId)>& fn);

  /// Chooses among the three pair-join algorithms for `n` points with
  /// `est_neighbors` expected matches per point within the join radius.
  PairJoinPlan PlanPairJoin(size_t n, float radius, double est_neighbors,
                            int dims = 3) const;

  /// Same, reading density from the stats of a Vec3 field (e.g. Position
  /// "value") and scaling it to `n` points. Falls back to a uniform guess
  /// when the field was never analyzed.
  PairJoinPlan PlanPairJoinFor(std::string_view component,
                               std::string_view field, size_t n,
                               float radius) const;

  // --- Diagnostics --------------------------------------------------------

  uint64_t plan_cache_hits() const { return cache_hits_.load(); }
  uint64_t plan_cache_misses() const { return cache_misses_.load(); }
  size_t plan_cache_size() const;
  uint64_t field_index_builds() const { return field_indexes_.builds(); }
  uint64_t spatial_index_builds() const;
  uint64_t stats_refreshes() const { return stats_refreshes_; }

 private:
  struct SpatialIndexCache;

  /// Plan-cache size bound: value-parameterized query shapes (a varying
  /// rhs is part of the shape hash) would otherwise grow the cache without
  /// limit on long-running shards.
  static constexpr size_t kMaxCachedPlans = 1024;

  /// Cached plan lookup keyed by predicate shape + stats epoch.
  QueryPlan GetOrBuildPlan(const DynamicQuery& q);
  /// Hash of the query's shape: required set, field predicates (including
  /// rhs values), radius predicates (radius but NOT center, so per-entity
  /// proximity probes share one plan).
  static uint64_t ShapeHash(const DynamicQuery& q);
  /// True when `plan`'s operator indexes fit `q` (cache-collision guard).
  static bool PlanFits(const DynamicQuery& q, const QueryPlan& plan);

  /// ExecuteWithPlan with optional per-operator row counting (`rc` may be
  /// nullptr; when set its vectors must be sized to the query's predicate
  /// counts).
  Status ExecuteWithPlanCounted(const DynamicQuery& q, const QueryPlan& plan,
                                const std::function<void(EntityId)>& fn,
                                PlanRuntimeStats* rc);
  /// Folds one execution's counts into the per-shape runtime table,
  /// rendering `plan`'s EXPLAIN text into the entry on first merge.
  void MergeRuntime(uint64_t shape, const PlanRuntimeStats& rc,
                    const DynamicQuery& q, const QueryPlan& plan);

  Status ExecuteFullScan(const DynamicQuery& q, const QueryPlan& plan,
                         const std::function<void(EntityId)>& fn,
                         PlanRuntimeStats* rc);
  Status ExecuteFieldIndex(const DynamicQuery& q, const QueryPlan& plan,
                           const std::function<void(EntityId)>& fn,
                           PlanRuntimeStats* rc);
  Status ExecuteSpatialIndex(const DynamicQuery& q, const QueryPlan& plan,
                             const std::function<void(EntityId)>& fn,
                             PlanRuntimeStats* rc);

  World* world_;
  PlannerOptions options_;
  WorldStats stats_;
  FieldIndexCache field_indexes_;
  std::unique_ptr<SpatialIndexCache> spatial_indexes_;

  mutable std::shared_mutex plan_mu_;
  std::unordered_map<uint64_t, QueryPlan> plan_cache_;
  /// Per-shape EXPLAIN ANALYZE totals, guarded by plan_mu_ like the plan
  /// cache (and bounded the same way).
  std::unordered_map<uint64_t, PlanRuntimeStats> runtime_stats_;
  std::atomic<bool> collect_runtime_{false};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  uint64_t stats_refreshes_ = 0;
  /// Cached registry instruments (nullptr without a metrics sink).
  telemetry::Counter* m_cache_hits_ = nullptr;
  telemetry::Counter* m_cache_misses_ = nullptr;
  telemetry::Counter* m_stats_refreshes_ = nullptr;
};

}  // namespace gamedb::planner
