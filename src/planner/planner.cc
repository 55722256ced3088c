#include "planner/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>

#include "common/macros.h"
#include "common/percentile.h"
#include "spatial/kdbsp_tree.h"

namespace gamedb::planner {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Default selectivity guesses when no field statistics exist (string
/// fields, never-analyzed tables).
double DefaultSelectivity(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return 0.1;
    case CmpOp::kNe:
      return 0.9;
    default:
      return 1.0 / 3.0;
  }
}

bool NumericRhs(const DynamicQuery::Predicate& p, double* out) {
  return FieldValueAsNumber(p.rhs, out) && !std::isnan(*out);
}

bool FieldIsNumeric(const FieldInfo* f) {
  switch (f->type()) {
    case FieldType::kVec3:
    case FieldType::kString:
    case FieldType::kEntity:
      return false;
    default:
      return true;
  }
}

void MixHash(uint64_t* h, uint64_t v) {
  *h ^= v + 0x9E3779B97F4A7C15ull + (*h << 6) + (*h >> 2);
}

uint64_t HashFieldValue(const FieldValue& v) {
  struct Visitor {
    uint64_t operator()(double d) const {
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(bits));
      return bits ^ 0x1;
    }
    uint64_t operator()(int64_t i) const {
      return static_cast<uint64_t>(i) ^ 0x2;
    }
    uint64_t operator()(bool b) const { return (b ? 1u : 0u) ^ 0x30; }
    uint64_t operator()(const Vec3& v3) const {
      uint64_t h = 0x4;
      uint32_t bits;
      for (float f : {v3.x, v3.y, v3.z}) {
        std::memcpy(&bits, &f, sizeof(bits));
        MixHash(&h, bits);
      }
      return h;
    }
    uint64_t operator()(const std::string& s) const {
      return std::hash<std::string>()(s) ^ 0x5;
    }
    uint64_t operator()(EntityId e) const { return e.Raw() ^ 0x6; }
  };
  return std::visit(Visitor{}, v);
}

}  // namespace

/// Cache of warmed KD-BSP trees over Vec3 fields, keyed by (table, field)
/// and valid for one table version — the planner's shared spatial access
/// path. Reads after the build are pure (the warm-up query inside the
/// build lock forces the lazy rebuild), so concurrent probes from
/// query-phase shards are safe.
struct QueryPlanner::SpatialIndexCache {
  struct Entry {
    uint64_t built_version = 0;
    spatial::KdBspTree tree;
  };

  const spatial::KdBspTree* Get(uint32_t type_id, const FieldInfo* field,
                                const ComponentStore* store) {
    const uint64_t version = store->last_version();
    const IndexCacheKey key{type_id, field};
    {
      std::shared_lock<std::shared_mutex> lock(mu);
      auto it = cache.find(key);
      if (it != cache.end() && it->second->built_version == version) {
        return &it->second->tree;
      }
    }
    std::unique_lock<std::shared_mutex> lock(mu);
    auto& slot = cache[key];
    if (slot != nullptr && slot->built_version == version) {
      return &slot->tree;
    }
    auto entry = std::make_unique<Entry>();
    entry->built_version = version;
    for (size_t i = 0; i < store->Size(); ++i) {
      FieldValue v = field->Get(store->ValueAt(i));
      const Vec3* p = std::get_if<Vec3>(&v);
      if (p == nullptr) continue;
      // A NaN coordinate is inside no radius (DynamicQuery::RadiusHolds),
      // and its box would poison node bounds and the median split.
      if (std::isnan(p->x) || std::isnan(p->y) || std::isnan(p->z)) continue;
      entry->tree.Insert(store->EntityAt(i), Aabb::FromPoint(*p));
    }
    // Warm-up: force the lazy rebuild now, inside the build lock, so
    // concurrent probes after publication are pure reads.
    entry->tree.QueryRange(Aabb{}, [](EntityId, const Aabb&) {});
    ++builds;
    slot = std::move(entry);
    return &slot->tree;
  }

  mutable std::shared_mutex mu;
  std::unordered_map<IndexCacheKey, std::unique_ptr<Entry>,
                     IndexCacheKeyHash>
      cache;
  uint64_t builds = 0;
};

QueryPlanner::QueryPlanner(World* world, PlannerOptions options)
    : world_(world),
      options_(options),
      stats_(options.stats),
      spatial_indexes_(std::make_unique<SpatialIndexCache>()) {
  if (options_.telemetry.metrics != nullptr) {
    telemetry::MetricsRegistry* reg = options_.telemetry.metrics;
    m_cache_hits_ = reg->GetCounter("planner.cache_hits");
    m_cache_misses_ = reg->GetCounter("planner.cache_misses");
    m_stats_refreshes_ = reg->GetCounter("planner.stats_refreshes");
  }
}

QueryPlanner::~QueryPlanner() = default;

void QueryPlanner::Analyze() {
  telemetry::TraceSpan span(options_.telemetry.tracer, "planner.analyze");
  stats_.Analyze(*world_);
  ++stats_refreshes_;
  if (m_stats_refreshes_ != nullptr) m_stats_refreshes_->Increment();
}

bool QueryPlanner::MaybeRefreshStats() {
  if (!stats_.Drifted(*world_, options_.drift_threshold)) return false;
  Analyze();
  return true;
}

size_t QueryPlanner::plan_cache_size() const {
  std::shared_lock<std::shared_mutex> lock(plan_mu_);
  return plan_cache_.size();
}

uint64_t QueryPlanner::spatial_index_builds() const {
  std::shared_lock<std::shared_mutex> lock(spatial_indexes_->mu);
  return spatial_indexes_->builds;
}

uint64_t QueryPlanner::ShapeHash(const DynamicQuery& q) {
  uint64_t h = 0xC0FFEE;
  for (uint32_t id : q.required()) MixHash(&h, id);
  MixHash(&h, 0xAAAA);
  for (const auto& p : q.predicates()) {
    MixHash(&h, p.type_id);
    MixHash(&h, std::hash<std::string>()(p.field->name()));
    MixHash(&h, static_cast<uint64_t>(p.op));
    MixHash(&h, HashFieldValue(p.rhs));
  }
  MixHash(&h, 0xBBBB);
  for (const auto& rp : q.radius_predicates()) {
    MixHash(&h, rp.type_id);
    MixHash(&h, std::hash<std::string>()(rp.field->name()));
    uint32_t bits;
    std::memcpy(&bits, &rp.radius, sizeof(bits));
    MixHash(&h, bits);
    // The center is deliberately excluded: per-entity proximity probes
    // (every entity asking "who is near me?") share one plan.
  }
  return h;
}

bool QueryPlanner::PlanFits(const DynamicQuery& q, const QueryPlan& plan) {
  const int npred = static_cast<int>(q.predicates().size());
  const int nrad = static_cast<int>(q.radius_predicates().size());
  if (plan.index_predicate >= npred || plan.radius_predicate >= nrad) {
    return false;
  }
  // Index access paths must name the predicate they serve.
  if (plan.access == AccessPath::kFieldIndex && plan.index_predicate < 0) {
    return false;
  }
  if (plan.access == AccessPath::kSpatialIndex &&
      plan.radius_predicate < 0) {
    return false;
  }
  for (int pi : plan.predicate_order) {
    if (pi < 0 || pi >= npred) return false;
  }
  // A probe of a table the query does not require would wrongly reject
  // rows; such a plan belongs to some other shape.
  for (uint32_t id : plan.probe_order) {
    if (std::find(q.required().begin(), q.required().end(), id) ==
        q.required().end()) {
      return false;
    }
  }
  return true;
}

QueryPlan QueryPlanner::BuildPlan(const DynamicQuery& q) const {
  const CostConstants& c = options_.costs;
  QueryPlan plan;
  plan.stats_epoch = stats_.epoch();

  // Estimated (stats) and actual-fallback row counts per required table.
  auto est_rows = [&](uint32_t id) -> double {
    const TableStats* t = stats_.Table(id);
    if (t != nullptr) return static_cast<double>(t->rows);
    const ComponentStore* store = world_->StoreByIdIfExists(id);
    return store != nullptr ? static_cast<double>(store->Size()) : 0.0;
  };

  // Driver: smallest estimated table, earliest on ties (mirrors the
  // built-in path's choice so full-scan plans describe what executes).
  std::vector<uint32_t> distinct;
  for (uint32_t id : q.required()) {
    if (std::find(distinct.begin(), distinct.end(), id) == distinct.end()) {
      distinct.push_back(id);
    }
  }
  double driver_rows = kInf;
  for (uint32_t id : distinct) {
    double rows = est_rows(id);
    if (rows < driver_rows) {
      driver_rows = rows;
      plan.driver_type = id;
    }
  }
  if (!std::isfinite(driver_rows)) driver_rows = 0.0;

  // Probe order: remaining required tables ascending by estimated rows
  // (cheapest rejection first — membership in a small table is unlikely).
  for (uint32_t id : distinct) {
    if (id != plan.driver_type) plan.probe_order.push_back(id);
  }
  std::sort(plan.probe_order.begin(), plan.probe_order.end(),
            [&](uint32_t a, uint32_t b) { return est_rows(a) < est_rows(b); });

  // Join selectivity: fraction of driver rows present in each probed table
  // under the |A∩B| ≈ |A|·|B|/N independence assumption.
  const double universe =
      std::max(1.0, static_cast<double>(world_->AliveCount()));
  double join_sel = 1.0;
  for (uint32_t id : plan.probe_order) {
    join_sel *= std::clamp(est_rows(id) / universe, 0.0, 1.0);
  }

  // Per-predicate selectivities.
  std::vector<double> sel(q.predicates().size(), 1.0);
  for (size_t i = 0; i < q.predicates().size(); ++i) {
    const auto& p = q.predicates()[i];
    double rhs = 0.0;
    const FieldStats* fs = stats_.Field(p.type_id, p.field->name());
    if (fs != nullptr && NumericRhs(p, &rhs)) {
      sel[i] = fs->EstimateSelectivity(p.op, rhs);
    } else {
      sel[i] = DefaultSelectivity(p.op);
    }
  }
  std::vector<double> radius_sel(q.radius_predicates().size(), 1.0);
  std::vector<double> radius_neighbors(q.radius_predicates().size(), 0.0);
  for (size_t i = 0; i < q.radius_predicates().size(); ++i) {
    const auto& rp = q.radius_predicates()[i];
    const SpatialFieldStats* ss =
        stats_.Spatial(rp.type_id, rp.field->name());
    if (ss != nullptr && ss->rows > 0) {
      radius_neighbors[i] = ss->EstimateNeighbors(rp.radius);
      radius_sel[i] = std::clamp(
          radius_neighbors[i] / static_cast<double>(ss->rows), 0.0, 1.0);
    } else {
      radius_sel[i] = 0.25;
      radius_neighbors[i] = est_rows(rp.type_id) * 0.25;
    }
  }

  // Predicate evaluation order: most selective first.
  std::vector<int> order(q.predicates().size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return sel[a] < sel[b]; });

  double filter_sel = 1.0;
  for (double s : sel) filter_sel *= s;
  for (double s : radius_sel) filter_sel *= s;
  plan.est_output_rows = driver_rows * join_sel * filter_sel;

  // Cost of filtering one enumerated row: membership probes, then field
  // predicates in chosen order (short-circuit modeled), then linear radius
  // filters. `skip` marks a predicate already served by the access path.
  auto downstream_cost = [&](int skip_pred, int skip_radius) {
    double cost = static_cast<double>(plan.probe_order.size()) *
                  c.probe_table;
    double running = join_sel;
    for (int pi : order) {
      if (pi == skip_pred) continue;
      cost += running * c.predicate;
      running *= sel[static_cast<size_t>(pi)];
    }
    for (size_t i = 0; i < radius_sel.size(); ++i) {
      if (static_cast<int>(i) == skip_radius) continue;
      cost += running * c.radius_filter;
      running *= radius_sel[i];
    }
    return cost;
  };

  // Candidate 1: full scan of the driver.
  double best_cost =
      driver_rows * (c.scan_row + downstream_cost(-1, -1));
  plan.access = AccessPath::kFullScan;
  plan.est_driver_rows = driver_rows;
  plan.est_cost = best_cost;

  // Candidate 2: field-index range scan serving one predicate.
  for (size_t i = 0; i < q.predicates().size(); ++i) {
    const auto& p = q.predicates()[i];
    double rhs = 0.0;
    if (p.op == CmpOp::kNe) continue;  // a != range scan is the whole table
    if (!FieldIsNumeric(p.field) || !NumericRhs(p, &rhs)) continue;
    const FieldStats* fs = stats_.Field(p.type_id, p.field->name());
    if (fs == nullptr || fs->has_nan) continue;
    double table_rows = est_rows(p.type_id);
    double matches = table_rows * sel[i];
    double cost =
        table_rows * c.index_build_row / c.assumed_index_reuse +
        c.index_seek +
        matches * (c.index_candidate + downstream_cost(static_cast<int>(i),
                                                       -1) +
                   c.predicate) +  // served predicate is still re-checked
        matches * std::log2(2.0 + matches) * c.index_sort;
    if (cost < best_cost) {
      best_cost = cost;
      plan.access = AccessPath::kFieldIndex;
      plan.index_predicate = static_cast<int>(i);
      plan.radius_predicate = -1;
      plan.est_driver_rows = matches;
      plan.est_cost = cost;
    }
  }

  // Candidate 3: spatial-index probe serving one radius predicate.
  for (size_t i = 0; i < q.radius_predicates().size(); ++i) {
    const auto& rp = q.radius_predicates()[i];
    if (rp.field->type() != FieldType::kVec3) continue;
    const SpatialFieldStats* ss =
        stats_.Spatial(rp.type_id, rp.field->name());
    if (ss == nullptr || ss->rows == 0) continue;
    double table_rows = est_rows(rp.type_id);
    // Probe candidates: neighbors within the radius (the tree's box test
    // overshoots a little; spatial_candidate absorbs that).
    double candidates = std::min(table_rows, radius_neighbors[i] + 1.0);
    double cost =
        table_rows * c.spatial_build_row / c.assumed_index_reuse +
        c.spatial_probe +
        candidates * (c.spatial_candidate +
                      downstream_cost(-1, static_cast<int>(i)) +
                      c.radius_filter) +  // served filter is re-checked
        candidates * std::log2(2.0 + candidates) * c.index_sort;
    if (cost < best_cost) {
      best_cost = cost;
      plan.access = AccessPath::kSpatialIndex;
      plan.index_predicate = -1;
      plan.radius_predicate = static_cast<int>(i);
      plan.est_driver_rows = candidates;
      plan.est_cost = cost;
    }
  }

  // The served predicate is excluded from the filter list in EXPLAIN (it
  // is re-checked during execution, but it is the access path's job).
  for (int pi : order) {
    if (plan.access == AccessPath::kFieldIndex &&
        pi == plan.index_predicate) {
      continue;
    }
    plan.predicate_order.push_back(pi);
  }
  // EXPLAIN ANALYZE estimate breakdown (never read during execution).
  plan.predicate_sel = sel;
  plan.radius_sel = radius_sel;
  plan.est_probe_rows = plan.est_driver_rows * join_sel;
  return plan;
}

QueryPlan QueryPlanner::GetOrBuildPlan(const DynamicQuery& q) {
  const uint64_t key = ShapeHash(q);
  {
    std::shared_lock<std::shared_mutex> lock(plan_mu_);
    auto it = plan_cache_.find(key);
    if (it != plan_cache_.end() &&
        it->second.stats_epoch == stats_.epoch()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      if (m_cache_hits_ != nullptr) m_cache_hits_->Increment();
      return it->second;
    }
  }
  QueryPlan plan = BuildPlan(q);
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  if (m_cache_misses_ != nullptr) m_cache_misses_->Increment();
  std::unique_lock<std::shared_mutex> lock(plan_mu_);
  if (plan_cache_.size() >= kMaxCachedPlans) {
    // Value-parameterized shapes (a per-entity rhs in the hash) can mint
    // unbounded keys; drop stale-epoch entries first, and if the cache is
    // all current, reset it — plans are cheap to rebuild.
    for (auto it = plan_cache_.begin(); it != plan_cache_.end();) {
      it = it->second.stats_epoch != stats_.epoch() ? plan_cache_.erase(it)
                                                    : ++it;
    }
    if (plan_cache_.size() >= kMaxCachedPlans) plan_cache_.clear();
  }
  plan_cache_[key] = plan;
  return plan;
}

Status QueryPlanner::Execute(const DynamicQuery& q,
                             const std::function<void(EntityId)>& fn) {
  GAMEDB_DCHECK(q.world() == world_);
  QueryPlan plan = GetOrBuildPlan(q);
  if (!collect_runtime_.load(std::memory_order_relaxed)) {
    return ExecuteWithPlanCounted(q, plan, fn, nullptr);
  }
  PlanRuntimeStats rc;
  rc.predicate_in.assign(q.predicates().size(), 0);
  rc.predicate_out.assign(q.predicates().size(), 0);
  rc.radius_in.assign(q.radius_predicates().size(), 0);
  rc.radius_out.assign(q.radius_predicates().size(), 0);
  const uint64_t t0 = MonotonicNanos();
  Status st = ExecuteWithPlanCounted(q, plan, fn, &rc);
  rc.exec_ns = MonotonicNanos() - t0;
  rc.executions = 1;
  MergeRuntime(ShapeHash(q), rc, q, plan);
  return st;
}

void QueryPlanner::MergeRuntime(uint64_t shape, const PlanRuntimeStats& rc,
                                const DynamicQuery& q, const QueryPlan& plan) {
  std::unique_lock<std::shared_mutex> lock(plan_mu_);
  // Same unbounded-shape concern as the plan cache; apply the same bound.
  if (runtime_stats_.size() >= kMaxCachedPlans &&
      runtime_stats_.find(shape) == runtime_stats_.end()) {
    runtime_stats_.clear();
  }
  PlanRuntimeStats& agg = runtime_stats_[shape];
  if (agg.executions == 0 && agg.plan_text.empty()) {
    // One render per shape; ToString indexes q's predicates through the
    // plan's operator indexes, so it needs the same fit guard as execution.
    agg.plan_text = PlanFits(q, plan)
                        ? plan.ToString(q)
                        : "full scan (shape-collision fallback)\n";
  }
  agg.executions += rc.executions;
  agg.driver_rows += rc.driver_rows;
  agg.probe_survivors += rc.probe_survivors;
  agg.output_rows += rc.output_rows;
  agg.exec_ns += rc.exec_ns;
  auto add_vec = [](std::vector<uint64_t>* a,
                    const std::vector<uint64_t>& b) {
    if (a->size() < b.size()) a->resize(b.size(), 0);
    for (size_t i = 0; i < b.size(); ++i) (*a)[i] += b[i];
  };
  add_vec(&agg.predicate_in, rc.predicate_in);
  add_vec(&agg.predicate_out, rc.predicate_out);
  add_vec(&agg.radius_in, rc.radius_in);
  add_vec(&agg.radius_out, rc.radius_out);
}

bool QueryPlanner::GetRuntimeStats(const DynamicQuery& q,
                                   PlanRuntimeStats* out) const {
  const uint64_t shape = ShapeHash(q);
  std::shared_lock<std::shared_mutex> lock(plan_mu_);
  auto it = runtime_stats_.find(shape);
  if (it == runtime_stats_.end()) return false;
  *out = it->second;
  return true;
}

std::vector<std::string> QueryPlanner::HottestPlans(size_t n) const {
  std::vector<std::pair<uint64_t, const PlanRuntimeStats*>> hot;
  std::shared_lock<std::shared_mutex> lock(plan_mu_);
  hot.reserve(runtime_stats_.size());
  for (const auto& [shape, rt] : runtime_stats_) {
    if (rt.executions > 0) hot.emplace_back(rt.exec_ns, &rt);
  }
  std::sort(hot.begin(), hot.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (hot.size() > n) hot.resize(n);
  std::vector<std::string> out;
  out.reserve(hot.size());
  for (const auto& [exec_ns, rt] : hot) {
    const double execs = static_cast<double>(rt->executions);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "analyze (%llu executions, total %.3f ms, avg %.3f ms): "
                  "driver %.1f -> survivors %.1f -> output %.1f rows/exec\n",
                  static_cast<unsigned long long>(rt->executions),
                  static_cast<double>(exec_ns) / 1e6,
                  static_cast<double>(exec_ns) / execs / 1e6,
                  static_cast<double>(rt->driver_rows) / execs,
                  static_cast<double>(rt->probe_survivors) / execs,
                  static_cast<double>(rt->output_rows) / execs);
    out.push_back(rt->plan_text + buf);
  }
  return out;
}

Result<std::string> QueryPlanner::ExplainQuery(const DynamicQuery& q) {
  QueryPlan plan = GetOrBuildPlan(q);
  // Same shape-hash-collision guard Execute applies: ToString indexes the
  // query's predicate lists through the plan's operator indexes.
  if (!PlanFits(q, plan)) plan = BuildPlan(q);
  std::string out = plan.ToString(q);
  if (!PlanningEnabled()) {
    out += "  note: policy is kOff — the built-in path executes instead\n";
  }
  return out;
}

Result<std::string> QueryPlanner::ExplainAnalyzeQuery(const DynamicQuery& q) {
  QueryPlan plan = GetOrBuildPlan(q);
  if (!PlanFits(q, plan)) plan = BuildPlan(q);
  std::string out = plan.ToString(q);
  if (!PlanningEnabled()) {
    out += "  note: policy is kOff — the built-in path executes instead\n";
  }
  PlanRuntimeStats rt;
  if (!GetRuntimeStats(q, &rt) || rt.executions == 0) {
    out += "analyze: no runtime samples (SetCollectRuntime(true), then "
           "Execute the query)\n";
    return out;
  }
  const double n = static_cast<double>(rt.executions);
  auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    return std::string(buf);
  };
  auto avg = [&](uint64_t total) {
    return fmt(static_cast<double>(total) / n);
  };
  // Shape-hash collisions can pair these totals with a query of different
  // predicate counts; index defensively.
  auto vat = [](const std::vector<uint64_t>& v, size_t i) -> uint64_t {
    return i < v.size() ? v[i] : 0;
  };
  char ms[32];
  std::snprintf(ms, sizeof(ms), "%.3f",
                static_cast<double>(rt.exec_ns) / n / 1e6);
  out += "analyze (" + std::to_string(rt.executions) + " execution" +
         (rt.executions == 1 ? "" : "s") + ", avg " + ms + " ms):\n";
  out += "  driver rows: est " + fmt(plan.est_driver_rows) + ", actual " +
         avg(rt.driver_rows) + "\n";
  out += "  probe survivors: est " + fmt(plan.est_probe_rows) +
         ", actual " + avg(rt.probe_survivors) + "\n";
  // Per-operator estimate chain in execution order, so each line reads
  // "rows in -> rows out" for both the model and reality.
  double est_in = plan.est_probe_rows;
  for (int pi : plan.predicate_order) {
    const auto idx = static_cast<size_t>(pi);
    const double sel =
        idx < plan.predicate_sel.size() ? plan.predicate_sel[idx] : 1.0;
    const double est_out = est_in * sel;
    out += "  filter " + PredicateText(q.predicates()[idx]) + ": est " +
           fmt(est_in) + " -> " + fmt(est_out) + ", actual " +
           avg(vat(rt.predicate_in, idx)) + " -> " +
           avg(vat(rt.predicate_out, idx)) + "\n";
    est_in = est_out;
  }
  if (plan.access == AccessPath::kFieldIndex && plan.index_predicate >= 0) {
    const auto idx = static_cast<size_t>(plan.index_predicate);
    out += "  recheck " + PredicateText(q.predicates()[idx]) +
           " (served by access path): actual " +
           avg(vat(rt.predicate_in, idx)) + " -> " +
           avg(vat(rt.predicate_out, idx)) + "\n";
  }
  for (size_t i = 0; i < q.radius_predicates().size(); ++i) {
    const double sel =
        i < plan.radius_sel.size() ? plan.radius_sel[i] : 1.0;
    const double est_out = est_in * sel;
    const bool served = plan.access == AccessPath::kSpatialIndex &&
                        static_cast<int>(i) == plan.radius_predicate;
    out += "  filter " + RadiusText(q.radius_predicates()[i]) +
           (served ? " (served by access path)" : "") + ": est " +
           fmt(est_in) + " -> " + fmt(est_out) + ", actual " +
           avg(vat(rt.radius_in, i)) + " -> " + avg(vat(rt.radius_out, i)) +
           "\n";
    est_in = est_out;
  }
  out += "  output rows: est " + fmt(plan.est_output_rows) + ", actual " +
         avg(rt.output_rows) + "\n";
  return out;
}

Status QueryPlanner::ExecuteWithPlan(const DynamicQuery& q,
                                     const QueryPlan& plan,
                                     const std::function<void(EntityId)>& fn) {
  return ExecuteWithPlanCounted(q, plan, fn, nullptr);
}

Status QueryPlanner::ExecuteWithPlanCounted(
    const DynamicQuery& q, const QueryPlan& plan,
    const std::function<void(EntityId)>& fn, PlanRuntimeStats* rc) {
  if (!PlanFits(q, plan)) {
    // Shape-hash collision or a hand-built plan for another query: fall
    // back to the always-correct scan (with every predicate as a filter).
    QueryPlan scan;
    scan.access = AccessPath::kFullScan;
    for (size_t i = 0; i < q.predicates().size(); ++i) {
      scan.predicate_order.push_back(static_cast<int>(i));
    }
    return ExecuteFullScan(q, scan, fn, rc);
  }
  switch (plan.access) {
    case AccessPath::kFullScan:
      return ExecuteFullScan(q, plan, fn, rc);
    case AccessPath::kFieldIndex:
      return ExecuteFieldIndex(q, plan, fn, rc);
    case AccessPath::kSpatialIndex:
      return ExecuteSpatialIndex(q, plan, fn, rc);
  }
  return Status::NotSupported("unknown access path");
}

namespace {

/// Membership probes for one query, computed once before the row loop:
/// the plan's probe order (cheapest expected rejection first), then any
/// required table the plan missed (fallback plans have an empty list;
/// hand-built plans may be stale), minus `implied_table` — the table
/// whose membership the access path already guarantees.
std::vector<uint32_t> BuildProbeList(const DynamicQuery& q,
                                     const QueryPlan& plan,
                                     uint32_t implied_table) {
  std::vector<uint32_t> probes;
  auto add = [&](uint32_t id) {
    if (id == implied_table) return;
    if (std::find(probes.begin(), probes.end(), id) == probes.end()) {
      probes.push_back(id);
    }
  };
  for (uint32_t id : plan.probe_order) add(id);
  for (uint32_t id : q.required()) add(id);
  return probes;
}

/// Shared filter tail for every access path: alive check, membership
/// probes (see BuildProbeList), field predicates in plan order, radius
/// predicates — each predicate decided by the query's own
/// PredicateHolds/RadiusHolds. `rc` (nullable) receives EXPLAIN ANALYZE
/// per-operator in/out row counts; its vectors are pre-sized by Execute.
bool SurvivesFilters(const World& world, const DynamicQuery& q,
                     const QueryPlan& plan, EntityId e,
                     const std::vector<uint32_t>& probes,
                     PlanRuntimeStats* rc) {
  if (!world.Alive(e)) return false;
  for (uint32_t id : probes) {
    const ComponentStore* store = world.StoreByIdIfExists(id);
    if (store == nullptr || !store->Contains(e)) return false;
  }
  if (rc != nullptr) ++rc->probe_survivors;
  // Predicates in planned order; the access path's served predicate is
  // re-checked afterwards (boundary semantics stay with CompareFieldValues).
  for (int pi : plan.predicate_order) {
    const auto idx = static_cast<size_t>(pi);
    if (rc != nullptr) ++rc->predicate_in[idx];
    if (!q.PredicateHolds(idx, e)) return false;
    if (rc != nullptr) ++rc->predicate_out[idx];
  }
  if (plan.access == AccessPath::kFieldIndex && plan.index_predicate >= 0) {
    const auto idx = static_cast<size_t>(plan.index_predicate);
    if (rc != nullptr) ++rc->predicate_in[idx];
    if (!q.PredicateHolds(idx, e)) return false;
    if (rc != nullptr) ++rc->predicate_out[idx];
  }
  for (size_t i = 0; i < q.radius_predicates().size(); ++i) {
    if (rc != nullptr) ++rc->radius_in[i];
    if (!q.RadiusHolds(i, e)) return false;
    if (rc != nullptr) ++rc->radius_out[i];
  }
  return true;
}

}  // namespace

Status QueryPlanner::ExecuteFullScan(const DynamicQuery& q,
                                     const QueryPlan& plan,
                                     const std::function<void(EntityId)>& fn,
                                     PlanRuntimeStats* rc) {
  const ComponentStore* canonical = q.CanonicalDriver();
  if (canonical == nullptr) return Status::OK();
  // Scan the plan's driver when it is one of the required tables (the
  // planner's driver-order choice, or a forced plan); otherwise the
  // canonical one.
  const ComponentStore* scan = nullptr;
  uint32_t scan_id = 0;
  for (uint32_t id : q.required()) {
    const ComponentStore* store = world_->StoreByIdIfExists(id);
    if (store == canonical && scan == nullptr) {
      scan = store;
      scan_id = id;
    }
    if (id == plan.driver_type && store != nullptr) {
      scan = store;
      scan_id = id;
      break;
    }
  }
  const std::vector<uint32_t> probes = BuildProbeList(q, plan, scan_id);
  if (rc != nullptr) rc->driver_rows += scan->Size();
  if (scan == canonical) {
    // Same table the built-in path scans: stream in place.
    for (size_t i = 0; i < scan->Size(); ++i) {
      EntityId e = scan->EntityAt(i);
      if (SurvivesFilters(*world_, q, plan, e, probes, rc)) {
        if (rc != nullptr) ++rc->output_rows;
        fn(e);
      }
    }
    return Status::OK();
  }
  // Foreign driver: buffer and restore the canonical emit order.
  std::vector<std::pair<size_t, EntityId>> matches;
  for (size_t i = 0; i < scan->Size(); ++i) {
    EntityId e = scan->EntityAt(i);
    if (!SurvivesFilters(*world_, q, plan, e, probes, rc)) continue;
    size_t pos = canonical->DenseIndexOf(e);
    if (pos == ComponentStore::kNoDenseIndex) continue;
    matches.emplace_back(pos, e);
  }
  std::sort(matches.begin(), matches.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (rc != nullptr) rc->output_rows += matches.size();
  for (const auto& [pos, e] : matches) fn(e);
  return Status::OK();
}

Status QueryPlanner::ExecuteFieldIndex(
    const DynamicQuery& q, const QueryPlan& plan,
    const std::function<void(EntityId)>& fn, PlanRuntimeStats* rc) {
  const ComponentStore* driver = q.CanonicalDriver();
  if (driver == nullptr) return Status::OK();
  const auto& p = q.predicates()[static_cast<size_t>(plan.index_predicate)];
  const ComponentStore* table = world_->StoreByIdIfExists(p.type_id);
  double rhs = 0.0;
  if (table == nullptr || !FieldValueAsNumber(p.rhs, &rhs) ||
      std::isnan(rhs)) {
    return ExecuteFullScan(q, plan, fn, rc);
  }
  const FieldIndex* index = field_indexes_.Get(p.type_id, p.field, table);
  if (index->has_nan) {
    // NaN keys break the sort order's equivalence to comparison semantics.
    return ExecuteFullScan(q, plan, fn, rc);
  }
  double lo = -kInf, hi = kInf;
  switch (p.op) {
    case CmpOp::kEq:
      lo = hi = rhs;
      break;
    case CmpOp::kLt:
    case CmpOp::kLe:
      hi = rhs;
      break;
    case CmpOp::kGt:
    case CmpOp::kGe:
      lo = rhs;
      break;
    case CmpOp::kNe:
      break;  // full range; the re-check filters (planner avoids this)
  }
  // Gather matches with their canonical dense position, then restore the
  // built-in path's emit order.
  const std::vector<uint32_t> probes = BuildProbeList(q, plan, p.type_id);
  std::vector<std::pair<size_t, EntityId>> matches;
  index->ForEachInRange(lo, hi, [&](EntityId e) {
    if (rc != nullptr) ++rc->driver_rows;
    if (!SurvivesFilters(*world_, q, plan, e, probes, rc)) return;
    size_t pos = driver->DenseIndexOf(e);
    if (pos == ComponentStore::kNoDenseIndex) return;  // not in driver
    matches.emplace_back(pos, e);
  });
  std::sort(matches.begin(), matches.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (rc != nullptr) rc->output_rows += matches.size();
  for (const auto& [pos, e] : matches) fn(e);
  return Status::OK();
}

Status QueryPlanner::ExecuteSpatialIndex(
    const DynamicQuery& q, const QueryPlan& plan,
    const std::function<void(EntityId)>& fn, PlanRuntimeStats* rc) {
  const ComponentStore* driver = q.CanonicalDriver();
  if (driver == nullptr) return Status::OK();
  const auto& rp =
      q.radius_predicates()[static_cast<size_t>(plan.radius_predicate)];
  const ComponentStore* table = world_->StoreByIdIfExists(rp.type_id);
  if (table == nullptr || rp.field->type() != FieldType::kVec3) {
    return ExecuteFullScan(q, plan, fn, rc);
  }
  const spatial::KdBspTree* tree =
      spatial_indexes_->Get(rp.type_id, rp.field, table);
  const std::vector<uint32_t> probes = BuildProbeList(q, plan, rp.type_id);
  std::vector<std::pair<size_t, EntityId>> matches;
  tree->QueryRadius(rp.center, rp.radius, [&](EntityId e, const Aabb&) {
    if (rc != nullptr) ++rc->driver_rows;
    // SurvivesFilters re-evaluates every radius predicate exactly,
    // including the served one — the tree only prunes.
    if (!SurvivesFilters(*world_, q, plan, e, probes, rc)) return;
    size_t pos = driver->DenseIndexOf(e);
    if (pos == ComponentStore::kNoDenseIndex) return;
    matches.emplace_back(pos, e);
  });
  std::sort(matches.begin(), matches.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (rc != nullptr) rc->output_rows += matches.size();
  for (const auto& [pos, e] : matches) fn(e);
  return Status::OK();
}

PairJoinPlan QueryPlanner::PlanPairJoin(size_t n, float radius,
                                        double est_neighbors,
                                        int dims) const {
  const CostConstants& c = options_.costs;
  PairJoinPlan plan;
  plan.n = n;
  plan.est_neighbors = est_neighbors;
  const double dn = static_cast<double>(n);

  plan.est_cost_nested = dn * (dn - 1.0) * 0.5 * c.pair_distance;

  // Grid: inserts, then 13 neighbor-cell hash lookups per *occupied* cell
  // (the dominant term on sparse data, where cells ≈ points), then the
  // candidate distance checks. Occupants per cell of side r relate to
  // neighbors within radius r by the cell/sphere volume ratio; the
  // candidate count scales by the half-neighborhood (13.5 of 27 cells in
  // 3D, 4.5 of 9 in 2D).
  double per_cell = est_neighbors * (dims == 2 ? 1.0 / 3.14159265358979
                                               : 1.0 / 4.18879020478639);
  double occupied_cells = dn / (1.0 + per_cell);
  double cell_factor = dims == 2 ? 9.0 / 3.14159265358979
                                 : 27.0 / 4.18879020478639;
  double cand_per_point = est_neighbors * cell_factor;
  plan.est_cost_grid = c.pair_grid_overhead + dn * c.pair_grid_insert +
                       occupied_cells * 13.0 * c.pair_grid_cell_lookup +
                       dn * cand_per_point * 0.5 * c.pair_distance;

  // Tree: build once, then one radius probe per point; the probe visits the
  // sphere's bounding-box overshoot worth of candidates.
  double box_factor = dims == 2 ? 4.0 / 3.14159265358979
                                : 8.0 / 4.18879020478639;
  plan.est_cost_tree =
      c.pair_tree_overhead + dn * c.pair_tree_build_row +
      dn * (c.pair_tree_probe +
            est_neighbors * box_factor * c.pair_tree_candidate);

  plan.algo = spatial::PairAlgo::kNestedLoop;
  double best = plan.est_cost_nested;
  if (plan.est_cost_grid < best) {
    best = plan.est_cost_grid;
    plan.algo = spatial::PairAlgo::kGrid;
  }
  if (plan.est_cost_tree < best) {
    plan.algo = spatial::PairAlgo::kIndexed;
  }
  return plan;
}

PairJoinPlan QueryPlanner::PlanPairJoinFor(std::string_view component,
                                           std::string_view field, size_t n,
                                           float radius) const {
  const TypeInfo* info = TypeRegistry::Global().FindByName(component);
  const SpatialFieldStats* ss =
      info != nullptr ? stats_.Spatial(info->id(), std::string(field))
                      : nullptr;
  double est_neighbors;
  int dims = 3;
  if (ss != nullptr && ss->rows > 0) {
    // Density scales linearly with count over a fixed area.
    est_neighbors = ss->EstimateNeighbors(radius) * static_cast<double>(n) /
                    static_cast<double>(ss->rows);
    dims = ss->dims;
  } else {
    // Never analyzed: assume a moderate uniform density.
    est_neighbors = 4.0;
  }
  return PlanPairJoin(n, radius, est_neighbors, dims);
}

}  // namespace gamedb::planner
