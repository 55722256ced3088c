#include "views/view.h"

#include <algorithm>
#include <cmath>
#include <mutex>

namespace gamedb::views {

const char* AggKindName(AggKind k) {
  switch (k) {
    case AggKind::kNone:
      return "none";
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
  }
  return "?";
}

Status LiveView::Resolve() {
  if (def_.name.empty()) {
    return Status::InvalidArgument("a LiveView needs a non-empty name");
  }
  const TypeRegistry& reg = TypeRegistry::Global();
  auto resolve_component = [&](const std::string& name,
                               const TypeInfo** out) -> Status {
    *out = reg.FindByName(name);
    if (*out == nullptr) {
      return Status::NotFound("unknown component: " + name);
    }
    return Status::OK();
  };
  auto resolve_field = [&](const std::string& component,
                           const std::string& field, uint32_t* type_id,
                           const FieldInfo** out) -> Status {
    const TypeInfo* info = nullptr;
    GAMEDB_RETURN_NOT_OK(resolve_component(component, &info));
    *type_id = info->id();
    *out = info->FindField(field);
    if (*out == nullptr) {
      return Status::NotFound("unknown field: " + component + "." + field);
    }
    return Status::OK();
  };

  // Build the required/predicate lists in exactly the order constructing
  // the equivalent DynamicQuery would (With..., WhereField..., WithinRadius,
  // aggregate component last) — the canonical driver tie-break depends on
  // this order.
  for (const std::string& component : def_.with) {
    const TypeInfo* info = nullptr;
    GAMEDB_RETURN_NOT_OK(resolve_component(component, &info));
    required_.push_back(info->id());
  }
  for (const ViewDef::Where& w : def_.where) {
    uint32_t type_id = 0;
    const FieldInfo* f = nullptr;
    GAMEDB_RETURN_NOT_OK(resolve_field(w.component, w.field, &type_id, &f));
    required_.push_back(type_id);
    predicates_.push_back(DynamicQuery::Predicate{type_id, f, w.op, w.rhs});
  }
  if (def_.has_near) {
    uint32_t type_id = 0;
    const FieldInfo* f = nullptr;
    GAMEDB_RETURN_NOT_OK(resolve_field(def_.near.component, def_.near.field,
                                       &type_id, &f));
    required_.push_back(type_id);
    radius_predicates_.push_back(DynamicQuery::RadiusPredicate{
        type_id, f, def_.near.center, def_.near.radius});
  }
  if (def_.aggregate != AggKind::kNone) {
    GAMEDB_RETURN_NOT_OK(resolve_field(def_.agg_component, def_.agg_field,
                                       &agg_type_, &agg_field_));
    required_.push_back(agg_type_);
  }
  if (required_.empty()) {
    return Status::InvalidArgument("view '" + def_.name +
                                   "' has no component constraint");
  }
  for (uint32_t id : required_) {
    if (std::find(deps_.begin(), deps_.end(), id) == deps_.end()) {
      deps_.push_back(id);
    }
  }
  return Status::OK();
}

Status LiveView::RunQuery(std::vector<EntityId>* out) const {
  DynamicQuery q(world_);
  q.SetPlanner(planner_);
  for (const std::string& component : def_.with) q.With(component);
  for (const ViewDef::Where& w : def_.where) {
    q.WhereField(w.component, w.field, w.op, w.rhs);
  }
  if (def_.has_near) {
    q.WithinRadius(def_.near.component, def_.near.field, def_.near.center,
                   def_.near.radius);
  }
  if (def_.aggregate != AggKind::kNone) q.With(def_.agg_component);
  return q.Each([out](EntityId e) { out->push_back(e); });
}

const ComponentStore* LiveView::CanonicalDriver() const {
  // Duplicates in required_ can't change the pick (a later equal-size
  // duplicate never beats the earlier occurrence), so the deduplicated
  // cached stores reproduce DynamicQuery::CanonicalDriver exactly —
  // without per-call map lookups (this runs inside the Members() cache
  // validity check, a parallel-phase hot path).
  const ComponentStore* driver = nullptr;
  if (!dep_stores_.empty()) {
    for (const ComponentStore* store : dep_stores_) {
      if (driver == nullptr || store->Size() < driver->Size()) driver = store;
    }
    return driver;
  }
  for (uint32_t id : required_) {  // pre-CacheStores fallback
    const ComponentStore* store = world_->StoreByIdIfExists(id);
    if (store == nullptr) return nullptr;
    if (driver == nullptr || store->Size() < driver->Size()) driver = store;
  }
  return driver;
}

void LiveView::CacheStores() {
  auto store_of = [&](uint32_t id) {
    const ComponentStore* store = world_->StoreByIdIfExists(id);
    GAMEDB_CHECK(store != nullptr);  // ViewCatalog created it at Register
    return store;
  };
  dep_stores_.clear();
  predicate_stores_.clear();
  radius_stores_.clear();
  for (uint32_t id : deps_) dep_stores_.push_back(store_of(id));
  for (const auto& p : predicates_) {
    predicate_stores_.push_back(store_of(p.type_id));
  }
  for (const auto& rp : radius_predicates_) {
    radius_stores_.push_back(store_of(rp.type_id));
  }
  if (def_.aggregate != AggKind::kNone) agg_store_ = store_of(agg_type_);
}

bool LiveView::Matches(EntityId e) const {
  // Mirrors DynamicQuery::Matches bit for bit — the differential contract
  // depends on these two agreeing on every edge (non-Vec3 position values,
  // FieldValue comparison semantics). The only divergence is mechanical:
  // the per-table store lookups are pre-resolved (CacheStores), which the
  // registration-time store creation makes equivalent.
  for (const ComponentStore* store : dep_stores_) {
    if (!store->Contains(e)) return false;
  }
  for (size_t i = 0; i < predicates_.size(); ++i) {
    const auto& p = predicates_[i];
    const void* comp = predicate_stores_[i]->Find(e);
    if (!CompareFieldValues(p.field->Get(comp), p.op, p.rhs)) return false;
  }
  for (size_t i = 0; i < radius_predicates_.size(); ++i) {
    const auto& rp = radius_predicates_[i];
    const void* comp = radius_stores_[i]->Find(e);
    FieldValue v = rp.field->Get(comp);
    const Vec3* pos = std::get_if<Vec3>(&v);
    if (pos == nullptr) return false;
    if (pos->DistanceSquaredTo(rp.center) > rp.radius * rp.radius) {
      return false;
    }
  }
  return true;
}

const std::vector<EntityId>& LiveView::Members() const {
  auto valid = [this]() {
    return !sorted_dirty_ && sorted_driver_ != nullptr &&
           sorted_driver_ == CanonicalDriver() &&
           sorted_driver_->last_version() == sorted_driver_version_;
  };
  {
    std::shared_lock<std::shared_mutex> lock(sort_mu_);
    if (valid()) return sorted_;
  }
  std::unique_lock<std::shared_mutex> lock(sort_mu_);
  if (valid()) return sorted_;
  const ComponentStore* driver = CanonicalDriver();
  sorted_.clear();
  sorted_.reserve(members_.size());
  if (driver != nullptr) {
    std::vector<std::pair<size_t, EntityId>> order;
    order.reserve(members_.size());
    for (uint64_t raw : members_) {
      EntityId e = EntityId::FromRaw(raw);
      size_t pos = driver->DenseIndexOf(e);
      // A member may legitimately have no driver row: world mutations
      // (Destroy, Remove) take effect immediately, while the view only
      // reconciles at the next Maintain/Repopulate. A caller reading
      // Members() inside that window — Recenter before the tick's
      // Maintain is the canonical case — sees the surviving members in
      // canonical order; the stale ones exit when their pending deltas
      // drain.
      if (pos == ComponentStore::kNoDenseIndex) continue;
      order.emplace_back(pos, e);
    }
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [pos, e] : order) sorted_.push_back(e);
    sorted_driver_version_ = driver->last_version();
  }
  sorted_driver_ = driver;
  sorted_dirty_ = driver == nullptr;  // no driver: nothing to cache against
  return sorted_;
}

Result<double> LiveView::Aggregate() const {
  if (def_.aggregate == AggKind::kNone) {
    return Status::NotSupported("view '" + def_.name + "' has no aggregate");
  }
  if (def_.aggregate == AggKind::kCount) {
    return static_cast<double>(members_.size());
  }
  // Exactly DynamicQuery's NumericFold, folded in canonical member order,
  // so floating-point rounding matches a fresh terminal bit for bit.
  double sum = 0.0, mn = 0.0, mx = 0.0;
  int64_t n = 0;
  for (EntityId e : Members()) {
    FieldValue v = agg_field_->Get(agg_store_->Find(e));
    double num = 0.0;
    if (!FieldValueAsNumber(v, &num)) continue;
    if (n == 0 || num < mn) mn = num;
    if (n == 0 || num > mx) mx = num;
    sum += num;
    ++n;
  }
  switch (def_.aggregate) {
    case AggKind::kSum:
      return sum;
    case AggKind::kAvg:
      if (n == 0) return Status::NotFound("no rows match");
      return sum / static_cast<double>(n);
    case AggKind::kMin:
      if (n == 0) return Status::NotFound("no rows match");
      return mn;
    case AggKind::kMax:
      if (n == 0) return Status::NotFound("no rows match");
      return mx;
    case AggKind::kNone:
    case AggKind::kCount:
      break;  // handled above
  }
  return Status::NotSupported("unknown aggregate kind");
}

bool LiveView::AggValue(EntityId e, double* out) const {
  const void* comp = agg_store_->Find(e);
  if (comp == nullptr) return false;
  FieldValue v = agg_field_->Get(comp);
  // NaN would wedge the running sum (sum - NaN never recovers) and break
  // the extrema multiset's ordering; the exact Aggregate() fold still
  // reports it with fresh-terminal semantics.
  return FieldValueAsNumber(v, out) && !std::isnan(*out);
}

void LiveView::AggAdd(EntityId e) {
  // kCount needs no per-member state (count == membership size), and only
  // kMin/kMax pay the extrema multiset.
  switch (def_.aggregate) {
    case AggKind::kNone:
    case AggKind::kCount:
      return;
    case AggKind::kSum:
    case AggKind::kAvg: {
      double v = 0.0;
      if (!AggValue(e, &v)) return;
      contrib_[e.Raw()] = v;
      running_.Add(v);
      return;
    }
    case AggKind::kMin:
    case AggKind::kMax: {
      double v = 0.0;
      if (!AggValue(e, &v)) return;
      contrib_[e.Raw()] = v;
      running_.Add(v);
      extrema_.insert(v);
      return;
    }
  }
}

void LiveView::AggRemove(EntityId e) {
  if (def_.aggregate == AggKind::kNone ||
      def_.aggregate == AggKind::kCount) {
    return;
  }
  auto it = contrib_.find(e.Raw());
  if (it == contrib_.end()) return;
  running_.Remove(it->second);
  if (def_.aggregate == AggKind::kMin || def_.aggregate == AggKind::kMax) {
    auto pos = extrema_.find(it->second);
    GAMEDB_DCHECK(pos != extrema_.end());
    if (pos != extrema_.end()) extrema_.erase(pos);
  }
  contrib_.erase(it);
}

void LiveView::MarkCandidate(EntityId e) {
  // A net ChangeSet lists an entity at most once, so single-table views
  // cannot see duplicates — skip the dedup hashing entirely.
  if (deps_.size() > 1 && !candidate_set_.insert(e.Raw()).second) return;
  candidates_.push_back(e);
}

void LiveView::ApplyCandidates() {
  if (candidates_.empty()) return;
  for (EntityId e : candidates_) Reevaluate(e);
  candidates_.clear();
  candidate_set_.clear();
}

void LiveView::Reevaluate(EntityId e) {
  ++stats_.reevaluated;
  const bool is_member = members_.count(e.Raw()) > 0;
  const bool match = world_->Alive(e) && Matches(e);
  if (match && !is_member) {
    Enter(e);
  } else if (!match && is_member) {
    Exit(e);
  } else if (match && is_member) {
    Update(e);
  }
}

void LiveView::Enter(EntityId e) {
  members_.insert(e.Raw());
  {
    std::unique_lock<std::shared_mutex> lock(sort_mu_);
    sorted_dirty_ = true;
  }
  AggAdd(e);
  ++stats_.enters;
  for (const Callback& cb : enter_cbs_) {
    if (cb) cb(e);
  }
}

void LiveView::Exit(EntityId e) {
  members_.erase(e.Raw());
  {
    std::unique_lock<std::shared_mutex> lock(sort_mu_);
    sorted_dirty_ = true;
  }
  AggRemove(e);
  ++stats_.exits;
  for (const Callback& cb : exit_cbs_) {
    if (cb) cb(e);
  }
}

void LiveView::Update(EntityId e) {
  ++stats_.updates;
  if (def_.aggregate != AggKind::kNone) {
    AggRemove(e);
    AggAdd(e);
  }
  for (const Callback& cb : update_cbs_) {
    if (cb) cb(e);
  }
}

Status LiveView::Repopulate() {
  std::vector<EntityId> fresh;
  GAMEDB_RETURN_NOT_OK(RunQuery(&fresh));
  ++stats_.repopulations;
  std::unordered_set<uint64_t> fresh_set;
  fresh_set.reserve(fresh.size());
  for (EntityId e : fresh) fresh_set.insert(e.Raw());
  // Exits in current canonical order, then enters in fresh (canonical)
  // order — subscribers see a deterministic delta stream, not a rebuild.
  // Members() only orders members that still have a driver row; members
  // whose row is already gone (destroyed since the last Maintain, deltas
  // still pending) are appended in raw-id order so the reconcile exits
  // them here instead of leaving them to linger until the next Maintain.
  std::vector<EntityId> old = Members();
  if (old.size() < members_.size()) {
    std::unordered_set<uint64_t> ordered;
    ordered.reserve(old.size());
    for (EntityId e : old) ordered.insert(e.Raw());
    std::vector<uint64_t> rowless;
    for (uint64_t raw : members_) {
      if (ordered.count(raw) == 0) rowless.push_back(raw);
    }
    std::sort(rowless.begin(), rowless.end());
    for (uint64_t raw : rowless) old.push_back(EntityId::FromRaw(raw));
  }
  for (EntityId e : old) {
    if (fresh_set.count(e.Raw()) == 0) Exit(e);
  }
  for (EntityId e : fresh) {
    if (members_.count(e.Raw()) == 0) Enter(e);
  }
  // The fresh result *is* the canonical order — seed the sort cache.
  const ComponentStore* driver = CanonicalDriver();
  std::unique_lock<std::shared_mutex> lock(sort_mu_);
  sorted_ = std::move(fresh);
  sorted_driver_ = driver;
  sorted_driver_version_ = driver != nullptr ? driver->last_version() : 0;
  sorted_dirty_ = driver == nullptr;
  return Status::OK();
}

Status LiveView::Recenter(const Vec3& center) {
  if (!def_.has_near) {
    return Status::InvalidArgument("view '" + def_.name +
                                   "' has no proximity term to recenter");
  }
  if (def_.near.center == center) return Status::OK();
  const Vec3 old_center = def_.near.center;
  def_.near.center = center;
  radius_predicates_.front().center = center;
  Status st = Repopulate();
  if (!st.ok()) {
    // A failed repopulate fails before touching membership (the query
    // errors out pre-diff); restore the old center so the same-center
    // early-return above can't mask stale membership as success.
    def_.near.center = old_center;
    radius_predicates_.front().center = old_center;
  }
  return st;
}

}  // namespace gamedb::views
