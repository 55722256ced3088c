#include "views/view.h"

#include <algorithm>
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
  query_.SetPlanner(planner_);
  for (const std::string& component : def_.with) query_.With(component);
  for (const ViewDef::Where& w : def_.where) {
    query_.WhereField(w.component, w.field, w.op, w.rhs);
  }
  if (def_.has_near) {
    query_.WithinRadius(def_.near.component, def_.near.field,
                        def_.near.center, def_.near.radius);
  }
  if (def_.aggregate != AggKind::kNone) query_.With(def_.agg_component);
  GAMEDB_RETURN_NOT_OK(query_.status());
  if (def_.aggregate != AggKind::kNone) {
    const TypeInfo* info =
        TypeRegistry::Global().FindByName(def_.agg_component);
    agg_type_ = info->id();
    agg_field_ = info->FindField(def_.agg_field);
    if (agg_field_ == nullptr) {
      return Status::NotFound("unknown field: " + def_.agg_component + "." +
                              def_.agg_field);
    }
  }
  if (query_.required().empty()) {
    return Status::InvalidArgument("view '" + def_.name +
                                   "' has no component constraint");
  }
  for (uint32_t id : query_.required()) {
    if (std::find(deps_.begin(), deps_.end(), id) == deps_.end()) {
      deps_.push_back(id);
    }
  }
  return Status::OK();
}

const std::vector<EntityId>& LiveView::Members() const {
  auto valid = [this]() {
    return !sorted_dirty_ && sorted_driver_ != nullptr &&
           sorted_driver_ == query_.CanonicalDriver() &&
           sorted_driver_->last_version() == sorted_driver_version_;
  };
  {
    std::shared_lock<std::shared_mutex> lock(sort_mu_);
    if (valid()) return sorted_;
  }
  std::unique_lock<std::shared_mutex> lock(sort_mu_);
  if (valid()) return sorted_;
  const ComponentStore* driver = query_.CanonicalDriver();
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
      // reconciles at the next Maintain. A caller reading
      // Members() inside that window sees the surviving members in
      // canonical order; the stale ones exit at that reconcile.
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
  const ComponentStore* store = world_->StoreByIdIfExists(agg_type_);
  double sum = 0.0, mn = 0.0, mx = 0.0;
  int64_t n = 0;
  for (EntityId e : Members()) {
    FieldValue v = agg_field_->Get(store->Find(e));
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
  const bool match = world_->Alive(e) && query_.Matches(e);
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
  ++stats_.exits;
  for (const Callback& cb : exit_cbs_) {
    if (cb) cb(e);
  }
}

void LiveView::Update(EntityId e) {
  ++stats_.updates;
  for (const Callback& cb : update_cbs_) {
    if (cb) cb(e);
  }
}

Status LiveView::Populate() {
  std::vector<EntityId> fresh;
  GAMEDB_RETURN_NOT_OK(
      query_.Each([&fresh](EntityId e) { fresh.push_back(e); }));
  ++stats_.repopulations;
  for (EntityId e : fresh) Enter(e);
  // The fresh result *is* the canonical order — seed the sort cache.
  const ComponentStore* driver = query_.CanonicalDriver();
  std::unique_lock<std::shared_mutex> lock(sort_mu_);
  sorted_ = std::move(fresh);
  sorted_driver_ = driver;
  sorted_driver_version_ = driver != nullptr ? driver->last_version() : 0;
  sorted_dirty_ = driver == nullptr;
  return Status::OK();
}

}  // namespace gamedb::views
