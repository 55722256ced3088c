#include "core/query.h"

#include <cmath>

namespace gamedb {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "==";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

bool FieldValueAsNumber(const FieldValue& v, double* out) {
  if (const double* d = std::get_if<double>(&v)) {
    *out = *d;
    return true;
  }
  if (const int64_t* i = std::get_if<int64_t>(&v)) {
    *out = static_cast<double>(*i);
    return true;
  }
  if (const bool* b = std::get_if<bool>(&v)) {
    *out = *b ? 1.0 : 0.0;
    return true;
  }
  return false;
}

namespace {

template <typename T>
bool ApplyOrdered(const T& a, CmpOp op, const T& b) {
  switch (op) {
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return a != b;
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kLe:
      return a <= b;
    case CmpOp::kGt:
      return a > b;
    case CmpOp::kGe:
      return a >= b;
  }
  return false;
}

}  // namespace

bool CompareFieldValues(const FieldValue& lhs, CmpOp op,
                        const FieldValue& rhs) {
  double a, b;
  if (FieldValueAsNumber(lhs, &a) && FieldValueAsNumber(rhs, &b)) {
    return ApplyOrdered(a, op, b);
  }
  if (const auto* ls = std::get_if<std::string>(&lhs)) {
    if (const auto* rs = std::get_if<std::string>(&rhs)) {
      return ApplyOrdered(*ls, op, *rs);
    }
  }
  if (const auto* le = std::get_if<EntityId>(&lhs)) {
    if (const auto* re = std::get_if<EntityId>(&rhs)) {
      return ApplyOrdered(le->Raw(), op, re->Raw());
    }
  }
  if (const auto* lv = std::get_if<Vec3>(&lhs)) {
    if (const auto* rv = std::get_if<Vec3>(&rhs)) {
      // Vectors support only (in)equality.
      if (op == CmpOp::kEq) return *lv == *rv;
      if (op == CmpOp::kNe) return !(*lv == *rv);
      return false;
    }
  }
  // Mismatched kinds: only != holds.
  return op == CmpOp::kNe;
}

const TypeInfo* DynamicQuery::ResolveComponent(std::string_view name) {
  const TypeInfo* info = TypeRegistry::Global().FindByName(name);
  if (info == nullptr && error_.ok()) {
    error_ = Status::NotFound("unknown component: " + std::string(name));
  }
  return info;
}

const FieldInfo* DynamicQuery::ResolveField(std::string_view component,
                                            std::string_view field,
                                            uint32_t* type_id) {
  const TypeInfo* info = ResolveComponent(component);
  if (info == nullptr) return nullptr;
  *type_id = info->id();
  const FieldInfo* f = info->FindField(field);
  if (f == nullptr && error_.ok()) {
    error_ = Status::NotFound("unknown field: " + std::string(component) +
                              "." + std::string(field));
  }
  return f;
}

DynamicQuery& DynamicQuery::With(std::string_view component) {
  if (const TypeInfo* info = ResolveComponent(component)) {
    required_.push_back(info->id());
  }
  return *this;
}

DynamicQuery& DynamicQuery::WhereField(std::string_view component,
                                       std::string_view field, CmpOp op,
                                       FieldValue rhs) {
  uint32_t type_id = 0;
  const FieldInfo* f = ResolveField(component, field, &type_id);
  if (f != nullptr) {
    required_.push_back(type_id);
    predicates_.push_back(Predicate{type_id, f, op, std::move(rhs)});
  }
  return *this;
}

DynamicQuery& DynamicQuery::WithinRadius(std::string_view component,
                                         std::string_view field,
                                         const Vec3& center, float radius) {
  uint32_t type_id = 0;
  const FieldInfo* f = ResolveField(component, field, &type_id);
  if (f != nullptr) {
    required_.push_back(type_id);
    radius_predicates_.push_back(
        RadiusPredicate{type_id, f, center, radius});
  }
  return *this;
}

bool DynamicQuery::Matches(EntityId e) const {
  for (uint32_t id : required_) {
    const ComponentStore* store = world_->StoreByIdIfExists(id);
    if (store == nullptr || !store->Contains(e)) return false;
  }
  for (size_t i = 0; i < predicates_.size(); ++i) {
    if (!PredicateHolds(i, e)) return false;
  }
  for (size_t i = 0; i < radius_predicates_.size(); ++i) {
    if (!RadiusHolds(i, e)) return false;
  }
  return true;
}

bool DynamicQuery::PredicateHolds(size_t i, EntityId e) const {
  const Predicate& p = predicates_[i];
  const void* comp = world_->StoreByIdIfExists(p.type_id)->Find(e);
  return CompareFieldValues(p.field->Get(comp), p.op, p.rhs);
}

bool DynamicQuery::RadiusHolds(size_t i, EntityId e) const {
  const RadiusPredicate& rp = radius_predicates_[i];
  FieldValue v = rp.field->Get(world_->StoreByIdIfExists(rp.type_id)->Find(e));
  const Vec3* pos = std::get_if<Vec3>(&v);
  return pos != nullptr &&
         pos->DistanceSquaredTo(rp.center) <= rp.radius * rp.radius;
}

const ComponentStore* DynamicQuery::CanonicalDriver() const {
  const ComponentStore* driver = nullptr;
  for (uint32_t id : required_) {
    const ComponentStore* store = world_->StoreByIdIfExists(id);
    if (store == nullptr) return nullptr;  // missing table -> no matches
    if (driver == nullptr || store->Size() < driver->Size()) driver = store;
  }
  return driver;
}

Status DynamicQuery::Each(const std::function<void(EntityId)>& fn) {
  if (!error_.ok()) return error_;
  if (required_.empty()) {
    return Status::InvalidArgument("query has no component constraint");
  }
  if (planner_ != nullptr && planner_->PlanningEnabled()) {
    return planner_->Execute(*this, fn);
  }
  return EachUnplanned(fn);
}

Status DynamicQuery::EachUnplanned(const std::function<void(EntityId)>& fn) {
  // Drive from the smallest required table.
  const ComponentStore* driver = CanonicalDriver();
  if (driver == nullptr) return Status::OK();
  for (size_t i = 0; i < driver->Size(); ++i) {
    EntityId e = driver->EntityAt(i);
    if (world_->Alive(e) && Matches(e)) fn(e);
  }
  return Status::OK();
}

Result<std::string> DynamicQuery::Explain() {
  if (!error_.ok()) return error_;
  if (required_.empty()) {
    return Status::InvalidArgument("query has no component constraint");
  }
  if (planner_ != nullptr) return planner_->ExplainQuery(*this);
  // No planner: describe the built-in path (no estimates available).
  const TypeRegistry& reg = TypeRegistry::Global();
  std::string out = "plan (no planner attached):\n";
  const ComponentStore* driver = CanonicalDriver();
  if (driver == nullptr) {
    out += "  empty: a required component table does not exist\n";
    return out;
  }
  for (uint32_t id : required_) {
    if (world_->StoreByIdIfExists(id) == driver) {
      const TypeInfo* info = reg.Find(id);
      out += "  access: full_scan of " + info->name() + " (" +
             std::to_string(driver->Size()) + " rows)\n";
      break;
    }
  }
  for (const Predicate& p : predicates_) {
    out += "  filter: " + reg.Find(p.type_id)->name() + "." +
           p.field->name() + " " + CmpOpName(p.op) + " " +
           FieldValueToString(p.rhs) + "\n";
  }
  for (const RadiusPredicate& rp : radius_predicates_) {
    out += "  filter: distance(" + reg.Find(rp.type_id)->name() + "." +
           rp.field->name() + ", " + rp.center.ToString() +
           ") <= " + std::to_string(rp.radius) + " (linear)\n";
  }
  return out;
}

Result<int64_t> DynamicQuery::Count() {
  int64_t n = 0;
  Status st = Each([&](EntityId) { ++n; });
  if (!st.ok()) return st;
  return n;
}

Result<std::vector<EntityId>> DynamicQuery::Collect() {
  std::vector<EntityId> out;
  Status st = Each([&](EntityId e) { out.push_back(e); });
  if (!st.ok()) return st;
  return out;
}

namespace {

struct NumericFold {
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  EntityId argmin;
  EntityId argmax;
  int64_t count = 0;

  void Add(EntityId e, double v) {
    if (count == 0 || v < min) {
      min = v;
      argmin = e;
    }
    if (count == 0 || v > max) {
      max = v;
      argmax = e;
    }
    sum += v;
    ++count;
  }
};

}  // namespace

#define GAMEDB_DYNQ_FOLD(component, field, fold)                        \
  do {                                                                  \
    uint32_t type_id = 0;                                               \
    const FieldInfo* f = ResolveField(component, field, &type_id);      \
    if (!error_.ok()) return error_;                                    \
    required_.push_back(type_id);                                       \
    Status st = Each([&](EntityId e) {                                  \
      const ComponentStore* store = world_->StoreByIdIfExists(type_id); \
      FieldValue v = f->Get(store->Find(e));                            \
      double num = 0.0;                                                 \
      if (FieldValueAsNumber(v, &num)) (fold).Add(e, num);              \
    });                                                                 \
    if (!st.ok()) return st;                                            \
  } while (0)

Result<double> DynamicQuery::Sum(std::string_view component,
                                 std::string_view field) {
  NumericFold fold;
  GAMEDB_DYNQ_FOLD(component, field, fold);
  return fold.sum;
}

Result<double> DynamicQuery::Min(std::string_view component,
                                 std::string_view field) {
  NumericFold fold;
  GAMEDB_DYNQ_FOLD(component, field, fold);
  if (fold.count == 0) return Status::NotFound("no rows match");
  return fold.min;
}

Result<double> DynamicQuery::Max(std::string_view component,
                                 std::string_view field) {
  NumericFold fold;
  GAMEDB_DYNQ_FOLD(component, field, fold);
  if (fold.count == 0) return Status::NotFound("no rows match");
  return fold.max;
}

Result<double> DynamicQuery::Avg(std::string_view component,
                                 std::string_view field) {
  NumericFold fold;
  GAMEDB_DYNQ_FOLD(component, field, fold);
  if (fold.count == 0) return Status::NotFound("no rows match");
  return fold.sum / static_cast<double>(fold.count);
}

Result<EntityId> DynamicQuery::ArgMin(std::string_view component,
                                      std::string_view field) {
  NumericFold fold;
  GAMEDB_DYNQ_FOLD(component, field, fold);
  if (fold.count == 0) return Status::NotFound("no rows match");
  return fold.argmin;
}

Result<EntityId> DynamicQuery::ArgMax(std::string_view component,
                                      std::string_view field) {
  NumericFold fold;
  GAMEDB_DYNQ_FOLD(component, field, fold);
  if (fold.count == 0) return Status::NotFound("no rows match");
  return fold.argmax;
}

#undef GAMEDB_DYNQ_FOLD

}  // namespace gamedb
