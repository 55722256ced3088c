#include "script/bindings.h"

#include <algorithm>

#include "common/string_util.h"
#include "core/query.h"
#include "script/builtins.h"
#include "views/maintainer.h"

namespace gamedb::script {

Effect<double>& ScriptEffects::Channel(const std::string& name) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = channels_.find(name);
    if (it != channels_.end()) return *it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto [it, inserted] =
      channels_.try_emplace(name, nullptr);
  if (inserted) it->second = std::make_unique<Effect<double>>(shards_);
  return *it->second;
}

void ScriptEffects::Drain(const std::string& name,
                          const std::function<void(EntityId, double)>& apply) {
  auto it = channels_.find(name);
  if (it == channels_.end()) return;
  it->second->Drain([&](EntityId e, const double& v) { apply(e, v); });
}

size_t ScriptEffects::contribution_count() const {
  size_t n = 0;
  for (const auto& [name, ch] : channels_) n += ch->contribution_count();
  return n;
}

void ScriptEffects::Clear() {
  for (auto& [name, ch] : channels_) ch->Clear();
}

std::vector<std::string> ScriptEffects::ChannelNames() const {
  std::vector<std::string> names;
  names.reserve(channels_.size());
  for (const auto& [name, ch] : channels_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

void DeferredOps::Push(size_t shard, DeferredOp op) {
  GAMEDB_DCHECK(shard < shards_.size());
  shards_[shard].push_back(std::move(op));
}

size_t DeferredOps::size() const {
  size_t n = 0;
  for (const auto& s : shards_) n += s.size();
  return n;
}

size_t DeferredOps::Apply(World* world, size_t* skipped) {
  size_t applied = 0;
  size_t skip = 0;
  for (auto& shard : shards_) {
    for (DeferredOp& op : shard) {
      switch (op.kind) {
        case DeferredOp::Kind::kDestroy:
          if (world->Alive(op.entity)) {
            world->Destroy(op.entity);
            ++applied;
          } else {
            ++skip;
          }
          break;
        case DeferredOp::Kind::kAdd: {
          ComponentStore* store = world->StoreById(op.type_id);
          if (!world->Alive(op.entity) || store == nullptr) {
            ++skip;
            break;
          }
          store->EmplaceDefault(op.entity);
          ++applied;
          break;
        }
        case DeferredOp::Kind::kRemove: {
          ComponentStore* store = world->StoreById(op.type_id);
          if (store != nullptr && store->Erase(op.entity)) {
            ++applied;
          } else {
            ++skip;
          }
          break;
        }
        case DeferredOp::Kind::kSet: {
          ComponentStore* store = world->StoreById(op.type_id);
          if (!world->Alive(op.entity) || store == nullptr) {
            ++skip;
            break;
          }
          // PatchRaw keeps maintained aggregates / delta tracking
          // consistent, exactly like the direct set path.
          Status set_status = Status::OK();
          bool found = store->PatchRaw(op.entity, [&](void* c) {
            set_status = op.field->Set(c, op.value);
          });
          if (found && set_status.ok()) {
            ++applied;
          } else {
            ++skip;  // component removed (or type error) since record time
          }
          break;
        }
        case DeferredOp::Kind::kTouch: {
          // kDirectChecked already wrote the field in place during the
          // query phase; replaying the Touch here reproduces kDefer's
          // change-log stream op-for-op.
          ComponentStore* store = world->StoreById(op.type_id);
          if (world->Alive(op.entity) && store != nullptr &&
              store->Contains(op.entity)) {
            store->Touch(op.entity);
            ++applied;
          } else {
            ++skip;
          }
          break;
        }
      }
    }
    shard.clear();
  }
  if (skipped != nullptr) *skipped = skip;
  return applied;
}

void DeferredOps::Clear() {
  for (auto& s : shards_) s.clear();
}

namespace {

/// Converts a script Value to a reflection FieldValue.
Result<FieldValue> ToFieldValue(const Value& v) {
  if (v.IsNumber()) return FieldValue(v.AsNumber());
  if (v.IsBool()) return FieldValue(v.AsBool());
  if (v.IsString()) return FieldValue(v.AsString());
  if (v.IsEntity()) return FieldValue(v.AsEntity());
  if (v.IsVec3()) return FieldValue(v.AsVec3());
  return Status::InvalidArgument(std::string("cannot store ") + v.TypeName() +
                                 " in a component field");
}

/// Converts a reflection FieldValue to a script Value.
Value FromFieldValue(const FieldValue& v) {
  if (const double* d = std::get_if<double>(&v)) return Value(*d);
  if (const int64_t* i = std::get_if<int64_t>(&v)) {
    return Value(static_cast<double>(*i));
  }
  if (const bool* b = std::get_if<bool>(&v)) return Value(*b);
  if (const Vec3* vec = std::get_if<Vec3>(&v)) return Value(*vec);
  if (const std::string* s = std::get_if<std::string>(&v)) return Value(*s);
  return Value(std::get<EntityId>(v));
}

Result<CmpOp> ParseCmpOp(const std::string& op) {
  if (op == "==") return CmpOp::kEq;
  if (op == "!=") return CmpOp::kNe;
  if (op == "<") return CmpOp::kLt;
  if (op == "<=") return CmpOp::kLe;
  if (op == ">") return CmpOp::kGt;
  if (op == ">=") return CmpOp::kGe;
  return Status::InvalidArgument("unknown comparison operator '" + op + "'");
}

/// Looks up component + field or fails with a script-friendly message.
Result<const FieldInfo*> ResolveField(const std::string& comp,
                                      const std::string& field,
                                      const TypeInfo** info_out) {
  const TypeInfo* info = TypeRegistry::Global().FindByName(comp);
  if (info == nullptr) {
    return Status::NotFound("unknown component '" + comp + "'");
  }
  const FieldInfo* f = info->FindField(field);
  if (f == nullptr) {
    return Status::NotFound("component '" + comp + "' has no field '" +
                            field + "'");
  }
  *info_out = info;
  return f;
}

/// Whether FieldInfo::Set would accept this value kind for this field type
/// (mirrors the conversion matrix in reflect.cc), so deferred sets surface
/// type errors at the call site in the query phase, not silently at apply.
bool ConvertibleTo(FieldType type, const FieldValue& v) {
  switch (type) {
    case FieldType::kFloat:
    case FieldType::kDouble:
    case FieldType::kInt32:
    case FieldType::kUInt32:
    case FieldType::kInt64:
    case FieldType::kUInt64:
    case FieldType::kBool:
      return std::holds_alternative<double>(v) ||
             std::holds_alternative<int64_t>(v) ||
             std::holds_alternative<bool>(v);
    case FieldType::kVec3:
      return std::holds_alternative<Vec3>(v);
    case FieldType::kString:
      return std::holds_alternative<std::string>(v);
    case FieldType::kEntity:
      return std::holds_alternative<EntityId>(v);
  }
  return false;
}

Status ReadOnlyPhaseError(const char* name) {
  return Status::NotSupported(
      std::string(name) +
      " mutates the world; the scripted query phase is read-only — emit() an "
      "effect and apply it from the host instead");
}

}  // namespace

void BindWorld(Interpreter* interp, World* world, ScriptEffects* effects,
               WorldBindOptions options) {
  GAMEDB_CHECK((options.mutations != MutationPolicy::kDefer &&
                options.mutations != MutationPolicy::kDirectChecked) ||
               options.deferred != nullptr);
  const MutationPolicy policy = options.mutations;
  DeferredOps* deferred = options.deferred;
  const size_t shard = options.shard;
  QueryPlanHook* planner = options.planner;
  DirectWriteGate* gate = options.direct_gate;

  interp->RegisterBuiltin(
      "spawn",
      [world, policy](std::vector<Value>& args, Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 0, "spawn()"));
        if (policy != MutationPolicy::kDirect) {
          // Even under kDefer: a fresh entity id cannot be handed to the
          // script before the apply phase allocates it.
          return Status::NotSupported(
              "spawn() is not available during the parallel query phase "
              "(entity ids are allocated in the apply phase); spawn from the "
              "host or a trigger handler instead");
        }
        return Value(world->Create());
      });
  interp->RegisterBuiltin(
      "destroy",
      [world, policy, deferred, shard](std::vector<Value>& args,
                                       Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 1, "destroy(e)"));
        GAMEDB_ASSIGN_OR_RETURN(EntityId e, ArgEntity(args, 0, "destroy(e)"));
        switch (policy) {
          case MutationPolicy::kReject:
            return ReadOnlyPhaseError("destroy()");
          case MutationPolicy::kDefer:
          case MutationPolicy::kDirectChecked:
            // destroy() is structural, so the analysis never admits it to
            // the in-place path — kDirectChecked defers like kDefer.
            deferred->Push(shard,
                           DeferredOp{DeferredOp::Kind::kDestroy, e, 0,
                                      nullptr, FieldValue()});
            return Value::Nil();
          case MutationPolicy::kDirect:
            world->Destroy(e);
            return Value::Nil();
        }
        return Value::Nil();
      });
  interp->RegisterBuiltin(
      "is_alive",
      [world](std::vector<Value>& args, Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 1, "is_alive(e)"));
        GAMEDB_ASSIGN_OR_RETURN(EntityId e, ArgEntity(args, 0, "is_alive(e)"));
        return Value(world->Alive(e));
      });
  interp->RegisterBuiltin(
      "has", [world](std::vector<Value>& args, Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 2, "has(e, \"Comp\")"));
        GAMEDB_ASSIGN_OR_RETURN(EntityId e, ArgEntity(args, 0, "has"));
        GAMEDB_ASSIGN_OR_RETURN(std::string comp, ArgString(args, 1, "has"));
        const TypeInfo* info = TypeRegistry::Global().FindByName(comp);
        if (info == nullptr) {
          return Status::NotFound("unknown component '" + comp + "'");
        }
        // Non-creating lookup: reads must not grow the store map (they run
        // concurrently during the scripted query phase).
        const ComponentStore* store = world->StoreByIdIfExists(info->id());
        return Value(store != nullptr && store->Contains(e));
      });
  interp->RegisterBuiltin(
      "add",
      [world, policy, deferred, shard](std::vector<Value>& args,
                                       Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 2, "add(e, \"Comp\")"));
        GAMEDB_ASSIGN_OR_RETURN(EntityId e, ArgEntity(args, 0, "add"));
        GAMEDB_ASSIGN_OR_RETURN(std::string comp, ArgString(args, 1, "add"));
        if (policy == MutationPolicy::kReject) {
          return ReadOnlyPhaseError("add()");
        }
        if (!world->Alive(e)) {
          return Status::InvalidArgument("entity is dead");
        }
        const TypeInfo* info = TypeRegistry::Global().FindByName(comp);
        if (info == nullptr) {
          return Status::NotFound("unknown component '" + comp + "'");
        }
        if (policy != MutationPolicy::kDirect) {
          // Structural — always deferred, under kDirectChecked too.
          deferred->Push(shard, DeferredOp{DeferredOp::Kind::kAdd, e,
                                           info->id(), nullptr, FieldValue()});
          return Value::Nil();
        }
        world->StoreById(info->id())->EmplaceDefault(e);
        return Value::Nil();
      });
  interp->RegisterBuiltin(
      "remove",
      [world, policy, deferred, shard](std::vector<Value>& args,
                                       Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 2, "remove(e, \"Comp\")"));
        GAMEDB_ASSIGN_OR_RETURN(EntityId e, ArgEntity(args, 0, "remove"));
        GAMEDB_ASSIGN_OR_RETURN(std::string comp, ArgString(args, 1, "remove"));
        if (policy == MutationPolicy::kReject) {
          return ReadOnlyPhaseError("remove()");
        }
        const TypeInfo* info = TypeRegistry::Global().FindByName(comp);
        if (info == nullptr) {
          return Status::NotFound("unknown component '" + comp + "'");
        }
        if (policy != MutationPolicy::kDirect) {
          deferred->Push(shard, DeferredOp{DeferredOp::Kind::kRemove, e,
                                           info->id(), nullptr, FieldValue()});
          // Deferred answer: was the component present at call time (the
          // tick-start state this read-only phase observes)?
          const ComponentStore* store = world->StoreByIdIfExists(info->id());
          return Value(store != nullptr && store->Contains(e));
        }
        ComponentStore* store = world->StoreById(info->id());
        return Value(store->Erase(e));
      });

  interp->RegisterBuiltin(
      "get", [world](std::vector<Value>& args, Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 3, "get(e, \"Comp\", \"field\")"));
        GAMEDB_ASSIGN_OR_RETURN(EntityId e, ArgEntity(args, 0, "get"));
        GAMEDB_ASSIGN_OR_RETURN(std::string comp, ArgString(args, 1, "get"));
        GAMEDB_ASSIGN_OR_RETURN(std::string field, ArgString(args, 2, "get"));
        const TypeInfo* info = nullptr;
        GAMEDB_ASSIGN_OR_RETURN(const FieldInfo* f,
                                ResolveField(comp, field, &info));
        // Non-creating lookup (see `has`): a missing table reads the same
        // as an entity without the component.
        const ComponentStore* store = world->StoreByIdIfExists(info->id());
        const void* c = store == nullptr ? nullptr : store->Find(e);
        if (c == nullptr) {
          return Status::NotFound("entity has no '" + comp + "'");
        }
        return FromFieldValue(f->Get(c));
      });
  interp->RegisterBuiltin(
      "set",
      [world, policy, deferred, shard, gate](std::vector<Value>& args,
                                             Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(
            ExpectArgs(args, 4, "set(e, \"Comp\", \"field\", v)"));
        GAMEDB_ASSIGN_OR_RETURN(EntityId e, ArgEntity(args, 0, "set"));
        GAMEDB_ASSIGN_OR_RETURN(std::string comp, ArgString(args, 1, "set"));
        GAMEDB_ASSIGN_OR_RETURN(std::string field, ArgString(args, 2, "set"));
        if (policy == MutationPolicy::kReject) {
          return ReadOnlyPhaseError("set()");
        }
        const TypeInfo* info = nullptr;
        GAMEDB_ASSIGN_OR_RETURN(const FieldInfo* f,
                                ResolveField(comp, field, &info));
        GAMEDB_ASSIGN_OR_RETURN(FieldValue fv, ToFieldValue(args[3]));
        if (policy != MutationPolicy::kDirect) {
          // Validate against tick-start state so the script fails at the
          // call site, then postpone the write to the apply phase.
          // Non-creating lookup: the store map must not grow on pool
          // threads (ScriptHost::PrewarmStores pre-created the tables).
          ComponentStore* store = world->StoreByIdIfExists(info->id());
          if (store == nullptr || !store->Contains(e)) {
            return Status::NotFound("entity has no '" + comp + "'");
          }
          if (!ConvertibleTo(f->type(), fv)) {
            return Status::InvalidArgument(
                "cannot store " + FieldValueToString(fv) + " in field '" +
                field + "' of '" + comp + "'");
          }
          if (policy == MutationPolicy::kDirectChecked && gate != nullptr &&
              gate->enabled) {
            if (e == gate->current[shard]) {
              // Proven-disjoint fast path: write the field in place now,
              // defer only a Touch so the apply phase reproduces kDefer's
              // change-log stream exactly. The raw Set (no Patch) avoids
              // bumping the table's shared version counter or appending to
              // its change log from a pool thread.
              void* c = store->Find(e);
              GAMEDB_RETURN_NOT_OK(f->Set(c, fv));
              deferred->Push(shard,
                             DeferredOp{DeferredOp::Kind::kTouch, e,
                                        info->id(), nullptr, FieldValue()});
              ++gate->direct_writes[shard];
              return Value::Nil();
            }
            // The analysis only admits self-writes, so a foreign target
            // here means it was wrong (or raced) — count it and fall back
            // to the safe deferred buffer rather than trust the summary.
            ++gate->redirected[shard];
          }
          deferred->Push(shard, DeferredOp{DeferredOp::Kind::kSet, e,
                                           info->id(), f, std::move(fv)});
          return Value::Nil();
        }
        ComponentStore* store = world->StoreById(info->id());
        // PatchRaw is a tracked update, keeping views, maintained
        // aggregates and delta replication consistent.
        Status set_status = Status::OK();
        bool found = store->PatchRaw(e, [&](void* c) {
          set_status = f->Set(c, fv);
        });
        if (!found) {
          return Status::NotFound("entity has no '" + comp + "'");
        }
        GAMEDB_RETURN_NOT_OK(set_status);
        return Value::Nil();
      });

  interp->RegisterBuiltin(
      "entities_with",
      [world, planner](std::vector<Value>& args,
                       Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 1, "entities_with(\"Comp\")"));
        GAMEDB_ASSIGN_OR_RETURN(std::string comp,
                                ArgString(args, 0, "entities_with"));
        DynamicQuery q(world);
        q.SetPlanner(planner).With(comp);
        GAMEDB_ASSIGN_OR_RETURN(std::vector<EntityId> ids, q.Collect());
        std::vector<Value> items;
        items.reserve(ids.size());
        for (EntityId e : ids) items.push_back(Value(e));
        return Value::NewList(std::move(items));
      });

  interp->RegisterBuiltin(
      "count",
      [world, planner](std::vector<Value>& args,
                       Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 1, "count(\"Comp\")"));
        GAMEDB_ASSIGN_OR_RETURN(std::string comp, ArgString(args, 0, "count"));
        DynamicQuery q(world);
        q.SetPlanner(planner).With(comp);
        GAMEDB_ASSIGN_OR_RETURN(int64_t n, q.Count());
        return Value(static_cast<double>(n));
      });

  auto aggregate = [world, interp, planner](const char* name, int which) {
    interp->RegisterBuiltin(
        name,
        [world, which, name, planner](std::vector<Value>& args,
                                      Interpreter&) -> Result<Value> {
          std::string sig = std::string(name) + "(\"Comp\", \"field\")";
          GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 2, sig.c_str()));
          GAMEDB_ASSIGN_OR_RETURN(std::string comp,
                                  ArgString(args, 0, sig.c_str()));
          GAMEDB_ASSIGN_OR_RETURN(std::string field,
                                  ArgString(args, 1, sig.c_str()));
          DynamicQuery q(world);
          q.SetPlanner(planner);
          Result<double> r =
              which == 0   ? q.Sum(comp, field)
              : which == 1 ? q.Min(comp, field)
              : which == 2 ? q.Max(comp, field)
                           : q.Avg(comp, field);
          if (!r.ok()) {
            if (r.status().IsNotFound() && which != 0) {
              return Value::Nil();  // min/max/avg over empty table -> nil
            }
            return r.status();
          }
          return Value(*r);
        });
  };
  aggregate("sum", 0);
  aggregate("smin", 1);
  aggregate("smax", 2);
  aggregate("avg", 3);

  auto arg_extreme = [world, interp, planner](const char* name, bool is_min) {
    interp->RegisterBuiltin(
        name,
        [world, is_min, name, planner](std::vector<Value>& args,
                                       Interpreter&) -> Result<Value> {
          std::string sig = std::string(name) + "(\"Comp\", \"field\")";
          GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 2, sig.c_str()));
          GAMEDB_ASSIGN_OR_RETURN(std::string comp,
                                  ArgString(args, 0, sig.c_str()));
          GAMEDB_ASSIGN_OR_RETURN(std::string field,
                                  ArgString(args, 1, sig.c_str()));
          DynamicQuery q(world);
          q.SetPlanner(planner);
          Result<EntityId> r =
              is_min ? q.ArgMin(comp, field) : q.ArgMax(comp, field);
          if (!r.ok()) {
            if (r.status().IsNotFound()) return Value::Nil();
            return r.status();
          }
          return Value(*r);
        });
  };
  arg_extreme("argmin", true);
  arg_extreme("argmax", false);

  interp->RegisterBuiltin(
      "where",
      [world, planner](std::vector<Value>& args,
                       Interpreter&) -> Result<Value> {
        const char* sig = "where(\"Comp\", \"field\", \"op\", v)";
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 4, sig));
        GAMEDB_ASSIGN_OR_RETURN(std::string comp, ArgString(args, 0, sig));
        GAMEDB_ASSIGN_OR_RETURN(std::string field, ArgString(args, 1, sig));
        GAMEDB_ASSIGN_OR_RETURN(std::string op_str, ArgString(args, 2, sig));
        GAMEDB_ASSIGN_OR_RETURN(CmpOp op, ParseCmpOp(op_str));
        GAMEDB_ASSIGN_OR_RETURN(FieldValue rhs, ToFieldValue(args[3]));
        DynamicQuery q(world);
        q.SetPlanner(planner).WhereField(comp, field, op, std::move(rhs));
        GAMEDB_ASSIGN_OR_RETURN(std::vector<EntityId> ids, q.Collect());
        std::vector<Value> items;
        items.reserve(ids.size());
        for (EntityId e : ids) items.push_back(Value(e));
        return Value::NewList(std::move(items));
      });

  interp->RegisterBuiltin(
      "within",
      [world, planner](std::vector<Value>& args,
                       Interpreter&) -> Result<Value> {
        const char* sig = "within(center, radius)";
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 2, sig));
        GAMEDB_ASSIGN_OR_RETURN(Vec3 center, ArgVec3(args, 0, sig));
        GAMEDB_ASSIGN_OR_RETURN(double radius, ArgNumber(args, 1, sig));
        DynamicQuery q(world);
        q.SetPlanner(planner).WithinRadius("Position", "value", center,
                                           static_cast<float>(radius));
        GAMEDB_ASSIGN_OR_RETURN(std::vector<EntityId> ids, q.Collect());
        std::vector<Value> items;
        items.reserve(ids.size());
        for (EntityId e : ids) items.push_back(Value(e));
        return Value::NewList(std::move(items));
      });

  interp->RegisterBuiltin(
      "emit",
      [effects, shard](std::vector<Value>& args,
                       Interpreter&) -> Result<Value> {
        const char* sig = "emit(\"channel\", target, amount)";
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 3, sig));
        if (effects == nullptr) {
          return Status::NotSupported("this host has no effect channels");
        }
        GAMEDB_ASSIGN_OR_RETURN(std::string channel, ArgString(args, 0, sig));
        GAMEDB_ASSIGN_OR_RETURN(EntityId target, ArgEntity(args, 1, sig));
        GAMEDB_ASSIGN_OR_RETURN(double amount, ArgNumber(args, 2, sig));
        effects->Channel(channel).Contribute(shard, target, amount);
        return Value::Nil();
      });

  interp->RegisterBuiltin(
      "tick", [world](std::vector<Value>& args, Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 0, "tick()"));
        return Value(static_cast<double>(world->tick()));
      });
}

void BindWorld(Interpreter* interp, World* world, ScriptEffects* effects,
               size_t shard) {
  WorldBindOptions options;
  options.shard = shard;
  BindWorld(interp, world, effects, options);
}

namespace {

Result<const views::LiveView*> FindView(views::ViewCatalog* catalog,
                                        const std::string& name,
                                        const char* builtin) {
  const views::LiveView* view = catalog->Find(name);
  if (view == nullptr) {
    return Status::NotFound(std::string(builtin) + ": no view named '" +
                            name + "'");
  }
  return view;
}

}  // namespace

void BindViews(Interpreter* interp, views::ViewCatalog* catalog) {
  interp->RegisterBuiltin(
      "view_count",
      [catalog](std::vector<Value>& args, Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 1, "view_count(\"name\")"));
        GAMEDB_ASSIGN_OR_RETURN(std::string name,
                                ArgString(args, 0, "view_count"));
        GAMEDB_ASSIGN_OR_RETURN(const views::LiveView* view,
                                FindView(catalog, name, "view_count"));
        return Value(static_cast<double>(view->size()));
      });

  interp->RegisterBuiltin(
      "view_contains",
      [catalog](std::vector<Value>& args, Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(
            ExpectArgs(args, 2, "view_contains(\"name\", e)"));
        GAMEDB_ASSIGN_OR_RETURN(std::string name,
                                ArgString(args, 0, "view_contains"));
        GAMEDB_ASSIGN_OR_RETURN(EntityId e,
                                ArgEntity(args, 1, "view_contains"));
        GAMEDB_ASSIGN_OR_RETURN(const views::LiveView* view,
                                FindView(catalog, name, "view_contains"));
        return Value(view->Contains(e));
      });

  interp->RegisterBuiltin(
      "view_members",
      [catalog](std::vector<Value>& args, Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(ExpectArgs(args, 1, "view_members(\"name\")"));
        GAMEDB_ASSIGN_OR_RETURN(std::string name,
                                ArgString(args, 0, "view_members"));
        GAMEDB_ASSIGN_OR_RETURN(const views::LiveView* view,
                                FindView(catalog, name, "view_members"));
        const std::vector<EntityId>& members = view->Members();
        std::vector<Value> items;
        items.reserve(members.size());
        for (EntityId e : members) items.push_back(Value(e));
        return Value::NewList(std::move(items));
      });

  interp->RegisterBuiltin(
      "view_aggregate",
      [catalog](std::vector<Value>& args, Interpreter&) -> Result<Value> {
        GAMEDB_RETURN_NOT_OK(
            ExpectArgs(args, 1, "view_aggregate(\"name\")"));
        GAMEDB_ASSIGN_OR_RETURN(std::string name,
                                ArgString(args, 0, "view_aggregate"));
        GAMEDB_ASSIGN_OR_RETURN(const views::LiveView* view,
                                FindView(catalog, name, "view_aggregate"));
        GAMEDB_ASSIGN_OR_RETURN(double v, view->Aggregate());
        return Value(v);
      });
}

}  // namespace gamedb::script
