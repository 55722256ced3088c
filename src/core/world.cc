#include "core/world.h"

namespace gamedb {

EntityId World::Create() {
  uint32_t index;
  if (!free_list_.empty()) {
    index = free_list_.back();
    free_list_.pop_back();
  } else {
    index = static_cast<uint32_t>(generations_.size());
    generations_.push_back(0);
    alive_.push_back(false);
  }
  alive_[index] = true;
  ++alive_count_;
  return EntityId(index, generations_[index]);
}

Status World::CreateWithId(EntityId id) {
  if (!id.valid()) return Status::InvalidArgument("invalid entity id");
  if (id.index >= generations_.size()) {
    // Grow; intermediate slots become dead entries available via free list.
    size_t old_size = generations_.size();
    generations_.resize(id.index + 1, 0);
    alive_.resize(id.index + 1, false);
    for (size_t i = old_size; i < id.index; ++i) {
      free_list_.push_back(static_cast<uint32_t>(i));
    }
  }
  if (alive_[id.index]) {
    return Status::InvalidArgument("slot already alive: " + id.ToString());
  }
  // Remove from free list if present (linear; recovery-path only).
  for (size_t i = 0; i < free_list_.size(); ++i) {
    if (free_list_[i] == id.index) {
      free_list_[i] = free_list_.back();
      free_list_.pop_back();
      break;
    }
  }
  generations_[id.index] = id.generation;
  alive_[id.index] = true;
  ++alive_count_;
  return Status::OK();
}

void World::Destroy(EntityId e) {
  if (!Alive(e)) return;
  for (auto& store : stores_) {
    if (store != nullptr) store->Erase(e);
  }
  alive_[e.index] = false;
  ++generations_[e.index];
  free_list_.push_back(e.index);
  --alive_count_;
}

void World::ForEachEntity(const std::function<void(EntityId)>& fn) const {
  for (uint32_t i = 0; i < generations_.size(); ++i) {
    if (alive_[i]) fn(EntityId(i, generations_[i]));
  }
}

ComponentStore* World::StoreByName(std::string_view name) {
  const TypeInfo* info = TypeRegistry::Global().FindByName(name);
  if (info == nullptr) return nullptr;
  return StoreById(info->id());
}

ComponentStore* World::StoreById(uint32_t type_id) {
  const TypeInfo* info = TypeRegistry::Global().Find(type_id);
  if (info == nullptr) return nullptr;
  if (type_id >= stores_.size()) stores_.resize(type_id + 1);
  std::unique_ptr<ComponentStore>& slot = stores_[type_id];
  if (slot == nullptr) slot = info->MakeStore();
  return slot.get();
}

void World::ForEachStore(
    const std::function<void(const TypeInfo&, ComponentStore&)>& fn) {
  for (uint32_t id = 0; id < stores_.size(); ++id) {
    if (stores_[id] == nullptr) continue;
    fn(*TypeRegistry::Global().Find(id), *stores_[id]);
  }
}

void World::ForEachStore(
    const std::function<void(const TypeInfo&, const ComponentStore&)>& fn)
    const {
  for (uint32_t id = 0; id < stores_.size(); ++id) {
    if (stores_[id] == nullptr) continue;
    fn(*TypeRegistry::Global().Find(id), *stores_[id]);
  }
}

void World::Clear() {
  for (auto& store : stores_) {
    if (store != nullptr) store->Clear();
  }
  for (uint32_t i = 0; i < generations_.size(); ++i) {
    if (alive_[i]) {
      alive_[i] = false;
      ++generations_[i];
      free_list_.push_back(i);
    }
  }
  alive_count_ = 0;
  tick_ = 0;
}

}  // namespace gamedb
