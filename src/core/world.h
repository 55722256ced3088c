#pragma once

/// \file world.h
/// The World is gamedb's in-memory game state database: an entity allocator
/// plus one sparse-set table per component type, with a simulation tick
/// counter. All higher layers (queries, scripts, transactions, replication,
/// persistence) operate on a World.
///
/// Paper: the tutorial's framing of a game as a giant data-driven
/// simulation — the entity/component tables are the "game state database"
/// every section of the paper takes as its substrate. Module map and tick
/// walk-through: docs/ARCHITECTURE.md.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "core/entity.h"
#include "core/reflect.h"
#include "core/sparse_set.h"

namespace gamedb {

/// Entity + component database. Not thread-safe for concurrent mutation; the
/// state-effect executor and the transaction managers provide the safe
/// concurrency disciplines on top (see docs/ARCHITECTURE.md
/// "Concurrency disciplines").
///
/// Tables live in a vector indexed by TypeRegistry id, so a table lookup is
/// a bounds check and a load. Creating a table may grow that vector: no
/// table may be created while other threads read the World (the scripted
/// query phase creates every registered table first —
/// ScriptHost::PrewarmStores). Store objects never move once created.
class World {
 public:
  World() = default;
  GAMEDB_DISALLOW_COPY(World);

  // --- Entities --------------------------------------------------------

  /// Allocates a new live entity.
  EntityId Create();

  /// Recreates an entity with an exact id (snapshot recovery). Fails with
  /// InvalidArgument if the slot is currently alive with a different
  /// generation or the id is invalid.
  Status CreateWithId(EntityId id);

  /// Destroys `e` and removes all of its components. No-op on dead ids.
  void Destroy(EntityId e);

  /// True when `e` refers to a live entity (index and generation match).
  bool Alive(EntityId e) const {
    return e.valid() && e.index < generations_.size() &&
           generations_[e.index] == e.generation && alive_[e.index];
  }

  /// The live entity currently occupying `slot`, or Invalid when the slot
  /// is dead or out of range. Lets replication reconcile id reuse: a
  /// replica holding a stale generation of a slot can identify and destroy
  /// it before recreating the slot's current occupant.
  EntityId LiveAt(uint32_t slot) const {
    if (slot < generations_.size() && alive_[slot]) {
      return EntityId(slot, generations_[slot]);
    }
    return EntityId::Invalid();
  }

  /// Number of live entities.
  size_t AliveCount() const { return alive_count_; }

  /// Iterates all live entities.
  void ForEachEntity(const std::function<void(EntityId)>& fn) const;

  // --- Components (static typing) ---------------------------------------

  /// Sets (inserts or overwrites) component T on `e`.
  template <typename T>
  T& Set(EntityId e, T value) {
    GAMEDB_DCHECK(Alive(e));
    return Table<T>().Set(e, std::move(value));
  }

  /// Read-only component access; nullptr when absent.
  template <typename T>
  const T* Get(EntityId e) const {
    const SparseSet<T>* t = TableIfExists<T>();
    return t ? t->Get(e) : nullptr;
  }

  /// Tracked in-place mutation: bumps the table version, appends a change
  /// record.
  template <typename T, typename Fn>
  bool Patch(EntityId e, Fn&& fn) {
    return Table<T>().Patch(e, std::forward<Fn>(fn));
  }

  /// Untracked mutable pointer (see SparseSet::GetMutableUntracked).
  template <typename T>
  T* GetMutableUntracked(EntityId e) {
    SparseSet<T>* t = TableIfExistsMutable<T>();
    return t ? t->GetMutableUntracked(e) : nullptr;
  }

  template <typename T>
  bool Has(EntityId e) const {
    const SparseSet<T>* t = TableIfExists<T>();
    return t && t->Contains(e);
  }

  /// Removes component T from `e`; returns whether it was present.
  template <typename T>
  bool Remove(EntityId e) {
    SparseSet<T>* t = TableIfExistsMutable<T>();
    return t && t->Erase(e);
  }

  /// The table for T, created on first use. T must be registered in the
  /// global TypeRegistry (RegisterStandardComponents or a game-specific
  /// registration) before any reflective access, but purely static use works
  /// for registered types too.
  template <typename T>
  SparseSet<T>& Table() {
    uint32_t id = TypeRegistry::IdOf<T>();
    GAMEDB_CHECK(id != 0xFFFFFFFFu);  // register the component type first
    ComponentStore* store = StoreByIdIfExists(id);
    if (store == nullptr) store = StoreById(id);
    return *static_cast<SparseSet<T>*>(store);
  }

  template <typename T>
  const SparseSet<T>* TableIfExists() const {
    return static_cast<const SparseSet<T>*>(
        StoreByIdIfExists(TypeRegistry::IdOf<T>()));
  }

  // --- Components (reflective access) -----------------------------------

  /// Store for the component type named `name`, creating it if the type is
  /// registered; nullptr when the name is unknown.
  ComponentStore* StoreByName(std::string_view name);

  /// Store by registry id, creating it when registered; nullptr otherwise.
  ComponentStore* StoreById(uint32_t type_id);

  /// Store by id without creating; nullptr when the world has no such table.
  const ComponentStore* StoreByIdIfExists(uint32_t type_id) const {
    return type_id < stores_.size() ? stores_[type_id].get() : nullptr;
  }
  ComponentStore* StoreByIdIfExists(uint32_t type_id) {
    return type_id < stores_.size() ? stores_[type_id].get() : nullptr;
  }

  /// Iterates every existing table with its type metadata, in type-id
  /// order.
  void ForEachStore(
      const std::function<void(const TypeInfo&, ComponentStore&)>& fn);
  void ForEachStore(
      const std::function<void(const TypeInfo&, const ComponentStore&)>& fn)
      const;

  // --- Simulation clock ---------------------------------------------------

  /// Current simulation tick (starts at 0).
  uint64_t tick() const { return tick_; }
  /// Advances the simulation clock by one tick.
  void AdvanceTick() { ++tick_; }
  /// Sets the tick (recovery).
  void SetTick(uint64_t t) { tick_ = t; }

  /// Removes all entities and components (tables stay registered).
  void Clear();

 private:
  template <typename T>
  SparseSet<T>* TableIfExistsMutable() {
    return static_cast<SparseSet<T>*>(
        StoreByIdIfExists(TypeRegistry::IdOf<T>()));
  }

  std::vector<uint32_t> generations_;
  std::vector<bool> alive_;
  std::vector<uint32_t> free_list_;
  size_t alive_count_ = 0;
  uint64_t tick_ = 0;
  /// Indexed by TypeRegistry id; nullptr where the table does not exist.
  std::vector<std::unique_ptr<ComponentStore>> stores_;
};

}  // namespace gamedb
