#pragma once

/// \file sparse_set.h
/// Sparse-set component tables: the physical storage layer of the game state
/// database. Dense, cache-friendly iteration (the "EnTT-style" layout) with
/// O(1) add/remove/lookup, and a change log read through per-consumer
/// cursors (core/change_log.h) — the only record of which rows changed, and
/// the one way views, replication and maintained aggregates learn of a write.

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/macros.h"
#include "core/change_log.h"
#include "core/entity.h"

namespace gamedb {

/// Type-erased interface over SparseSet<T>, used by reflection-driven code
/// (serialization, scripts, prefabs) that does not know T statically.
class ComponentStore {
 public:
  virtual ~ComponentStore() = default;

  /// Number of rows (entities) in the table.
  virtual size_t Size() const = 0;
  /// True if `e` has a row.
  virtual bool Contains(EntityId e) const = 0;
  /// Removes `e`'s row if present; returns whether a row was removed.
  virtual bool Erase(EntityId e) = 0;
  /// Entity at dense position `i` (i < Size()).
  virtual EntityId EntityAt(size_t i) const = 0;
  /// Dense position of `e`'s row, or npos when absent. The inverse of
  /// EntityAt; planned query execution uses it to restore the table's scan
  /// order after an index delivered matches in index order.
  static constexpr size_t kNoDenseIndex = std::numeric_limits<size_t>::max();
  virtual size_t DenseIndexOf(EntityId e) const = 0;
  /// Raw pointer to the component at dense position `i`.
  virtual void* ValueAt(size_t i) = 0;
  virtual const void* ValueAt(size_t i) const = 0;
  /// Raw pointer to `e`'s component, or nullptr.
  virtual void* Find(EntityId e) = 0;
  virtual const void* Find(EntityId e) const = 0;
  /// Inserts a default-constructed component for `e` (no-op if present) and
  /// returns a pointer to it.
  virtual void* EmplaceDefault(EntityId e) = 0;
  /// Removes all rows.
  virtual void Clear() = 0;
  /// Monotonic table version; bumped on every add/update/remove.
  virtual uint64_t last_version() const = 0;
  /// Marks `e` updated (bumps the table version, appends a change record):
  /// publishes earlier untracked writes to every change-log consumer.
  virtual void Touch(EntityId e) = 0;
  /// Type-erased in-place mutation: runs `mutate` on the component storage
  /// as a tracked update. Returns false when `e` has no row. This is the
  /// reflection-layer analogue of Patch.
  virtual bool PatchRaw(EntityId e,
                        const std::function<void(void*)>& mutate) = 0;
  /// The table's change log. Set/Patch/PatchRaw/Touch/Erase append one
  /// record each while a cursor is open; writes that bypass tracking
  /// (GetMutableUntracked without Touch) are invisible here. Views,
  /// replication and maintained aggregates read it through their own
  /// cursors.
  ChangeLog& changes() { return changes_; }

 private:
  ChangeLog changes_;
};

/// Dense table of components of type T keyed by entity.
///
/// Layout: `dense_entities_[i]` and `dense_values_[i]` are parallel arrays;
/// `sparse_[entity.index]` maps to the dense position. Removal swaps with the
/// last row, so iteration order is unspecified but iteration is contiguous.
template <typename T>
class SparseSet final : public ComponentStore {
 public:
  SparseSet() = default;
  GAMEDB_DISALLOW_COPY(SparseSet);

  /// Inserts or overwrites the component for `e`; returns a reference to the
  /// stored value. Counts as kAdd when new, kUpdate when overwriting.
  T& Set(EntityId e, T value) {
    GAMEDB_DCHECK(e.valid());
    uint32_t pos = SparsePos(e);
    if (pos != kNpos && dense_entities_[pos] == e) {
      dense_values_[pos] = std::move(value);
      ++version_;
      changes().Append(ChangeKind::kUpdate, e);
      return dense_values_[pos];
    }
    EnsureSparse(e.index);
    sparse_[e.index] = static_cast<uint32_t>(dense_entities_.size());
    dense_entities_.push_back(e);
    dense_values_.push_back(std::move(value));
    ++version_;
    changes().Append(ChangeKind::kAdd, e);
    return dense_values_.back();
  }

  /// Returns the component for `e`, or nullptr. Read-only: use Patch for
  /// writes that must be observed.
  const T* Get(EntityId e) const {
    uint32_t pos = SparsePos(e);
    if (pos == kNpos || !(dense_entities_[pos] == e)) return nullptr;
    return &dense_values_[pos];
  }

  /// Tracked in-place mutation: the callback edits the component, then the
  /// table version is bumped and a change record appended.
  template <typename Fn>
  bool Patch(EntityId e, Fn&& fn) {
    uint32_t pos = SparsePos(e);
    if (pos == kNpos || !(dense_entities_[pos] == e)) return false;
    fn(dense_values_[pos]);
    ++version_;
    changes().Append(ChangeKind::kUpdate, e);
    return true;
  }

  /// Mutable pointer WITHOUT version bump or change record. Intended for
  /// hot loops that finish with an explicit Touch(e), or for state no
  /// change-log consumer reads.
  T* GetMutableUntracked(EntityId e) {
    uint32_t pos = SparsePos(e);
    if (pos == kNpos || !(dense_entities_[pos] == e)) return nullptr;
    return &dense_values_[pos];
  }

  bool Contains(EntityId e) const override {
    uint32_t pos = SparsePos(e);
    return pos != kNpos && dense_entities_[pos] == e;
  }

  bool Erase(EntityId e) override {
    uint32_t pos = SparsePos(e);
    if (pos == kNpos || !(dense_entities_[pos] == e)) return false;
    uint32_t last = static_cast<uint32_t>(dense_entities_.size() - 1);
    if (pos != last) {
      dense_entities_[pos] = dense_entities_[last];
      dense_values_[pos] = std::move(dense_values_[last]);
      sparse_[dense_entities_[pos].index] = pos;
    }
    dense_entities_.pop_back();
    dense_values_.pop_back();
    sparse_[e.index] = kNpos;
    ++version_;
    changes().Append(ChangeKind::kRemove, e);
    return true;
  }

  size_t Size() const override { return dense_entities_.size(); }
  EntityId EntityAt(size_t i) const override { return dense_entities_[i]; }
  size_t DenseIndexOf(EntityId e) const override {
    uint32_t pos = SparsePos(e);
    if (pos == kNpos || !(dense_entities_[pos] == e)) return kNoDenseIndex;
    return pos;
  }
  void* ValueAt(size_t i) override { return &dense_values_[i]; }
  const void* ValueAt(size_t i) const override { return &dense_values_[i]; }
  void* Find(EntityId e) override {
    return const_cast<T*>(Get(e));
  }
  const void* Find(EntityId e) const override { return Get(e); }
  void* EmplaceDefault(EntityId e) override {
    if (const T* existing = Get(e)) return const_cast<T*>(existing);
    return &Set(e, T{});
  }

  void Clear() override {
    // One removal record per row, so change-log consumers stay consistent.
    while (!dense_entities_.empty()) {
      Erase(dense_entities_.back());
    }
  }

  uint64_t last_version() const override { return version_; }

  void Touch(EntityId e) override {
    uint32_t pos = SparsePos(e);
    if (pos == kNpos || !(dense_entities_[pos] == e)) return;
    ++version_;
    changes().Append(ChangeKind::kUpdate, e);
  }

  bool PatchRaw(EntityId e,
                const std::function<void(void*)>& mutate) override {
    return Patch(e, [&](T& value) { mutate(&value); });
  }

  /// Iterates all rows: fn(EntityId, T&).
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (size_t i = 0; i < dense_entities_.size(); ++i) {
      fn(dense_entities_[i], dense_values_[i]);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < dense_entities_.size(); ++i) {
      fn(dense_entities_[i], dense_values_[i]);
    }
  }

  /// Direct access to the dense arrays (hot loops, benchmarks).
  const std::vector<EntityId>& entities() const { return dense_entities_; }
  std::vector<T>& values() { return dense_values_; }
  const std::vector<T>& values() const { return dense_values_; }

 private:
  static constexpr uint32_t kNpos = std::numeric_limits<uint32_t>::max();

  uint32_t SparsePos(EntityId e) const {
    if (e.index >= sparse_.size()) return kNpos;
    return sparse_[e.index];
  }

  void EnsureSparse(uint32_t index) {
    if (index >= sparse_.size()) sparse_.resize(index + 1, kNpos);
  }

  std::vector<uint32_t> sparse_;
  std::vector<EntityId> dense_entities_;
  std::vector<T> dense_values_;
  uint64_t version_ = 0;
};

}  // namespace gamedb
