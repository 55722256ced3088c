#pragma once

/// \file change_log.h
/// The change log of a component table: one append-only record per tracked
/// mutation, read by any number of consumers through their own cursors —
/// the one delta layer that incremental view maintenance (views/), delta
/// replication (replication/) and maintained aggregates (core/aggregate.h)
/// consume (docs/ARCHITECTURE.md "Live views").
///
/// A table appends a record only while at least one cursor is open, and
/// every cursor advance or close drops the records the slowest open cursor
/// has already read, so the log holds exactly what some reader has yet to
/// see. Records are keyed by the full 64-bit entity id, never by dense row
/// position (Erase swaps the last row into the hole).
///
/// ChangeLog::Read coalesces the records after a cursor into *net* changes
/// relative to the cursor's position:
///   - a row added and removed within the window cancels out entirely;
///   - a row present at window start that was updated (any number of times)
///     and finally removed reports only `removed`;
///   - a row removed and re-added reports `updated` (its value may differ);
///   - destroy-then-recreate of an entity slot reports `removed` for the
///     old generation and `added` for the new one (slot reuse cannot alias).
/// Consumers that re-evaluate every reported entity against current table
/// state therefore converge regardless of the intra-window mutation order.
///
/// The paper connection: this is the change-capture half of materialized
/// view maintenance — the "declarative processing" follow-up's argument
/// that per-tick cost should scale with change volume, not world size, and
/// its assumption that every consumer sees every net delta.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/entity.h"

namespace gamedb {

/// Kind of a tracked mutation (one change-log record).
enum class ChangeKind : uint8_t { kAdd, kUpdate, kRemove };

/// Net changes of one component table over one cursor window.
///
/// `added`: rows that exist now but did not at window start.
/// `removed`: rows that existed at window start but are gone now.
/// `updated`: rows that existed throughout but whose value was written.
/// Each vector lists entities in first-mutation order (deterministic for a
/// deterministic mutation sequence); an entity appears in at most one list.
struct ChangeSet {
  std::vector<EntityId> added;
  std::vector<EntityId> removed;
  std::vector<EntityId> updated;

  bool Empty() const {
    return added.empty() && removed.empty() && updated.empty();
  }
  size_t TotalChanges() const {
    return added.size() + removed.size() + updated.size();
  }
  void Clear() {
    added.clear();
    removed.clear();
    updated.clear();
  }
};

/// Append-only change log of one table, read through per-consumer cursors.
/// Not thread-safe; tables are mutated and read from sequential code.
class ChangeLog {
 public:
  /// One reader's handle; valid from Open until Close.
  using Cursor = uint32_t;

  /// Opens a cursor at the end of the log: its reader sees every tracked
  /// mutation from now on.
  Cursor Open();
  /// Ends the cursor and drops the records no open cursor still needs.
  void Close(Cursor cursor);

  /// Records one tracked mutation; a no-op while no cursor is open.
  void Append(ChangeKind kind, EntityId e) {
    if (!cursors_.empty()) records_.push_back(Record{e, kind});
  }

  /// Coalesces the records after `cursor` into net changes (see the file
  /// comment), then advances the cursor to the end. `out` is Clear()ed
  /// first.
  void Read(Cursor cursor, ChangeSet* out);

  /// Calls fn(EntityId, ChangeKind) for each raw record after `cursor`, in
  /// log order, then advances the cursor to the end. No coalescing and no
  /// allocation: for consumers that re-evaluate each named row against
  /// current table state and so may see one row several times.
  template <typename Fn>
  void ForEachRecord(Cursor cursor, Fn&& fn) {
    for (size_t i = cursors_[cursor] - base_; i < records_.size(); ++i) {
      fn(records_[i].entity, records_[i].kind);
    }
    Advance(cursor);
  }

  /// Records held: those after the slowest open cursor.
  size_t size() const { return records_.size(); }

 private:
  struct Record {
    EntityId entity;
    ChangeKind kind;
  };

  /// Net state per entity over a window, keyed by the full 64-bit id so
  /// destroy-then-recreate of a slot yields two distinct entries.
  struct NetState {
    bool existed_at_start = false;
    bool present = false;
    bool updated = false;
  };

  static constexpr uint64_t kClosed = UINT64_MAX;

  /// Moves `cursor` to the end of the log, then drops what every open
  /// cursor has read. Inline, with the one-reader case first: a maintained
  /// aggregate advances its cursor on every read.
  void Advance(Cursor cursor) {
    if (cursors_.size() == 1) {  // the only reader has read everything
      base_ += records_.size();
      cursors_[cursor] = base_;
      records_.clear();
      return;
    }
    cursors_[cursor] = base_ + records_.size();
    DropRead();
  }
  void DropRead() {
    uint64_t slowest = base_ + records_.size();
    for (uint64_t pos : cursors_) slowest = std::min(slowest, pos);
    records_.erase(records_.begin(),
                   records_.begin() + static_cast<ptrdiff_t>(slowest - base_));
    base_ = slowest;
  }

  /// records_[i] has sequence number base_ + i.
  std::vector<Record> records_;
  uint64_t base_ = 0;
  /// Sequence number each cursor reads next (kClosed: free slot); the
  /// last slot is always open.
  std::vector<uint64_t> cursors_;
  /// Read's coalescing scratch, reused across reads (the path whose cost
  /// must stay O(change volume), not O(allocations)).
  std::unordered_map<uint64_t, NetState> net_;
  std::vector<EntityId> order_;
};

}  // namespace gamedb
