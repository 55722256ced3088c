#pragma once

/// \file sync.h
/// Server -> client state synchronization, exercising the consistency
/// spectrum of the tutorial: strict full-state sync, delta sync, interest-
/// managed sync (only what the player can see), and weaker periodic
/// ("eventual") sync where "animation or other uncontested activity may be
/// out of sync between computers but the persistent game state is the
/// same". E7 measures bytes against divergence for each.
///
/// Paper: the distributed-games / weak-consistency part of the consistency
/// section (what may diverge between machines vs what must not), plus the
/// aggro-management material in aggro.h / E11.
///
/// Scope: component values replicate, and so does destruction, as row
/// removals. SendDelta reads each table's change log through the client's
/// own cursor, the only record of what changed since its last sync: it
/// sends each in-interest row the log names as written or the replica's
/// table lacks, then erases each row the log names as removed, if the
/// replica holds it (a row re-added since is sent, not erased). The
/// replica world is the one record of what a client holds: kInterest tests
/// each row's Position against the radius at every sync and destroys each
/// replica entity no longer in interest (a destroyed entity never is).
/// Nothing about interest persists between syncs, so a client costs the
/// same whether or not its avatar moves.

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/world.h"
#include "telemetry/sink.h"

namespace gamedb::views {
class ViewCatalog;
}  // namespace gamedb::views

namespace gamedb::replication {

/// How a client is kept in sync.
enum class SyncStrategy : uint8_t {
  /// Whole-world snapshot every tick (strict, maximal bandwidth).
  kFullSnapshot,
  /// Per-table deltas every tick (strict, pay-for-what-changed).
  kDelta,
  /// Deltas restricted to an area of interest around the client avatar:
  /// the avatar, and each live entity whose Position is within the radius
  /// of the avatar's (d² <= r²; a NaN coordinate is inside no radius).
  /// Entities entering interest send full rows, leaving entities are
  /// dropped from the replica.
  kInterest,
  /// Deltas only every `period_ticks` — weak consistency; divergence grows
  /// between rounds and collapses on sync.
  kEventual,
  /// Old name of kInterest, kept only because shardbench still sets it.
  kInterestView = kInterest,
};

const char* SyncStrategyName(SyncStrategy s);

/// Options for SyncServer.
struct SyncOptions {
  SyncStrategy strategy = SyncStrategy::kDelta;
  /// kInterest: radius around the avatar that replicates.
  float interest_radius = 50.0f;
  /// kEventual: ticks between syncs.
  uint32_t period_ticks = 10;
  /// Never read; kept only because shardbench still sets it.
  views::ViewCatalog* view_catalog = nullptr;
  /// Optional telemetry hook: SyncAll folds per-round byte/row/removal
  /// totals into the `sync.*` registry counters. Non-owning; must outlive
  /// the server.
  telemetry::TelemetrySink telemetry{};
};

/// One connected client: a replica world plus sync bookkeeping.
class ClientReplica {
 public:
  explicit ClientReplica(EntityId avatar) : avatar_(avatar) {}

  World& world() { return world_; }
  const World& world() const { return world_; }
  EntityId avatar() const { return avatar_; }

 private:
  friend class SyncServer;
  /// What the client holds. Its tick is the server tick of the last sync;
  /// under kInterest it holds no entity that was out of interest at that
  /// sync.
  World world_;
  EntityId avatar_;
  /// Per component table (by type id), from the first SendDelta that met
  /// it: the client's change-log cursor, the one record of what changed
  /// since its last sync. Empty until the client's first delta sync.
  std::unordered_map<uint32_t, ChangeLog::Cursor> tables_;
  /// False after RemoveClient: SyncAll skips the slot.
  bool connected_ = true;
};

/// Per-sync metrics.
struct SyncStats {
  uint64_t bytes_sent = 0;
  uint64_t rows_sent = 0;
  uint64_t removals_sent = 0;
};

/// Drives replication for any number of clients against one server world.
class SyncServer {
 public:
  SyncServer(World* server_world, SyncOptions options);
  /// Removes every client (RemoveClient), so a torn-down server holds no
  /// change-log records. The server world must still be alive.
  ~SyncServer();

  /// Registers a client whose avatar is `avatar`; returns its index.
  size_t AddClient(EntityId avatar);

  /// Disconnects client `i`: its change-log cursors are closed
  /// immediately — a logged-out client must stop costing log space — and
  /// SyncAll skips it from now on. The replica world and index stay valid
  /// (indices of other clients are stable); reconnecting is a fresh
  /// AddClient. No-op when already disconnected.
  void RemoveClient(size_t i);

  ClientReplica& client(size_t i) { return *clients_[i]; }
  size_t client_count() const { return clients_.size(); }
  /// Clients still being synced (AddClient minus RemoveClient).
  size_t connected_count() const { return connected_count_; }

  /// Synchronizes every client for the server's current tick. Appends the
  /// per-client byte cost into `stats` (sized to client count).
  Status SyncAll(std::vector<SyncStats>* stats);

 private:
  Status SyncOne(ClientReplica* client, SyncStats* stats);
  Status SendFullSnapshot(ClientReplica* client, SyncStats* stats);
  Status SendDelta(ClientReplica* client, bool interest_filtered,
                   SyncStats* stats);

  World* server_;
  SyncOptions options_;
  /// SendDelta's per-table scratch, reused across tables and clients: the
  /// dense positions the log names as written, and the ids it names as
  /// removed.
  std::vector<bool> written_;
  std::vector<EntityId> removed_;
  /// Cached registry instruments (nullptr without a metrics sink).
  telemetry::Counter* m_rounds_ = nullptr;
  telemetry::Counter* m_bytes_sent_ = nullptr;
  telemetry::Counter* m_rows_sent_ = nullptr;
  telemetry::Counter* m_removals_sent_ = nullptr;
  std::vector<std::unique_ptr<ClientReplica>> clients_;
  size_t connected_count_ = 0;
};

}  // namespace gamedb::replication
