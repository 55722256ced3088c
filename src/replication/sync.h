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
/// removals: SendDelta erases every row the server removed since the
/// client's last ack, and the interest strategies destroy a replica entity
/// once it leaves interest (a destroyed entity always does).

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "core/world.h"
#include "telemetry/sink.h"

namespace gamedb::views {
class LiveView;
class ViewCatalog;
}  // namespace gamedb::views

namespace gamedb::replication {

/// How a client is kept in sync.
enum class SyncStrategy : uint8_t {
  /// Whole-world snapshot every tick (strict, maximal bandwidth).
  kFullSnapshot,
  /// Per-table version deltas every tick (strict, pay-for-what-changed).
  kDelta,
  /// Deltas restricted to an area of interest around the client avatar;
  /// entities entering interest send full rows, leaving entities are
  /// dropped from the replica.
  kInterest,
  /// Deltas only every `period_ticks` — weak consistency; divergence grows
  /// between rounds and collapses on sync.
  kEventual,
  /// kInterest semantics, but the per-client interest set is a LiveView
  /// (views/view.h) maintained incrementally from change capture instead
  /// of an O(world) Position rescan per client per sync: moved entities
  /// re-probe against the radius via deltas, and avatar movement triggers
  /// an index-assisted Recenter. Requires SyncOptions::view_catalog;
  /// replicated state is identical to kInterest for live entities. (One
  /// deliberate divergence: rows of *dead* entities — possible only via
  /// raw SparseSet writes with stale ids — are excluded here, where
  /// kInterest's raw rescan would replicate and resurrect them on the
  /// client.)
  kInterestView,
};

const char* SyncStrategyName(SyncStrategy s);

/// Options for SyncServer.
struct SyncOptions {
  SyncStrategy strategy = SyncStrategy::kDelta;
  /// kInterest / kInterestView: radius around the avatar that replicates.
  float interest_radius = 50.0f;
  /// kEventual: ticks between syncs.
  uint32_t period_ticks = 10;
  /// kInterestView: catalog hosting the per-client interest views (one
  /// "__sync_interest_<i>" view per client, registered by AddClient); must
  /// outlive the SyncServer. The tick loop calls its Maintain() before
  /// SyncAll, so the views hold every move since the last sync; SyncAll
  /// itself only recenters them on the avatars.
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
  World world_;
  EntityId avatar_;
  /// Last acked version per component table (by type id).
  std::unordered_map<uint32_t, uint64_t> acked_;
  /// kInterest / kInterestView: entities currently replicated.
  std::unordered_set<uint64_t> subscribed_;
  /// kInterestView: this client's interest view (owned by the catalog).
  views::LiveView* interest_view_ = nullptr;
  uint64_t last_sync_tick_ = 0;
  bool ever_synced_ = false;
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
  /// kInterestView: unregisters this server's interest views from the
  /// catalog (clients of a torn-down server must not keep costing
  /// maintenance).
  ~SyncServer();

  /// Registers a client whose avatar is `avatar`; returns its index.
  size_t AddClient(EntityId avatar);

  /// Disconnects client `i`: its interest view (kInterestView) is
  /// unregistered from the catalog immediately — a logged-out client must
  /// stop costing per-tick maintenance — and SyncAll skips it from now on.
  /// The replica world and index stay valid (indices of other clients are
  /// stable); reconnecting is a fresh AddClient. No-op when already
  /// disconnected.
  void RemoveClient(size_t i);

  ClientReplica& client(size_t i) { return *clients_[i]; }
  size_t client_count() const { return clients_.size(); }
  /// Clients still being synced (AddClient minus RemoveClient).
  size_t connected_count() const { return connected_count_; }

  /// Synchronizes every client for the server's current tick. Appends the
  /// per-client byte cost into `stats` (sized to client count). Under
  /// kInterestView, Maintain() the view catalog first (see SyncOptions).
  Status SyncAll(std::vector<SyncStats>* stats);

 private:
  Status SyncOne(ClientReplica* client, SyncStats* stats);
  Status SendFullSnapshot(ClientReplica* client, SyncStats* stats);
  Status SendDelta(ClientReplica* client, bool interest_filtered,
                   SyncStats* stats);

  World* server_;
  SyncOptions options_;
  /// Cached registry instruments (nullptr without a metrics sink).
  telemetry::Counter* m_rounds_ = nullptr;
  telemetry::Counter* m_bytes_sent_ = nullptr;
  telemetry::Counter* m_rows_sent_ = nullptr;
  telemetry::Counter* m_removals_sent_ = nullptr;
  /// Distinguishes this server's interest-view names from those of other
  /// (including earlier, destroyed) SyncServers sharing one catalog.
  uint64_t instance_id_ = 0;
  std::vector<std::unique_ptr<ClientReplica>> clients_;
  size_t connected_count_ = 0;
};

}  // namespace gamedb::replication
