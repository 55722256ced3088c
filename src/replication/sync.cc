#include "replication/sync.h"

#include <atomic>

#include "common/coding.h"
#include "core/serialize.h"
#include "views/maintainer.h"

namespace gamedb::replication {

SyncServer::SyncServer(World* server_world, SyncOptions options)
    : server_(server_world), options_(options) {
  static std::atomic<uint64_t> next_instance{0};
  instance_id_ = next_instance.fetch_add(1, std::memory_order_relaxed);
  if (options_.telemetry.metrics != nullptr) {
    telemetry::MetricsRegistry* reg = options_.telemetry.metrics;
    m_rounds_ = reg->GetCounter("sync.rounds");
    m_bytes_sent_ = reg->GetCounter("sync.bytes_sent");
    m_rows_sent_ = reg->GetCounter("sync.rows_sent");
    m_removals_sent_ = reg->GetCounter("sync.removals_sent");
  }
}

SyncServer::~SyncServer() {
  if (options_.view_catalog == nullptr) return;
  for (auto& client : clients_) {
    if (client->interest_view_ != nullptr) {
      options_.view_catalog->Unregister(client->interest_view_->name());
    }
  }
}

const char* SyncStrategyName(SyncStrategy s) {
  switch (s) {
    case SyncStrategy::kFullSnapshot:
      return "full_snapshot";
    case SyncStrategy::kDelta:
      return "delta";
    case SyncStrategy::kInterest:
      return "interest";
    case SyncStrategy::kEventual:
      return "eventual";
    case SyncStrategy::kInterestView:
      return "interest_view";
  }
  return "?";
}

size_t SyncServer::AddClient(EntityId avatar) {
  clients_.push_back(std::make_unique<ClientReplica>(avatar));
  ++connected_count_;
  size_t index = clients_.size() - 1;
  if (options_.strategy == SyncStrategy::kInterestView) {
    GAMEDB_CHECK(options_.view_catalog != nullptr);  // see SyncOptions
    views::ViewDef def;
    def.name = "__sync_interest_" + std::to_string(instance_id_) + "_" +
               std::to_string(index);
    def.has_near = true;
    def.near.component = "Position";
    def.near.field = "value";
    // Center starts at the avatar's current position when it has one; the
    // first SyncOne recenters anyway.
    const Position* p = server_->Get<Position>(avatar);
    def.near.center = p != nullptr ? p->value : Vec3{};
    def.near.radius = options_.interest_radius;
    Result<views::LiveView*> view = options_.view_catalog->Register(
        std::move(def));
    GAMEDB_CHECK(view.ok());  // Position is a registered standard component
    clients_.back()->interest_view_ = *view;
  }
  return index;
}

void SyncServer::RemoveClient(size_t i) {
  GAMEDB_CHECK(i < clients_.size());
  ClientReplica* client = clients_[i].get();
  if (!client->connected_) return;
  client->connected_ = false;
  --connected_count_;
  if (client->interest_view_ != nullptr &&
      options_.view_catalog != nullptr) {
    options_.view_catalog->Unregister(client->interest_view_->name());
    client->interest_view_ = nullptr;
  }
}

Status SyncServer::SyncAll(std::vector<SyncStats>* stats) {
  stats->assign(clients_.size(), SyncStats{});
  for (size_t i = 0; i < clients_.size(); ++i) {
    if (!clients_[i]->connected_) continue;
    GAMEDB_RETURN_NOT_OK(SyncOne(clients_[i].get(), &(*stats)[i]));
  }
  if (m_rounds_ != nullptr) {
    uint64_t bytes = 0;
    uint64_t rows = 0;
    uint64_t removals = 0;
    for (const SyncStats& s : *stats) {
      bytes += s.bytes_sent;
      rows += s.rows_sent;
      removals += s.removals_sent;
    }
    m_rounds_->Increment();
    m_bytes_sent_->Add(bytes);
    m_rows_sent_->Add(rows);
    m_removals_sent_->Add(removals);
  }
  return Status::OK();
}

Status SyncServer::SyncOne(ClientReplica* client, SyncStats* stats) {
  switch (options_.strategy) {
    case SyncStrategy::kFullSnapshot:
      return SendFullSnapshot(client, stats);
    case SyncStrategy::kDelta:
      return SendDelta(client, /*interest_filtered=*/false, stats);
    case SyncStrategy::kInterest:
    case SyncStrategy::kInterestView:
      return SendDelta(client, /*interest_filtered=*/true, stats);
    case SyncStrategy::kEventual: {
      uint64_t now = server_->tick();
      if (client->ever_synced_ &&
          now - client->last_sync_tick_ < options_.period_ticks) {
        return Status::OK();  // skip this round; divergence accrues
      }
      return SendDelta(client, /*interest_filtered=*/false, stats);
    }
  }
  return Status::InvalidArgument("unknown strategy");
}

Status SyncServer::SendFullSnapshot(ClientReplica* client, SyncStats* stats) {
  std::string snapshot;
  EncodeWorldSnapshot(*server_, &snapshot);
  stats->bytes_sent += snapshot.size();
  client->ever_synced_ = true;
  client->last_sync_tick_ = server_->tick();
  return DecodeWorldSnapshot(snapshot, &client->world());
}

Status SyncServer::SendDelta(ClientReplica* client, bool interest_filtered,
                             SyncStats* stats) {
  // Interest set: entities with Position within radius of the avatar, plus
  // the avatar itself. kInterest rescans the Position table per client;
  // kInterestView reads the client's incrementally-maintained LiveView
  // (recentered when the avatar moved — an index-assisted repopulate).
  std::unordered_set<uint64_t> interest;
  if (interest_filtered) {
    const Position* center = server_->Get<Position>(client->avatar());
    if (options_.strategy == SyncStrategy::kInterestView) {
      views::LiveView* view = client->interest_view_;
      if (center != nullptr && view != nullptr) {
        GAMEDB_RETURN_NOT_OK(view->Recenter(center->value));
        view->ForEachMember(
            [&](EntityId e) { interest.insert(e.Raw()); });
      }
    } else if (center != nullptr) {
      float r2 = options_.interest_radius * options_.interest_radius;
      const auto* table = server_->TableIfExists<Position>();
      if (table != nullptr) {
        table->ForEach([&](EntityId e, const Position& p) {
          if (p.value.DistanceSquaredTo(center->value) <= r2) {
            interest.insert(e.Raw());
          }
        });
      }
    }
    interest.insert(client->avatar().Raw());
  }

  // The "message": encoded rows and removals. We count its bytes as the
  // bandwidth metric and apply it immediately (zero-loss in-memory link).
  std::string message;
  World& replica = client->world();

  Status apply_status = Status::OK();
  server_->ForEachStore([&](const TypeInfo& info, ComponentStore& store) {
    if (!apply_status.ok()) return;
    uint64_t acked = 0;
    auto acked_it = client->acked_.find(info.id());
    if (acked_it != client->acked_.end()) acked = acked_it->second;

    ComponentStore* client_store = replica.StoreById(info.id());
    GAMEDB_CHECK(client_store != nullptr);

    // Changed (or newly interesting) rows.
    for (size_t i = 0; i < store.Size(); ++i) {
      EntityId e = store.EntityAt(i);
      bool in_interest =
          !interest_filtered || interest.count(e.Raw()) > 0;
      bool was_subscribed =
          !interest_filtered || client->subscribed_.count(e.Raw()) > 0;
      bool changed = store.VersionAt(i) > acked;
      bool send = in_interest && (changed || !was_subscribed);
      if (!send) continue;

      // Encode: table name omitted (implied by loop); entity + payload.
      std::string payload;
      info.EncodeComponent(store.ValueAt(i), &payload);
      PutFixed64(&message, e.Raw());
      PutLengthPrefixed(&message, payload);
      ++stats->rows_sent;

      // Apply to the replica. The replica may still hold a previous
      // generation of this slot — the old entity died server-side (or left
      // interest) and the slot was reused before any removal reached this
      // client. The stale generation no longer exists on the server, so
      // evict it before recreating the slot's current occupant.
      if (!replica.Alive(e)) {
        EntityId stale = replica.LiveAt(e.index);
        if (stale.valid()) replica.Destroy(stale);
        Status st = replica.CreateWithId(e);
        if (!st.ok()) {
          apply_status = st;
          return;
        }
      }
      client_store->EmplaceDefault(e);
      Status decode_status = Status::OK();
      client_store->PatchRaw(e, [&](void* comp) {
        Decoder dec(payload);
        decode_status = info.DecodeComponent(comp, &dec);
      });
      if (!decode_status.ok()) {
        apply_status = decode_status;
        return;
      }
    }

    // Removals on the server side.
    store.ForEachRemoved(acked, [&](EntityId e) {
      PutFixed64(&message, e.Raw());
      ++stats->removals_sent;
      client_store->Erase(e);
    });

    client->acked_[info.id()] = store.last_version();
  });
  GAMEDB_RETURN_NOT_OK(apply_status);

  // Interest exits: drop all components of entities that left the bubble.
  if (interest_filtered) {
    for (uint64_t raw : client->subscribed_) {
      if (interest.count(raw)) continue;
      EntityId e = EntityId::FromRaw(raw);
      PutFixed64(&message, raw);
      ++stats->removals_sent;
      // Destroy, not per-store Erase: an out-of-interest entity should not
      // linger as an alive-but-empty replica entity (it would also collide
      // with a later CreateWithId when the server reuses the slot).
      replica.Destroy(e);
    }
    client->subscribed_ = std::move(interest);
  }

  stats->bytes_sent += message.size();
  replica.SetTick(server_->tick());
  client->ever_synced_ = true;
  client->last_sync_tick_ = server_->tick();
  return Status::OK();
}

}  // namespace gamedb::replication
