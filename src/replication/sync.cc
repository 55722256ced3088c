#include "replication/sync.h"

#include "common/coding.h"
#include "core/serialize.h"

namespace gamedb::replication {

SyncServer::SyncServer(World* server_world, SyncOptions options)
    : server_(server_world), options_(options) {
  if (options_.telemetry.metrics != nullptr) {
    telemetry::MetricsRegistry* reg = options_.telemetry.metrics;
    m_rounds_ = reg->GetCounter("sync.rounds");
    m_bytes_sent_ = reg->GetCounter("sync.bytes_sent");
    m_rows_sent_ = reg->GetCounter("sync.rows_sent");
    m_removals_sent_ = reg->GetCounter("sync.removals_sent");
  }
}

SyncServer::~SyncServer() {
  for (size_t i = 0; i < clients_.size(); ++i) RemoveClient(i);
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
  }
  return "?";
}

size_t SyncServer::AddClient(EntityId avatar) {
  clients_.push_back(std::make_unique<ClientReplica>(avatar));
  ++connected_count_;
  return clients_.size() - 1;
}

void SyncServer::RemoveClient(size_t i) {
  GAMEDB_CHECK(i < clients_.size());
  ClientReplica* client = clients_[i].get();
  if (!client->connected_) return;
  client->connected_ = false;
  --connected_count_;
  for (const auto& [id, cursor] : client->tables_) {
    server_->StoreById(id)->changes().Close(cursor);
  }
  client->tables_.clear();
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
      return SendDelta(client, /*interest_filtered=*/true, stats);
    case SyncStrategy::kEventual:
      // The replica's tick is the server tick of its last sync.
      if (!client->tables_.empty() &&
          server_->tick() - client->world().tick() < options_.period_ticks) {
        return Status::OK();  // skip this round; divergence accrues
      }
      return SendDelta(client, /*interest_filtered=*/false, stats);
  }
  return Status::InvalidArgument("unknown strategy");
}

Status SyncServer::SendFullSnapshot(ClientReplica* client, SyncStats* stats) {
  std::string snapshot;
  EncodeWorldSnapshot(*server_, &snapshot);
  stats->bytes_sent += snapshot.size();
  return DecodeWorldSnapshot(snapshot, &client->world());
}

Status SyncServer::SendDelta(ClientReplica* client, bool interest_filtered,
                             SyncStats* stats) {
  // Interest: the avatar, plus every live server entity whose Position is
  // within radius of the avatar's (a NaN coordinate fails the comparison).
  const Position* center =
      interest_filtered ? server_->Get<Position>(client->avatar()) : nullptr;
  const float r2 = options_.interest_radius * options_.interest_radius;
  auto in_interest = [&](EntityId e) {
    if (!interest_filtered || e == client->avatar()) return true;
    if (center == nullptr || !server_->Alive(e)) return false;
    const Position* p = server_->Get<Position>(e);
    return p != nullptr && p->value.DistanceSquaredTo(center->value) <= r2;
  };

  // The "message": encoded rows and removals. We count its bytes as the
  // bandwidth metric and apply it immediately (zero-loss in-memory link).
  std::string message;
  World& replica = client->world();

  Status apply_status = Status::OK();
  server_->ForEachStore([&](const TypeInfo& info, ComponentStore& store) {
    if (!apply_status.ok()) return;
    ComponentStore* client_store = replica.StoreById(info.id());
    GAMEDB_CHECK(client_store != nullptr);

    // What the log names since this client's last sync: the rows written
    // (marked by dense position) and the ids removed. The cursor opens the
    // first time this client meets the table, when the replica lacks every
    // row and no earlier removal ever reached it.
    auto [cursor, first] = client->tables_.try_emplace(info.id());
    if (first) cursor->second = store.changes().Open();
    written_.assign(store.Size(), false);
    removed_.clear();
    store.changes().ForEachRecord(
        cursor->second, [&](EntityId e, ChangeKind kind) {
          if (kind == ChangeKind::kRemove) {
            removed_.push_back(e);
          } else if (size_t i = store.DenseIndexOf(e);
                     i != ComponentStore::kNoDenseIndex) {
            written_[i] = true;
          }
        });

    // Each in-interest row that was written or that the replica's table
    // lacks (the entity is new to the client or just entered interest).
    // Ask the replica's table, not whether the entity is alive there: the
    // entity's first table creates it. Interest is tested first: under a
    // small radius most rows are outside it and missing from the replica,
    // so asking the replica first would cost each of them a second lookup.
    for (size_t i = 0; i < store.Size(); ++i) {
      EntityId e = store.EntityAt(i);
      if (!in_interest(e)) continue;
      if (!written_[i] && client_store->Contains(e)) continue;

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

    // Removals on the server side, for rows the replica holds. They run
    // after the rows, so a reused slot's stale generation, which the row
    // walk evicts, is not sent as removals too. A row re-added since its
    // removal was sent above; erasing it now would lose it.
    for (EntityId e : removed_) {
      if (store.Contains(e) || !client_store->Contains(e)) continue;
      PutFixed64(&message, e.Raw());
      ++stats->removals_sent;
      client_store->Erase(e);
    }
  });
  GAMEDB_RETURN_NOT_OK(apply_status);

  // Interest exits: the replica's entities that are no longer in interest.
  // Destroy, not per-store Erase: an out-of-interest entity should not
  // linger as an alive-but-empty replica entity (it would also collide
  // with a later CreateWithId when the server reuses the slot).
  if (interest_filtered) {
    std::vector<EntityId> exits;
    replica.ForEachEntity([&](EntityId e) {
      if (!in_interest(e)) exits.push_back(e);
    });
    for (EntityId e : exits) {
      PutFixed64(&message, e.Raw());
      ++stats->removals_sent;
      replica.Destroy(e);
    }
  }

  stats->bytes_sent += message.size();
  replica.SetTick(server_->tick());
  return Status::OK();
}

}  // namespace gamedb::replication
