#include "core/serialize.h"

#include <algorithm>
#include <vector>

#include "common/coding.h"
#include "common/crc32.h"

namespace gamedb {

namespace {
constexpr char kMagic[] = "GDBSNAP1";
constexpr size_t kMagicLen = 8;
}  // namespace

void EncodeWorldSnapshot(const World& world, std::string* out) {
  out->append(kMagic, kMagicLen);
  PutVarint64(out, world.tick());

  // Entities, ascending index for determinism.
  std::vector<EntityId> entities;
  entities.reserve(world.AliveCount());
  world.ForEachEntity([&](EntityId e) { entities.push_back(e); });
  PutVarint64(out, entities.size());
  for (EntityId e : entities) PutFixed64(out, e.Raw());

  // Tables, ordered by type name (unordered_map iteration is not stable).
  std::vector<std::pair<const TypeInfo*, const ComponentStore*>> tables;
  world.ForEachStore(
      [&](const TypeInfo& info, const ComponentStore& store) {
        tables.emplace_back(&info, &store);
      });
  std::sort(tables.begin(), tables.end(), [](const auto& a, const auto& b) {
    return a.first->name() < b.first->name();
  });

  PutVarint64(out, tables.size());
  for (const auto& [info, store] : tables) {
    PutLengthPrefixed(out, info->name());
    PutVarint64(out, store->Size());
    // Rows in ascending entity order for determinism.
    std::vector<size_t> order(store->Size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return store->EntityAt(a).Raw() < store->EntityAt(b).Raw();
    });
    for (size_t i : order) {
      PutFixed64(out, store->EntityAt(i).Raw());
      info->EncodeComponent(store->ValueAt(i), out);
    }
  }

  uint32_t crc = Crc32c(out->data(), out->size());
  PutFixed32(out, MaskCrc(crc));
}

Status DecodeWorldSnapshot(std::string_view data, World* world) {
  if (data.size() < kMagicLen + 4) {
    return Status::Corruption("snapshot too short");
  }
  // Verify trailing CRC over everything before it.
  {
    Decoder tail(data.substr(data.size() - 4));
    uint32_t stored = 0;
    GAMEDB_RETURN_NOT_OK(tail.GetFixed32(&stored));
    uint32_t actual = Crc32c(data.data(), data.size() - 4);
    if (UnmaskCrc(stored) != actual) {
      return Status::Corruption("snapshot CRC mismatch");
    }
  }
  if (data.substr(0, kMagicLen) != std::string_view(kMagic, kMagicLen)) {
    return Status::Corruption("bad snapshot magic");
  }

  Decoder dec(data.substr(kMagicLen, data.size() - kMagicLen - 4));
  world->Clear();

  uint64_t tick = 0;
  GAMEDB_RETURN_NOT_OK(dec.GetVarint64(&tick));
  world->SetTick(tick);

  uint64_t entity_count = 0;
  GAMEDB_RETURN_NOT_OK(dec.GetVarint64(&entity_count));
  for (uint64_t i = 0; i < entity_count; ++i) {
    uint64_t raw = 0;
    GAMEDB_RETURN_NOT_OK(dec.GetFixed64(&raw));
    GAMEDB_RETURN_NOT_OK(world->CreateWithId(EntityId::FromRaw(raw)));
  }

  uint64_t table_count = 0;
  GAMEDB_RETURN_NOT_OK(dec.GetVarint64(&table_count));
  for (uint64_t t = 0; t < table_count; ++t) {
    std::string_view name;
    GAMEDB_RETURN_NOT_OK(dec.GetLengthPrefixed(&name));
    const TypeInfo* info = TypeRegistry::Global().FindByName(name);
    if (info == nullptr) {
      return Status::SchemaMismatch("snapshot has unregistered component: " +
                                    std::string(name));
    }
    ComponentStore* store = world->StoreById(info->id());
    uint64_t rows = 0;
    GAMEDB_RETURN_NOT_OK(dec.GetVarint64(&rows));
    for (uint64_t r = 0; r < rows; ++r) {
      uint64_t raw = 0;
      GAMEDB_RETURN_NOT_OK(dec.GetFixed64(&raw));
      EntityId e = EntityId::FromRaw(raw);
      if (!world->Alive(e)) {
        return Status::Corruption("component row for dead entity " +
                                  e.ToString());
      }
      void* comp = store->EmplaceDefault(e);
      GAMEDB_RETURN_NOT_OK(info->DecodeComponent(comp, &dec));
    }
  }
  if (!dec.empty()) {
    return Status::Corruption("trailing bytes in snapshot");
  }
  return Status::OK();
}

void EncodeEntityRecord(const World& world, EntityId e, std::string* out) {
  std::vector<std::pair<const TypeInfo*, const void*>> comps;
  world.ForEachStore(
      [&](const TypeInfo& info, const ComponentStore& store) {
        if (const void* c = store.Find(e)) comps.emplace_back(&info, c);
      });
  std::sort(comps.begin(), comps.end(), [](const auto& a, const auto& b) {
    return a.first->name() < b.first->name();
  });
  PutVarint64(out, comps.size());
  for (const auto& [info, comp] : comps) {
    PutLengthPrefixed(out, info->name());
    std::string payload;
    info->EncodeComponent(comp, &payload);
    PutLengthPrefixed(out, payload);
  }
}

Status DecodeEntityRecord(std::string_view data, World* world, EntityId e) {
  if (!world->Alive(e)) {
    return Status::InvalidArgument("entity not alive: " + e.ToString());
  }
  Decoder dec(data);
  uint64_t count = 0;
  GAMEDB_RETURN_NOT_OK(dec.GetVarint64(&count));
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view name, payload;
    GAMEDB_RETURN_NOT_OK(dec.GetLengthPrefixed(&name));
    GAMEDB_RETURN_NOT_OK(dec.GetLengthPrefixed(&payload));
    const TypeInfo* info = TypeRegistry::Global().FindByName(name);
    if (info == nullptr) {
      return Status::SchemaMismatch("record has unregistered component: " +
                                    std::string(name));
    }
    ComponentStore* store = world->StoreById(info->id());
    store->EmplaceDefault(e);
    // PatchRaw is a tracked update, so change-log consumers (views,
    // replication, maintained aggregates) see the decoded row.
    Status decode_status = Status::OK();
    store->PatchRaw(e, [&](void* comp) {
      Decoder field_dec(payload);
      decode_status = info->DecodeComponent(comp, &field_dec);
      if (decode_status.ok() && !field_dec.empty()) {
        decode_status = Status::Corruption("trailing bytes in component payload");
      }
    });
    GAMEDB_RETURN_NOT_OK(decode_status);
  }
  if (!dec.empty()) return Status::Corruption("trailing bytes in record");
  return Status::OK();
}

}  // namespace gamedb
