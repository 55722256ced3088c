#pragma once

/// \file bench.h
/// shardbench: one in-process MMO shard driven through a closed tick loop
/// built only from gamedb's public APIs (World, QueryPlanner, ViewCatalog,
/// ScriptHost, SyncServer, PersistenceManager, content::PrefabLibrary).
/// Every call into a layer is timed from this benchmark's own code; every
/// gamedb TelemetrySink stays null, so the program's in-process timers can
/// neither break nor perturb the measurement.
///
/// Pieces:
///   workloads.cc — the seeded generator (all randomness lives there) and
///                  the per-tick mutation steps of crowd, horde and churn;
///   shard.cc     — the stack: cold start, the tick in loadgen's
///                  Driver::Tick order, and the end-of-run checks;
///   trace.cc     — the span buffer and its self-time aggregation;
///   main.cc      — episodes, metrics and the printer.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "common/rng.h"
#include "common/status.h"
#include "content/prefab.h"
#include "core/world.h"
#include "persist/manager.h"
#include "persist/storage.h"
#include "planner/planner.h"
#include "replication/sync.h"
#include "script/host.h"
#include "views/maintainer.h"

namespace shardbench {

namespace content = gamedb::content;
namespace persist = gamedb::persist;
using gamedb::EntityId;
using gamedb::Rng;
using gamedb::Status;
using gamedb::Vec3;
using gamedb::World;
template <typename T>
using Result = gamedb::Result<T>;

uint64_t NowNs();

// --- Spans --------------------------------------------------------------

/// One timed call: name, start, end, enclosing span and tick id (0 for
/// set-up spans).
struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int32_t parent;  ///< index into the buffer, -1 for a root
  uint32_t tick;
};

/// Span buffer owned by the benchmark (not telemetry::Tracer). Spans nest
/// by construction: Begin pushes onto an open stack, End pops it.
class SpanRecorder {
 public:
  void set_tick(uint32_t tick) { tick_ = tick; }
  void Begin(const char* name);
  void End();
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint32_t tick_ = 0;
};

/// Records a span around its scope when `rec` is non-null (traced run);
/// costs one branch otherwise.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name) : rec_(rec) {
    if (rec_ != nullptr) rec_->Begin(name);
  }
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
};

/// Self time per span name, summed over the spans whose root is named
/// `root` (self time = duration minus the durations of direct children).
struct SpanTotals {
  uint64_t roots = 0;
  uint64_t root_ns = 0;
  std::vector<std::pair<std::string, uint64_t>> self_ns;  ///< by name
  uint64_t SelfNs(const std::string& name) const;
};

/// Checks that spans nest (every child lies inside its parent, siblings do
/// not overlap, every span ended) and that, per root, the self times of
/// the root and all its descendants add up to the root's duration.
Status CheckSpans(const std::vector<Span>& spans);
SpanTotals Aggregate(const std::vector<Span>& spans, const char* root);
/// Chrome trace-event JSON ("X" events; args carry tick and parent).
Status WriteTrace(const std::vector<Span>& spans, const std::string& path);

// --- Workloads ----------------------------------------------------------

class Shard;
struct Inputs;

/// Static description of one workload (why each exists: BENCHMARK.json and
/// README.md). Sizes are the tuned defaults; `--small` scales them down for
/// the benchmark's own tests.
struct WorkloadSpec {
  const char* name;
  size_t npcs;
  size_t clients;
  float arena;
  float interest_radius;
  uint64_t warmup_ticks;  ///< untimed, per episode
  uint64_t timed_ticks;   ///< per episode
  /// Behaviour pack run over every Combat entity: the shipped combat pack
  /// or the benchmark's horde pack (combat + one within() probe).
  bool horde_pack;
  /// Creates the initial NPCs and client avatars.
  void (*layout)(Inputs&, World&, Rng&);
  /// The tick's mutations; `t` counts ticks from the episode start (1..).
  void (*step)(Shard&, uint64_t t);
};

const WorkloadSpec* FindWorkload(const std::string& name);

/// Everything the generator hands the program: the stored shard (a
/// checkpoint plus a WAL tail in MemStorage), the rosters the mutation
/// steps address, and per-workload paths. Shared read-only by episodes.
struct Inputs {
  WorkloadSpec spec;
  uint64_t seed = 0;
  persist::MemStorage stored;
  uint32_t stored_hash = 0;  ///< CRC-32C of the generated world snapshot
  uint64_t start_tick = 0;   ///< world tick after recovery
  std::vector<EntityId> npcs;
  std::vector<EntityId> avatars;  ///< one per client slot
  std::vector<Vec3> homes;        ///< per client slot (horde)
  std::vector<Vec3> hotspots;     ///< per hotspot period (crowd)
  std::vector<Vec3> offsets;      ///< per NPC: its place in the crowd
  std::string pack_source;
  std::string pack_origin;
  content::PrefabLibrary prefabs;
};

/// Builds the seeded world and persists it into `in->stored`.
Status Generate(const WorkloadSpec& spec, uint64_t seed,
                const std::string& pack_source, const std::string& pack_origin,
                content::PrefabLibrary prefabs, Inputs* in);

/// The tick's randomness: a pure function of (seed, tick, stream).
Rng TickRng(const Inputs& in, uint64_t t, uint64_t stream);

uint32_t HashWorld(const World& world);

/// Creates a client avatar (the components every client's avatar carries).
EntityId CreateAvatar(World& world, const Vec3& at, int64_t account);

// --- Shard --------------------------------------------------------------

/// Exact per-episode counters, summed over timed ticks.
struct Counts {
  uint64_t ticks = 0;
  uint64_t alive_sum = 0;         ///< Σ World::AliveCount
  uint64_t entity_ticks = 0;      ///< Σ ScriptTickStats::entities
  uint64_t script_errors = 0;
  uint64_t fuel = 0;
  uint64_t effects = 0;
  uint64_t dropped_effects = 0;
  uint64_t client_syncs = 0;      ///< Σ connected clients per SyncAll
  uint64_t sync_bytes = 0;
  uint64_t sync_rows = 0;
  uint64_t sync_removals = 0;
  uint64_t created = 0;
  uint64_t destroyed = 0;
  uint64_t instantiated = 0;
  uint64_t checkpoints = 0;
  // Counters read from the layers (deltas over the timed ticks).
  uint64_t rows_written = 0;      ///< Σ table version bumps
  uint64_t stats_refreshes = 0;
  uint64_t spatial_builds = 0;
  /// With 2+ script threads two shards can miss on the same plan at once,
  /// so only hits + misses repeats exactly; the split may vary.
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t change_records = 0;
  uint64_t wal_bytes = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t storage_syncs = 0;
  // View maintenance work (traced runs only: summed around each Maintain
  // and SyncAll call, so view registration is not counted).
  uint64_t reevaluations = 0;
  uint64_t useful = 0;  ///< enters + exits + updates
  uint64_t repopulations = 0;

  /// Equal work: every exact counter matches (plan hits + misses as one).
  bool operator==(const Counts& o) const;
};

/// The full stack of one shard. Construction plus ColdStart is the timed
/// set-up; Tick is one closed-loop tick.
class Shard {
 public:
  /// `storage` is a private copy of the stored bytes; `trace` may be null.
  Shard(const Inputs& in, persist::MemStorage storage, size_t threads,
        SpanRecorder* trace);
  ~Shard();
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Recover, Analyze, Register, Load (strict), AddClient × clients + the
  /// first SyncAll.
  Status ColdStart();
  /// One tick; adds its exact counts to `c` (view counters only when
  /// tracing).
  Status Tick(uint64_t t, Counts* c);
  /// Spans are recorded only while a recorder is set (cold start and timed
  /// ticks; warm-up ticks run untraced).
  void set_trace(SpanRecorder* trace) { trace_ = trace; }
  /// Whether the last Tick wrote a checkpoint.
  bool checkpointed() const { return checkpointed_; }
  /// Adds (sign > 0) or subtracts the cumulative layer counters: called at
  /// the start and the end of the timed window.
  void SnapshotLayers(Counts* c, int sign) const;
  /// Divergence check of every connected replica; returns the number of
  /// replicas that differ from the server on rows they hold.
  size_t DivergedReplicas() const;
  /// ForceCheckpoint + Recover into a fresh World; CRC must match.
  Status CheckRecovery(uint32_t live_hash);

  // --- Mutation vocabulary (sequential point of the tick) ----------------
  World& world() { return world_; }
  const Inputs& inputs() const { return in_; }
  size_t clients() const { return slots_.size(); }
  bool connected(size_t slot) const { return slots_[slot].connected; }
  EntityId avatar(size_t slot) const { return slots_[slot].avatar; }
  /// A login storm: every avatar enters the world first, then every
  /// client attaches (AddClient registers and populates its interest view).
  void Login(const std::vector<std::pair<size_t, Vec3>>& slots_at);
  void Logout(size_t slot);
  void MoveToward(EntityId e, const Vec3& target, float step);
  void Jitter(EntityId e, float amplitude, Rng& rng);
  void SetHp(EntityId e, float hp);
  void SetTarget(EntityId e, EntityId target);
  /// Instantiates `prefab` at `at` with velocity `vel`; it is destroyed
  /// `lifetime` ticks later.
  void Spawn(const char* prefab, const Vec3& at, const Vec3& vel,
             uint64_t lifetime);
  /// Moves every short-lived entity by its velocity and destroys the
  /// expired ones.
  void AdvanceShortLived(uint64_t t);
  Vec3 Clamp(Vec3 p) const;

 private:
  struct Slot {
    EntityId avatar;
    size_t sync_index = 0;
    bool connected = false;
  };
  struct ShortLived {
    EntityId e;
    uint64_t expires;
  };
  void AddViewWork(Counts* c, int sign) const;

  const Inputs& in_;
  SpanRecorder* trace_;
  Counts* tick_counts_ = nullptr;  ///< the Tick in progress
  uint64_t t_ = 0;                 ///< its episode tick
  Status step_status_ = Status::OK();
  bool checkpointed_ = false;
  World world_;
  gamedb::planner::QueryPlanner planner_;
  gamedb::views::ViewCatalog catalog_;
  persist::MemStorage storage_;
  std::unique_ptr<persist::PersistenceManager> persistence_;
  std::unique_ptr<gamedb::script::ScriptHost> host_;
  std::unique_ptr<gamedb::replication::SyncServer> sync_;
  std::vector<Slot> slots_;
  std::vector<ShortLived> short_lived_;
  std::vector<gamedb::replication::SyncStats> sync_stats_;
};

}  // namespace shardbench
