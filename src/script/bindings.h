#pragma once

/// \file bindings.h
/// ECS bindings: the builtins that let GSL scripts address the game state
/// database by component/field name, run declarative queries, and emit
/// state-effect contributions instead of raw writes. This is the seam where
/// the tutorial's "declarative processing" [11, 13] meets the scripting
/// layer: scripts at the kDeclarative restriction level can ONLY express
/// bulk reads through these aggregate builtins, which the engine evaluates
/// with its indexes.
///
/// The same seam enforces the state-effect discipline when scripts run as a
/// *parallel query phase* (script/host.h): bindings bound with a gated
/// MutationPolicy stop the mutation builtins from writing the World directly
/// — a data race once interpreters run on pool threads — and instead defer
/// the writes into per-shard DeferredOps buffers the host replays in the
/// apply phase.

#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/query.h"
#include "core/state_effect.h"
#include "core/world.h"
#include "script/interpreter.h"

namespace gamedb::views {
class ViewCatalog;
}  // namespace gamedb::views

namespace gamedb::script {

/// Named effect channels scripts contribute into; the host drains them after
/// the scripted query phase (see core/state_effect.h).
///
/// Channel() is safe to call concurrently from query-phase shards (creation
/// of a new channel is serialized; the returned Effect collects into
/// per-shard buffers). The drain-side APIs (Drain / Clear /
/// contribution_count / HasChannel) belong to the sequential apply phase
/// and must not overlap the query phase.
class ScriptEffects {
 public:
  explicit ScriptEffects(size_t shards) : shards_(shards) {}

  /// Creates (or returns) the named channel.
  Effect<double>& Channel(const std::string& name);
  bool HasChannel(const std::string& name) const {
    return channels_.count(name) > 0;
  }

  /// Drains one channel (no-op if it was never contributed to).
  void Drain(const std::string& name,
             const std::function<void(EntityId, double)>& apply);

  /// Total contributions currently buffered across all channels.
  size_t contribution_count() const;

  /// Discards all buffered contributions.
  void Clear();

  /// Names of every channel created so far, sorted. Drain-side API (must
  /// not overlap the query phase); feeds schema enumeration for
  /// did-you-mean diagnostics.
  std::vector<std::string> ChannelNames() const;

  size_t shards() const { return shards_; }

 private:
  size_t shards_;
  /// Guards channels_ map structure only (emit from pool threads may create
  /// a channel lazily); Effect contents are per-shard and unsynchronized.
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Effect<double>>> channels_;
};

/// How the world-mutating builtins (spawn / destroy / add / remove / set)
/// behave for a bound interpreter.
enum class MutationPolicy : uint8_t {
  /// Write the World immediately (single-threaded hosts; the default).
  kDirect,
  /// Record the mutation into per-shard DeferredOps buffers; the host
  /// replays them deterministically in the apply phase. spawn() is still
  /// rejected (an entity id cannot be allocated before the apply phase).
  kDefer,
  /// Reject with NotSupported: the query phase is read-only, scripts must
  /// emit() effects instead.
  kReject,
  /// Analysis-gated fast path: behaves exactly like kDefer, except that
  /// set() on the shard's *current* entity — when the host's DirectWriteGate
  /// is enabled for this tick — writes the field in place during the query
  /// phase and defers only a kTouch change record. The host enables the gate
  /// only for packs the verifier's access-summary pass proved disjoint
  /// (script/analyzer.h DirectWriteEligible); every other mutation, and
  /// set() on any other entity, falls back to the kDefer buffers.
  kDirectChecked,
};

/// One world mutation recorded during a gated query phase. Component and
/// field names are resolved (and the entity's tick-start state validated)
/// at record time, so scripts still get errors at the call site; only the
/// write itself is postponed.
struct DeferredOp {
  enum class Kind : uint8_t { kSet, kAdd, kRemove, kDestroy, kTouch };
  Kind kind;
  EntityId entity;
  uint32_t type_id = 0;              // component (unused for kDestroy)
  const FieldInfo* field = nullptr;  // kSet only
  FieldValue value;                  // kSet only
};

/// Shared state for the MutationPolicy::kDirectChecked fast path. The host
/// owns one gate per ScriptHost; each query-phase shard's bindings hold a
/// pointer to it.
///
/// Thread-safety contract: `enabled` is written only at fork/join boundaries
/// (before the pool starts the tick's chunks, after it joins), so the pool's
/// own synchronization orders those writes against shard reads. The
/// per-shard slots (`current`, `direct_writes`, `redirected`) are written
/// exclusively by the thread running that shard's chunk.
struct DirectWriteGate {
  /// True only while the current tick's entry function was proven
  /// direct-write eligible by the access-summary analysis.
  bool enabled = false;
  /// Per-shard: the entity the shard is currently ticking. set() writes
  /// in place only when its target equals this (self-writes are the only
  /// writes the analysis admits).
  std::vector<EntityId> current;
  /// Per-shard stat counters, summed into ScriptHost::TickStats at join.
  std::vector<uint64_t> direct_writes;
  std::vector<uint64_t> redirected;
};

/// Per-shard buffers of deferred mutations. Contributions are recorded with
/// no synchronization (each query-phase shard owns its buffer); Apply
/// replays shards in shard order and ops in record order within a shard.
/// Because ParallelForChunks assigns contiguous ascending entity ranges to
/// ascending chunk ids, that replay order equals the order a single thread
/// would have produced — the apply phase is thread-count-independent.
class DeferredOps {
 public:
  explicit DeferredOps(size_t shards) : shards_(shards) {
    GAMEDB_CHECK(shards >= 1);
  }

  /// Records an op from `shard` (the query-phase chunk index).
  void Push(size_t shard, DeferredOp op);

  /// Ops currently buffered across all shards.
  size_t size() const;

  /// Replays all buffered ops against `world` and clears the buffers.
  /// Ops invalidated by earlier ops (entity destroyed, component removed)
  /// are skipped and counted into *skipped when non-null. Returns the
  /// number of ops applied.
  size_t Apply(World* world, size_t* skipped = nullptr);

  /// Discards buffered ops.
  void Clear();

 private:
  std::vector<std::vector<DeferredOp>> shards_;
};

/// Configuration for BindWorld.
struct WorldBindOptions {
  /// The query-phase chunk this interpreter runs in (0 for single-threaded
  /// hosts); indexes ScriptEffects / DeferredOps shard buffers.
  size_t shard = 0;
  /// Gating for the mutation builtins (see MutationPolicy).
  MutationPolicy mutations = MutationPolicy::kDirect;
  /// Destination for deferred mutations; required when mutations == kDefer.
  DeferredOps* deferred = nullptr;
  /// Optional query planner: the query builtins (where / within / count /
  /// aggregates / argmin / argmax / entities_with) attach it to their
  /// DynamicQuery, so scripts execute cost-based plans instead of the
  /// hard-coded scan. Results are identical either way; nullptr keeps the
  /// built-in paths. Must outlive the interpreter.
  QueryPlanHook* planner = nullptr;
  /// Host-owned gate for MutationPolicy::kDirectChecked; ignored under
  /// other policies. Must outlive the interpreter when set.
  DirectWriteGate* direct_gate = nullptr;
};

/// Registers World-addressing builtins on `interp`:
///   spawn() -> entity                    destroy(e)
///   is_alive(e) -> bool                  has(e, "Comp") -> bool
///   add(e, "Comp")                       remove(e, "Comp")
///   get(e, "Comp", "field") -> value     set(e, "Comp", "field", v)
///   entities_with("Comp") -> list
///   count("Comp") / sum("Comp","f") / smin / smax / avg("Comp","f")
///   where("Comp", "f", "op", v) -> list  (op: == != < <= > >=)
///   argmin/argmax("Comp","f") -> entity
///   within(center_vec3, radius) -> list  (entities with Position)
///   emit("channel", target_entity, amount)   (state-effect contribution)
///   tick() -> number                     (current simulation tick)
///
/// `effects` may be null when the host does not use scripted effects; emit()
/// then fails. Under MutationPolicy::kDefer, remove() reports whether the
/// component was present at call time (the write happens at apply).
void BindWorld(Interpreter* interp, World* world, ScriptEffects* effects,
               WorldBindOptions options);

/// Back-compat convenience: direct mutations on shard `shard`.
void BindWorld(Interpreter* interp, World* world, ScriptEffects* effects,
               size_t shard = 0);

/// Registers LiveView read builtins (views/view.h) on `interp`:
///   view_count("name") -> number        (membership size, O(1))
///   view_contains("name", e) -> bool
///   view_members("name") -> list        (canonical order)
///   view_aggregate("name") -> number    (exact fold; errors when the view
///                                        has no aggregate, and — mirroring
///                                        the DynamicQuery terminals — when
///                                        a min/max/avg view is empty;
///                                        empty sum/count views return 0)
/// All are read-only and safe during the parallel query phase — views are
/// maintained only at the tick's sequential point. Unknown view names are
/// script errors. `catalog` must outlive the interpreter.
void BindViews(Interpreter* interp, views::ViewCatalog* catalog);

}  // namespace gamedb::script
