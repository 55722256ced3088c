#pragma once

/// \file txn.h
/// Game transactions. The tutorial's consistency section frames player
/// actions as transactions over the world database: conflicting actions
/// arrive at a very high rate, and "traditional approaches such as locking
/// transactions are often too slow for games". This module defines the
/// action vocabulary (attack / trade / move / area-of-effect) and the
/// executor interface; concrete engines live in executors.h and bubbles.h.
///
/// Paper: the transaction-processing / consistency section of the tutorial
/// (conflicting player actions at high rate, why classical locking
/// struggles, EVE-style partitioning as the games-industry answer).
///
/// Concurrency contract: transactions only mutate component *values* of
/// pre-declared participant entities (no structural inserts/removes), so an
/// executor guaranteeing per-entity mutual exclusion guarantees race
/// freedom. Value mutation goes through GetMutableUntracked — the table's
/// shared version counter is not touched from worker threads.

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/reflect.h"
#include "core/world.h"

namespace gamedb::txn {

/// Kind of player action.
enum class TxnType : uint8_t {
  kAttack,  // a damages b: b.Health.hp -= max(1, a.atk - b.def)
  kTrade,   // a gives `amount` gold to b (clamped to a's balance)
  kMove,    // a moves to `dest`
  kAoe,     // a damages every entity in `extra`
};

/// One transaction: participants are declared up front (games know the
/// targets of an action before executing it), which is what lets the bubble
/// executor route transactions and the locking executors sort lock
/// acquisition.
struct GameTxn {
  TxnType type = TxnType::kMove;
  EntityId a;                    // initiator (always written for kMove)
  EntityId b;                    // target (attack/trade)
  float amount = 0.0f;           // damage override / gold amount
  Vec3 dest;                     // move destination
  std::vector<EntityId> extra;   // aoe targets
  /// Synthetic CPU work units burned inside the transaction (hash rounds),
  /// modelling the combat-table / inventory-validation / script-hook work a
  /// real action performs. 0 = bare mutation; ~500 ≈ 1µs.
  uint32_t work_units = 0;

  /// Entities whose components this transaction may write.
  void AppendWriteSet(std::vector<EntityId>* out) const;
  /// Entities read (superset of writes for our vocabulary).
  void AppendReadSet(std::vector<EntityId>* out) const;
};

/// Applies `t` against `world` assuming the caller already guarantees
/// isolation on the participant set. All mutations are commutative where
/// game semantics allow (damage subtraction, gold transfer), so batch
/// outcomes are order-insensitive except kMove (last writer wins).
void ApplyTxn(World* world, const GameTxn& t);

/// Sequential post-batch publish pass: Touches every component store of
/// every entity a batch wrote, appending the change records that make the
/// parallel executors' untracked writes visible to every change-log
/// consumer (delta replication, views, maintained aggregates).
void PublishBatchDirty(World* world, const std::vector<GameTxn>& batch);

/// Executor metrics for E5/E6.
struct ExecStats {
  uint64_t committed = 0;
  uint64_t aborted = 0;       // OCC validation failures (before retry)
  uint64_t lock_acquisitions = 0;
  // Bubble executor extras:
  uint64_t bubble_count = 0;
  uint64_t max_bubble_size = 0;
  uint64_t cross_bubble_txns = 0;

  void Merge(const ExecStats& o) {
    committed += o.committed;
    aborted += o.aborted;
    lock_acquisitions += o.lock_acquisitions;
    bubble_count += o.bubble_count;
    max_bubble_size = std::max(max_bubble_size, o.max_bubble_size);
    cross_bubble_txns += o.cross_bubble_txns;
  }
};

/// A concurrency-control engine executing one tick's batch of transactions
/// with `pool`'s workers. Every transaction in the batch is applied exactly
/// once; engines differ in how they provide isolation.
class TxnExecutor {
 public:
  virtual ~TxnExecutor() = default;
  virtual const char* Name() const = 0;
  virtual ExecStats ExecuteBatch(World* world,
                                 const std::vector<GameTxn>& batch,
                                 ThreadPool* pool) = 0;
};

}  // namespace gamedb::txn
