#pragma once

/// \file triggers.h
/// Event trigger system: the data-driven "specify event triggers" facility
/// the tutorial's content-creation section describes. Game code (or other
/// scripts) fire named events; GSL `on <event>(...)` handlers run in
/// response. Events fired from inside handlers are queued and processed
/// breadth-first with a cascade-depth limit, so designer content cannot
/// recurse the engine to death.

#include <deque>
#include <string>
#include <vector>

#include "common/status.h"
#include "script/interpreter.h"

namespace gamedb::views {
class LiveView;
}  // namespace gamedb::views

namespace gamedb::script {

/// Options for TriggerSystem.
struct TriggerOptions {
  /// Maximum cascade depth: an event fired by a handler at depth d runs at
  /// depth d+1; events beyond the limit are dropped and counted.
  uint32_t max_cascade_depth = 8;
  /// Maximum queued events per pump (backstop against event storms).
  size_t max_queue = 4096;
};

/// Statistics for observability and the E10/E11 harnesses.
struct TriggerStats {
  uint64_t fired = 0;         // events enqueued by hosts or handlers
  uint64_t handled = 0;       // handler invocations completed
  uint64_t dropped_depth = 0; // events dropped at the cascade limit
  uint64_t dropped_queue = 0; // events dropped because the queue was full
  uint64_t errors = 0;        // handler errors (first error is returned)
};

/// Queued-event dispatcher over an Interpreter.
class TriggerSystem {
 public:
  explicit TriggerSystem(Interpreter* interp, TriggerOptions options = {});
  /// Unsubscribes every WatchView registration (views fired after this
  /// system is gone must not call into it).
  ~TriggerSystem();

  /// Enqueues an event at cascade depth 0.
  void Fire(const std::string& event, std::vector<Value> args);

  /// Enqueues an event from inside a handler (inherits depth + 1). Hosts
  /// normally expose this to scripts via the `fire` builtin that
  /// InstallFireBuiltin registers.
  void FireFrom(uint32_t parent_depth, const std::string& event,
                std::vector<Value> args);

  /// Processes the queue until empty. Returns the first handler error (but
  /// continues processing the rest of the queue regardless).
  Status Pump();

  /// Registers the `fire("event", args...)` builtin on the interpreter,
  /// wired to this system with correct cascade depths.
  void InstallFireBuiltin();

  /// Subscribes to a LiveView (views/view.h) so GSL `on <event>(e)`
  /// handlers run on membership changes: entering entities enqueue
  /// `enter_event`, leaving ones `exit_event`, tracked writes to current
  /// members `update_event` — each with the entity as the only argument;
  /// an empty event name skips that transition. Events enqueue at cascade
  /// depth 0 during view maintenance (a sequential point) and run at the
  /// next Pump(), where handlers may mutate the world — the maintenance
  /// phase itself stays read-only. The destructor unsubscribes, so destroy
  /// this system while the watched view is still registered.
  void WatchView(views::LiveView* view, std::string enter_event,
                 std::string exit_event, std::string update_event = "");

  const TriggerStats& stats() const { return stats_; }
  size_t pending() const { return queue_.size(); }

 private:
  struct Pending {
    std::string event;
    std::vector<Value> args;
    uint32_t depth;
  };

  /// One WatchView registration (handles into the view's callback lists).
  struct Watch {
    views::LiveView* view;
    size_t enter = kNoHandle;
    size_t exit = kNoHandle;
    size_t update = kNoHandle;
  };
  static constexpr size_t kNoHandle = static_cast<size_t>(-1);

  Interpreter* interp_;
  TriggerOptions options_;
  std::deque<Pending> queue_;
  std::vector<Watch> watches_;
  TriggerStats stats_;
  uint32_t current_depth_ = 0;  // depth of the event being handled
};

}  // namespace gamedb::script
