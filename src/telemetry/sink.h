#pragma once

/// \file sink.h
/// TelemetrySink: the one hook subsystem options structs carry. All
/// pointers are optional and non-owning — the caller (loadgen's Driver, a
/// game server) owns the registry/tracer/recorder/watchdog and must keep
/// them alive for the subsystem's lifetime. A default-constructed sink is
/// inert: every instrument lookup is skipped and spans cost one null
/// check.
///
/// `recorder` and `watchdog` are the continuous-observability pair:
/// subsystems never call them directly — only the sequential point of the
/// tick samples the recorder and evaluates the watchdog, through
/// `TickHeartbeat` — but carrying them on the sink lets any layer that owns
/// the tick loop (loadgen's Driver, scripted_world) reach them without new
/// plumbing.

#include "telemetry/registry.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"
#include "telemetry/watchdog.h"

namespace gamedb::telemetry {

struct TelemetrySink {
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
  /// Per-tick flight recorder; sampled at the sequential point only.
  FlightRecorder* recorder = nullptr;
  /// Health rules over the recorder; evaluated right after Sample().
  Watchdog* watchdog = nullptr;

  /// One call for the sequential point: sample the recorder, evaluate the
  /// watchdog, return rules that newly tripped at this tick.
  std::vector<std::string> TickHeartbeat(uint64_t tick) const {
    if (recorder != nullptr) recorder->Sample(tick);
    if (watchdog != nullptr) return watchdog->Evaluate(tick);
    return {};
  }
};

}  // namespace gamedb::telemetry
