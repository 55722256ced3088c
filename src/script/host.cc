#include "script/host.h"

#include <limits>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/query.h"
#include "script/builtins.h"
#include "script/parser.h"
#include "views/maintainer.h"

namespace gamedb::script {

namespace {

/// Stable metric-name bucket for a kDirectChecked fallback reason (the
/// reason strings carry entry/table names; registry counters must not).
const char* FallbackCategory(const std::string& reason) {
  if (reason.rfind("no access summary", 0) == 0) return "no_access_summary";
  return "ineligible";
}

/// Seed for one entity's random() stream this tick. SplitMix64-style mixing
/// of (base, tick, entity) — Rng::Seed expands it further, we only need the
/// three inputs to land in distinct, well-separated states.
uint64_t PerEntitySeed(uint64_t base, uint64_t tick, EntityId e) {
  uint64_t x = base;
  x ^= tick * 0x9E3779B97F4A7C15ull;
  x ^= e.Raw() * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 30)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

ScriptHost::ScriptHost(World* world, ScriptHostOptions options)
    : world_(world),
      options_(options),
      exec_(options.num_threads),
      effects_(exec_.shard_count()),
      deferred_(exec_.shard_count()) {
  // kDirect would let pool threads write the World mid-query — the exact
  // race the host exists to prevent. (kDirectChecked is different: writes
  // go in place only when the verifier proved them race-free.)
  GAMEDB_CHECK(options_.mutations != MutationPolicy::kDirect);
  gate_.current.resize(exec_.shard_count());
  gate_.direct_writes.assign(exec_.shard_count(), 0);
  gate_.redirected.assign(exec_.shard_count(), 0);
  shards_.reserve(exec_.shard_count());
  for (size_t i = 0; i < exec_.shard_count(); ++i) {
    auto interp = std::make_unique<Interpreter>(options_.interpreter);
    RegisterCoreBuiltins(interp.get());
    WorldBindOptions bind;
    bind.shard = i;
    bind.mutations = options_.mutations;
    bind.deferred = &deferred_;
    bind.planner = options_.planner;
    bind.direct_gate = &gate_;
    BindWorld(interp.get(), world_, &effects_, bind);
    if (options_.views != nullptr) BindViews(interp.get(), options_.views);
    shards_.push_back(std::move(interp));
  }
  if (options_.telemetry.metrics != nullptr) {
    telemetry::MetricsRegistry* reg = options_.telemetry.metrics;
    instruments_.ticks = reg->GetCounter("script.ticks");
    instruments_.entities = reg->GetCounter("script.entities");
    instruments_.script_errors = reg->GetCounter("script.errors");
    instruments_.effect_contributions =
        reg->GetCounter("script.effect_contributions");
    instruments_.dropped_contributions =
        reg->GetCounter("script.dropped_contributions");
    instruments_.deferred_ops = reg->GetCounter("script.deferred_ops");
    instruments_.deferred_skipped =
        reg->GetCounter("script.deferred_skipped");
    instruments_.direct_ticks = reg->GetCounter("script.direct_ticks");
    instruments_.fallback_ticks = reg->GetCounter("script.fallback_ticks");
    instruments_.direct_writes = reg->GetCounter("script.direct_writes");
    instruments_.direct_redirected =
        reg->GetCounter("script.direct_redirected");
    instruments_.query_phase_ns =
        reg->GetHistogram("script.phase.query_ns");
    instruments_.apply_phase_ns =
        reg->GetHistogram("script.phase.apply_ns");
  }
}

Status ScriptHost::Load(std::string_view source, std::string_view origin) {
  GAMEDB_ASSIGN_OR_RETURN(Script parsed, Parse(source, std::string(origin)));
  diagnostics_.clear();
  verify_report_ = VerifyReport{};
  VerifierOptions vopts;
  vopts.restriction = options_.interpreter.restriction;
  vopts.phase = options_.mutations == MutationPolicy::kReject
                    ? PhaseContext::kParallelReject
                    : PhaseContext::kParallelDefer;
  Interpreter* shard0 = shards_[0].get();
  vopts.is_builtin = [shard0](const std::string& name) {
    return shard0->IsBuiltin(name);
  };
  vopts.schema = ReflectionSchema();
  if (options_.views != nullptr) {
    views::ViewCatalog* catalog = options_.views;
    vopts.schema.has_view = [catalog](const std::string& name) {
      return catalog->Find(name) != nullptr;
    };
    vopts.schema.view_names = [catalog]() { return catalog->ViewNames(); };
  }
  vopts.schema.has_channel = [this](const std::string& name) {
    if (effects_.HasChannel(name)) return true;
    for (const auto& [channel, apply] : channels_) {
      if (channel == name) return true;
    }
    return false;
  };
  vopts.schema.channel_names = [this]() {
    std::vector<std::string> names = effects_.ChannelNames();
    for (const auto& [channel, apply] : channels_) {
      bool known = false;
      for (const std::string& n : names) known = known || n == channel;
      if (!known) names.push_back(channel);
    }
    return names;
  };
  // An event is handled if a previously loaded pack registered a handler
  // for it, or this script declares one itself.
  const Script* raw = &parsed;
  vopts.schema.has_event = [shard0, raw](const std::string& event) {
    if (shard0->HandlerCount(event) > 0) return true;
    for (const Stmt* h : raw->handlers) {
      if (h->name == event) return true;
    }
    return false;
  };
  vopts.cost_budget = options_.script_cost_budget;
  vopts.top_level_must_be_pure = true;
  verify_report_ = Verify(parsed, vopts, &diagnostics_);
  if (diagnostics_.has_errors()) {
    if (options_.strictness == Strictness::kStrict) {
      return Status::InvalidArgument("script verification failed:\n" +
                                     diagnostics_.ToString());
    }
    // kWarn: structural errors still reject (they always have — the
    // script would be unloadable or trivially broken); phase, bindings
    // and cost findings are advisory.
    for (const Diagnostic& d : diagnostics_.diagnostics()) {
      if (d.severity == Severity::kError && d.pass == DiagPass::kStructure) {
        return Status::ParseError(
            d.loc.valid() ? StringFormat("line %d: %s", d.loc.line,
                                         d.message.c_str())
                          : d.message);
      }
    }
  }
  if (!diagnostics_.empty()) {
    for (const Diagnostic& d : diagnostics_.diagnostics()) {
      GAMEDB_LOG(kWarn) << "script verifier: " << d.ToString();
    }
  }
  auto script = std::make_shared<const Script>(std::move(parsed));
  // Unload shards [0, n) — a load that failed partway must leave every
  // interpreter exactly as it was, or the next Load of a corrected script
  // would hit "function already defined" on the shards that succeeded.
  auto roll_back = [this](size_t n) {
    for (size_t i = 0; i < n; ++i) shards_[i]->UnloadLast();
  };
  for (size_t i = 0; i < shards_.size(); ++i) {
    // The verifier's structure pass subsumes each shard's static analysis.
    Status st = shards_[i]->LoadSharedPreanalyzed(script);
    if (!st.ok()) {
      roll_back(i);  // shard i rolled itself back (loading is
                     // transactional); undo the shards before it
      deferred_.Clear();
      effects_.Clear();
      return st;
    }
  }
  // Top-level statements ran once per shard; had they mutated the world or
  // emitted effects, the side effects would now be duplicated shard_count
  // times. Reject instead of applying garbage.
  if (deferred_.size() > 0 || effects_.contribution_count() > 0) {
    roll_back(shards_.size());
    deferred_.Clear();
    effects_.Clear();
    return Status::InvalidArgument(
        "script top level must not mutate the world or emit effects (it runs "
        "once per shard); do it from the host or inside the tick function");
  }
  // Record per-entry direct-write verdicts for kDirectChecked. The verdict
  // combines the entry's own summary (DirectWriteEligible) with the pack
  // conflict graph: an entry that conflicts with ANY co-loaded entry stays
  // on the deferred path, because trigger handlers and other entries may
  // observe its tables mid-phase.
  for (size_t i = 0; i < verify_report_.entries.size(); ++i) {
    const EntryFacts& entry = verify_report_.entries[i];
    if (entry.is_handler) continue;  // handlers never drive RunTick
    DirectEntry verdict;
    verdict.eligible = DirectWriteEligible(entry, &verdict.reason);
    if (verdict.eligible) {
      for (const ConflictEdge& edge : verify_report_.conflicts) {
        if (edge.a != i && edge.b != i) continue;
        const EntryFacts& other =
            verify_report_.entries[edge.a == i ? edge.b : edge.a];
        verdict.eligible = false;
        verdict.reason =
            "conflicts with '" + other.name + "' (" + edge.reason + ")";
        break;
      }
    }
    direct_eligible_[entry.name] = std::move(verdict);
  }
  return Status::OK();
}

std::pair<bool, std::string> ScriptHost::DirectVerdict(
    const std::string& fn) const {
  auto it = direct_eligible_.find(fn);
  if (it == direct_eligible_.end()) {
    return {false,
            "no access summary for '" + fn + "' (not loaded)"};
  }
  return {it->second.eligible, it->second.reason};
}

void ScriptHost::OnChannel(std::string name,
                           std::function<void(EntityId, double)> apply) {
  channels_.emplace_back(std::move(name), std::move(apply));
}

void ScriptHost::SetGlobal(const std::string& name, const Value& v) {
  for (auto& shard : shards_) shard->SetGlobal(name, v);
}

std::vector<std::string> ScriptHost::DrainOutput() {
  std::vector<std::string> out;
  for (auto& shard : shards_) {
    for (const std::string& line : shard->output()) out.push_back(line);
    shard->ClearOutput();
  }
  return out;
}

void ScriptHost::PrewarmStores() {
  TypeRegistry& reg = TypeRegistry::Global();
  for (uint32_t id = 0; id < reg.size(); ++id) {
    world_->StoreById(id);
  }
}

Result<ScriptTickStats> ScriptHost::RunTick(
    const std::string& fn, const std::vector<EntityId>& entities) {
  if (!shards_[0]->HasFunction(fn)) {
    return Status::NotFound("no script function '" + fn +
                            "' loaded in this host");
  }
  PrewarmStores();
  ScriptTickStats stats;
  // Arm the direct-write gate only when the load-time analysis proved this
  // entry disjoint; anything unprovable falls back to kDefer. The deferred
  // Touch replay is an ordinary tracked update, so every change-log
  // consumer (views, replication, maintained aggregates) sees the writes.
  bool direct = false;
  if (options_.mutations == MutationPolicy::kDirectChecked) {
    auto [eligible, reason] = DirectVerdict(fn);
    direct = eligible;
    if (direct) {
      ++direct_ticks_;
    } else {
      stats.fallback_reason = std::move(reason);
      ++fallback_ticks_;
      ++fallback_reason_counts_[stats.fallback_reason];
      if (options_.telemetry.metrics != nullptr) {
        options_.telemetry.metrics
            ->GetCounter(std::string("script.fallback.") +
                         FallbackCategory(stats.fallback_reason))
            ->Increment();
      }
    }
  }
  stats.direct_checked = direct;
  gate_.enabled = direct;
  // Pre-create the wired channels so steady-state emits take only the
  // shared-lock path in ScriptEffects::Channel.
  for (const auto& [name, apply] : channels_) {
    effects_.Channel(name);
  }

  stats.entities = entities.size();

  const size_t nshards = shards_.size();
  std::vector<uint64_t> fuel_before(nshards);
  for (size_t i = 0; i < nshards; ++i) {
    fuel_before[i] = shards_[i]->total_fuel_used();
  }
  // Per-shard error records, reduced after the join so the reported error
  // is the earliest in entity order regardless of execution interleaving.
  constexpr size_t kNone = std::numeric_limits<size_t>::max();
  std::vector<Status> first_status(nshards, Status::OK());
  std::vector<size_t> first_index(nshards, kNone);
  std::vector<size_t> error_count(nshards, 0);

  const uint64_t tick = world_->tick();
  const uint64_t base_seed = options_.interpreter.rng_seed;
  telemetry::Tracer* tracer = options_.telemetry.tracer;

  // --- Query phase (parallel): read-only against tick-start state. -------
  {
    telemetry::TraceSpan query_span(tracer, "script.query_phase", 0,
                                    instruments_.query_phase_ns);
    exec_.pool().ParallelForChunks(
        entities.size(), [&](size_t chunk, size_t begin, size_t end) {
          // Shard spans on tid = shard + 1: the fan-out reads as parallel
          // tracks under the tid-0 sequential timeline in chrome://tracing.
          telemetry::TraceSpan shard_span(tracer, "script.shard",
                                          static_cast<uint32_t>(chunk) + 1);
          Interpreter& interp = *shards_[chunk];
          for (size_t i = begin; i < end; ++i) {
            EntityId e = entities[i];
            if (!world_->Alive(e)) continue;
            // Under an armed gate, tell the shard's bindings which entity
            // is being ticked — set() writes in place only on that entity.
            if (direct) gate_.current[chunk] = e;
            // Per-entity random() stream: independent of the partition.
            interp.rng().Seed(PerEntitySeed(base_seed, tick, e));
            Result<Value> r = interp.Call(fn, {Value(e)});
            if (!r.ok()) {
              ++error_count[chunk];
              if (first_index[chunk] == kNone) {
                first_index[chunk] = i;
                first_status[chunk] = r.status();
              }
            }
          }
        });
  }
  gate_.enabled = false;
  for (size_t i = 0; i < nshards; ++i) {
    stats.direct_writes += gate_.direct_writes[i];
    stats.direct_redirected += gate_.redirected[i];
    gate_.direct_writes[i] = 0;
    gate_.redirected[i] = 0;
  }

  size_t earliest = kNone;
  for (size_t i = 0; i < nshards; ++i) {
    stats.script_errors += error_count[i];
    stats.fuel_used += shards_[i]->total_fuel_used() - fuel_before[i];
    if (first_index[i] < earliest) {
      earliest = first_index[i];
      stats.first_error = first_status[i];
    }
  }
  stats.effect_contributions = effects_.contribution_count();
  stats.deferred_ops = deferred_.size();

  // --- Apply phase (sequential, deterministic). --------------------------
  {
    telemetry::TraceSpan apply_span(tracer, "script.apply_phase", 0,
                                    instruments_.apply_phase_ns);
    // 1. Effect channels, in registration order.
    for (const auto& [name, apply] : channels_) {
      effects_.Drain(name, apply);
    }
    stats.dropped_contributions = effects_.contribution_count();
    effects_.Clear();
    // 2. Deferred structural ops, in shard order (== entity order).
    deferred_.Apply(world_, &stats.deferred_skipped);
  }

  if (instruments_.ticks != nullptr) {
    instruments_.ticks->Increment();
    instruments_.entities->Add(stats.entities);
    instruments_.script_errors->Add(stats.script_errors);
    instruments_.effect_contributions->Add(stats.effect_contributions);
    instruments_.dropped_contributions->Add(stats.dropped_contributions);
    instruments_.deferred_ops->Add(stats.deferred_ops);
    instruments_.deferred_skipped->Add(stats.deferred_skipped);
    if (options_.mutations == MutationPolicy::kDirectChecked) {
      instruments_.direct_ticks->Add(stats.direct_checked ? 1 : 0);
      instruments_.fallback_ticks->Add(stats.direct_checked ? 0 : 1);
    }
    instruments_.direct_writes->Add(stats.direct_writes);
    instruments_.direct_redirected->Add(stats.direct_redirected);
  }

  return stats;
}

Result<ScriptTickStats> ScriptHost::RunTickOver(const std::string& fn,
                                                const std::string& component) {
  DynamicQuery q(world_);
  q.SetPlanner(options_.planner).With(component);
  GAMEDB_ASSIGN_OR_RETURN(std::vector<EntityId> entities, q.Collect());
  return RunTick(fn, entities);
}

}  // namespace gamedb::script
