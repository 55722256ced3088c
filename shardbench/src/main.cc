// shardbench — closed-loop shard-tick benchmark.
//
//   shardbench --workload crowd|horde|churn --seed N --seconds S --trace 0|1
//              --root DIR [--trace-out FILE] [--threads N] [--small]
//
// A run generates the seeded shard once, then repeats episodes while the
// next one still ends within S seconds (at least four untraced ones).
// Each episode cold-starts a fresh stack from the stored bytes (set-up
// samples), runs untimed warm-up ticks and 1000 timed ticks, and ends with
// the correctness checks. Every episode does identical work, so its world
// hash and exact counters must repeat, and tick i of one episode is tick i
// of every other. Untraced runs print the end-to-end metrics; traced runs
// alternate untraced and traced episodes and print the per-layer metrics.
// The last stdout line is the JSON result.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace shardbench {
namespace {

/// Set-up samples per episode: extra cold starts (stack discarded) plus the
/// episode's own, so set-up is sampled across the whole run.
constexpr size_t kColdStartsPerEpisode = 5;
/// Untraced episodes a run needs: each timed tick's cost is the upper
/// quartile of its wall times over them, which drops one stall per tick
/// only from four episodes on.
constexpr size_t kMinUntracedEpisodes = 4;
constexpr double kMaxRunSeconds = 120.0;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string trace_out;
  size_t threads = 1;  ///< script threads
  bool small = false;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--small") {
      o->small = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (a == "--workload") {
      o->workload = v;
    } else if (a == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o->seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      o->trace = std::strcmp(v, "1") == 0;
    } else if (a == "--root") {
      o->root = v;
    } else if (a == "--trace-out") {
      o->trace_out = v;
    } else if (a == "--threads") {
      o->threads = std::strtoull(v, nullptr, 10);
    } else {
      return false;
    }
  }
  return FindWorkload(o->workload) != nullptr && o->threads >= 1;
}

Status ReadFile(const std::string& path, std::string* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::IOError("cannot read " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  *out = ss.str();
  return Status::OK();
}

/// Nearest-rank percentile, computed exactly from the samples.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::max<size_t>(rank, 1) - 1];
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Each timed tick's cost: the upper quartile (nearest rank) of its wall
/// times over the episodes. `ms` holds `episodes` runs of the same ticks,
/// one after another, so tick i is the same work in every episode. On a
/// shared host, other tenants slow every CPU for seconds at a time, and the
/// share of a run that falls in their quiet phases differs from run to run;
/// the upper quartile reads each tick in the host's usual, loaded state
/// whatever that share, keeps what the tick itself costs (a checkpoint, a
/// login storm), and drops a stall that hit one episode.
std::vector<double> PerTickCosts(const std::vector<double>& ms,
                                 size_t episodes) {
  const size_t ticks = ms.size() / std::max<size_t>(episodes, 1);
  std::vector<double> costs(ticks);
  std::vector<double> same(episodes);
  for (size_t i = 0; i < ticks; ++i) {
    for (size_t e = 0; e < episodes; ++e) same[e] = ms[e * ticks + i];
    costs[i] = Percentile(same, 75);
  }
  return costs;
}

/// Peak resident set of this process image in MB: VmHWM, which exec
/// resets, so the launcher's memory from before the exec (e.g. the Python
/// runner's) is not counted.
Result<double> PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return Status::IOError("no VmHWM in /proc/self/status");
}

/// Everything one run accumulates over its episodes.
struct RunState {
  std::vector<double> untraced_tick_ms;  ///< episode after episode
  std::vector<double> traced_tick_ms;
  std::vector<double> setup_s;
  std::vector<double> checkpoint_tick_end_ms;  ///< traced checkpoint ticks
  Counts counts;  ///< one episode's exact counts; every episode must match
  Counts traced;  ///< one traced episode's counts, view work included
  size_t episodes = 0;
  size_t traced_episodes = 0;
  size_t untraced_episodes() const { return episodes - traced_episodes; }
  size_t diverged = 0;
  uint32_t world_hash = 0;
  SpanRecorder spans;
};

/// One cold start into a fresh stack, timed as set-up.
Status ColdStart(const Inputs& in, size_t threads, SpanRecorder* trace,
                 std::unique_ptr<Shard>* shard, RunState* run) {
  persist::MemStorage stored = in.stored;  // the bytes "on disk"
  if (trace != nullptr) trace->set_tick(0);
  const uint64_t t0 = NowNs();
  Status st;
  {
    ScopedSpan setup(trace, "setup");
    *shard = std::make_unique<Shard>(in, std::move(stored), threads, trace);
    st = (*shard)->ColdStart();
  }
  run->setup_s.push_back((NowNs() - t0) / 1e9);
  GAMEDB_RETURN_NOT_OK(st);
  if (HashWorld((*shard)->world()) != in.stored_hash) {
    return Status::Corruption("recovered world differs from the generated one");
  }
  return Status::OK();
}

Status RunEpisode(const Inputs& in, size_t threads, bool traced,
                  RunState* run) {
  SpanRecorder* trace = traced ? &run->spans : nullptr;
  std::unique_ptr<Shard> shard;
  GAMEDB_RETURN_NOT_OK(ColdStart(in, threads, trace, &shard, run));

  shard->set_trace(nullptr);
  Counts warm;
  uint64_t t = 1;
  for (; t <= in.spec.warmup_ticks; ++t) {
    GAMEDB_RETURN_NOT_OK(shard->Tick(t, &warm));
  }
  shard->set_trace(trace);
  Counts c;
  shard->SnapshotLayers(&c, -1);
  std::vector<double>& tick_ms =
      traced ? run->traced_tick_ms : run->untraced_tick_ms;
  for (; t <= in.spec.warmup_ticks + in.spec.timed_ticks; ++t) {
    const uint64_t t0 = NowNs();
    GAMEDB_RETURN_NOT_OK(shard->Tick(t, &c));
    tick_ms.push_back((NowNs() - t0) / 1e6);
    if (traced && shard->checkpointed()) {
      const Span* s = &run->spans.spans().back();
      while (std::strcmp(s->name, "persist.tick_end") != 0) --s;
      run->checkpoint_tick_end_ms.push_back((s->end_ns - s->start_ns) / 1e6);
    }
  }
  shard->SnapshotLayers(&c, +1);

  // Correctness: replicas match the server on the rows they hold, the
  // world hash repeats, and a crash right now recovers the same world.
  run->diverged += shard->DivergedReplicas();
  const uint32_t hash = HashWorld(shard->world());
  GAMEDB_RETURN_NOT_OK(shard->CheckRecovery(hash));
  Counts work = c;
  work.reevaluations = work.useful = work.repopulations = 0;
  if (run->episodes == 0) {
    run->world_hash = hash;
    run->counts = work;
  } else if (hash != run->world_hash || !(work == run->counts)) {
    return Status::Corruption("episode " + std::to_string(run->episodes) +
                              " did different work than episode 0");
  }
  if (traced) {
    if (run->traced_episodes == 0) {
      run->traced = c;
    } else if (!(c == run->traced)) {
      return Status::Corruption("view maintenance work differs by episode");
    }
    ++run->traced_episodes;
  }
  ++run->episodes;
  return Status::OK();
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// End-to-end metrics of an untraced run.
Status EndToEnd(const RunState& run, std::vector<Metric>* out) {
  const Counts& c = run.counts;
  const std::vector<double> costs =
      PerTickCosts(run.untraced_tick_ms, run.untraced_episodes());
  double tick_s = 0.0;
  for (double ms : costs) tick_s += ms / 1e3;
  Result<double> rss = PeakRssMb();
  GAMEDB_RETURN_NOT_OK(rss.status());
  *out = {
      {"tick_p50_ms", Percentile(costs, 50), "ms"},
      {"tick_p99_ms", Percentile(costs, 99), "ms"},
      {"entity_ticks_per_s",
       Ratio(static_cast<double>(c.alive_sum), tick_s), "1/s"},
      {"setup_s", Percentile(run.setup_s, 50), "s"},
      {"peak_rss_mb", *rss, "MB"},
      {"sync_bytes_per_client_tick", Ratio(c.sync_bytes, c.client_syncs), "B"},
      {"storage_bytes_per_tick",
       Ratio(c.wal_bytes + c.checkpoint_bytes, c.ticks), "B"},
  };
  return Status::OK();
}

/// Which metric each span's self time feeds; every span name must appear.
struct SpanMetric {
  const char* span;
  const char* metric;
};
constexpr SpanMetric kTickSpans[] = {
    {"tick", "tick.unattributed_ms"},
    {"core.advance_tick", "core.mutate_ms"},
    {"core.mutate", "core.mutate_ms"},
    {"content.instantiate", "content.instantiate_ms"},
    {"replication.add_client", "replication.login_ms"},
    {"replication.remove_client", "replication.login_ms"},
    {"planner.refresh", "planner.refresh_ms"},
    {"views.maintain_pre_script", "views.maintain_pre_script_ms"},
    {"script.run_tick", "script.run_tick_ms"},
    {"persist.on_event", "persist.on_event_ms"},
    {"views.maintain_pre_sync", "views.maintain_pre_sync_ms"},
    {"replication.sync", "replication.sync_ms"},
    {"persist.tick_end", "persist.tick_end_ms"},
};
constexpr SpanMetric kSetupSpans[] = {
    {"setup", "setup.unattributed_ms"},
    {"persist.recover", "persist.recover_ms"},
    {"planner.analyze", "planner.analyze_ms"},
    {"views.register", "views.register_ms"},
    {"script.load", "script.load_ms"},
    {"replication.reconnect", "replication.reconnect_ms"},
};

/// Mean self time per root, in ms, for every metric of `table`; checks
/// that each span name is known and that the metrics add up to the mean
/// root span.
template <size_t N>
Status LayerTimes(const SpanTotals& totals, const SpanMetric (&table)[N],
                  std::vector<Metric>* out, double* mean_root_ms) {
  std::vector<Metric> times;
  for (const SpanMetric& m : table) {
    if (std::none_of(times.begin(), times.end(),
                     [&](const Metric& t) { return t.name == m.metric; })) {
      times.push_back({m.metric, 0.0, "ms"});
    }
  }
  const double roots = static_cast<double>(std::max<uint64_t>(totals.roots, 1));
  double sum = 0.0;
  for (const auto& [name, ns] : totals.self_ns) {
    const SpanMetric* m = std::find_if(
        std::begin(table), std::end(table),
        [&](const SpanMetric& s) { return name == s.span; });
    if (m == std::end(table)) {
      return Status::Corruption("span without a metric: " + name);
    }
    for (Metric& t : times) {
      if (t.name == m->metric) t.value += ns / 1e6 / roots;
    }
    sum += ns / 1e6 / roots;
  }
  *mean_root_ms = totals.root_ns / 1e6 / roots;
  if (std::abs(sum - *mean_root_ms) > 1e-9 * std::max(1.0, *mean_root_ms)) {
    return Status::Corruption("layer times do not add up to the root span");
  }
  out->insert(out->end(), times.begin(), times.end());
  return Status::OK();
}

/// Per-layer metrics of a traced run.
Status PerLayer(const RunState& run, std::vector<Metric>* out) {
  GAMEDB_RETURN_NOT_OK(CheckSpans(run.spans.spans()));
  const SpanTotals tick = Aggregate(run.spans.spans(), "tick");
  const SpanTotals setup = Aggregate(run.spans.spans(), "setup");
  double tick_mean_ms = 0.0, setup_mean_ms = 0.0;
  std::vector<Metric> m;
  GAMEDB_RETURN_NOT_OK(LayerTimes(tick, kTickSpans, &m, &tick_mean_ms));
  GAMEDB_RETURN_NOT_OK(LayerTimes(setup, kSetupSpans, &m, &setup_mean_ms));

  const Counts& c = run.traced;
  const double ticks = static_cast<double>(c.ticks);
  const double traced_ticks = ticks * run.traced_episodes;
  const double sync_ms = tick.SelfNs("replication.sync") / 1e6;
  const double script_ms = tick.SelfNs("script.run_tick") / 1e6;
  const double lookups = static_cast<double>(c.plan_hits + c.plan_misses);
  const double untraced_p50 = Percentile(run.untraced_tick_ms, 50);
  const double traced_p50 = Percentile(run.traced_tick_ms, 50);
  m.insert(
      m.end(),
      {
          {"replication.sync_us_per_client",
           Ratio(sync_ms * 1e3, c.client_syncs * run.traced_episodes), "us"},
          {"replication.rows_per_client_tick",
           Ratio(c.sync_rows, c.client_syncs), "count"},
          {"replication.removals_per_client_tick",
           Ratio(c.sync_removals, c.client_syncs), "count"},
          {"script.us_per_entity",
           Ratio(script_ms * 1e3, c.entity_ticks * run.traced_episodes), "us"},
          {"script.fuel_per_entity", Ratio(c.fuel, c.entity_ticks), "count"},
          {"script.effects_per_entity", Ratio(c.effects, c.entity_ticks),
           "count"},
          {"script.dropped_effects_per_tick", c.dropped_effects / ticks,
           "count"},
          {"script.errors", static_cast<double>(c.script_errors), "count"},
          {"planner.stats_refreshes_per_tick", c.stats_refreshes / ticks,
           "count"},
          {"planner.spatial_index_builds_per_tick", c.spatial_builds / ticks,
           "count"},
          {"planner.plan_cache_hit_ratio", Ratio(c.plan_hits, lookups),
           "ratio"},
          {"planner.plan_cache_lookups_per_tick", lookups / ticks, "count"},
          {"views.change_records_per_tick", c.change_records / ticks, "count"},
          {"views.reevaluations_per_tick", c.reevaluations / ticks, "count"},
          {"views.useful_reevaluation_ratio",
           Ratio(c.useful, c.reevaluations), "ratio"},
          {"views.repopulations_per_tick", c.repopulations / ticks, "count"},
          {"core.rows_written_per_tick", c.rows_written / ticks, "count"},
          {"core.created_per_tick", c.created / ticks, "count"},
          {"core.destroyed_per_tick", c.destroyed / ticks, "count"},
          {"core.alive_entities", c.alive_sum / ticks, "count"},
          {"content.instantiated_per_tick", c.instantiated / ticks, "count"},
          {"persist.checkpoint_ms", Percentile(run.checkpoint_tick_end_ms, 50),
           "ms"},
          {"persist.checkpoints_per_1k_ticks", 1e3 * c.checkpoints / ticks,
           "count"},
          {"persist.wal_bytes_per_tick", c.wal_bytes / ticks, "B"},
          {"persist.checkpoint_bytes_per_tick", c.checkpoint_bytes / ticks,
           "B"},
          {"persist.syncs_per_tick", c.storage_syncs / ticks, "count"},
          {"tick.mean_ms", tick_mean_ms, "ms"},
          {"tick.samples", traced_ticks, "count"},
          {"tick.p50_ms", traced_p50, "ms"},
          {"tick.p99_ms", Percentile(run.traced_tick_ms, 99), "ms"},
          {"setup.mean_ms", setup_mean_ms, "ms"},
          {"setup.samples", static_cast<double>(setup.roots), "count"},
          {"trace.overhead_pct", 100.0 * (Ratio(traced_p50, untraced_p50) - 1),
           "%"},
          {"trace.untraced_tick_p50_ms", untraced_p50, "ms"},
      });
  *out = std::move(m);
  return Status::OK();
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "shardbench: FAILED: %s\n", what.c_str());
  std::fflush(stdout);
  PrintResult(false, 1, 1, {});
  return 1;
}

int Run(const Options& opt) {
  gamedb::RegisterStandardComponents();
  WorkloadSpec spec = *FindWorkload(opt.workload);
  if (opt.small) {
    spec.npcs /= 8;
    spec.clients = std::max<size_t>(2, spec.clients / 4);
    spec.warmup_ticks = 5;
    spec.timed_ticks = 60;
  }
  const size_t threads = opt.threads;

  // Inputs: the behaviour pack, the short-lived prefabs, the stored shard.
  const std::string pack_path =
      spec.horde_pack ? opt.root + "/shardbench/packs/horde.gsl"
                      : opt.root + "/assets/scripts/loadgen_combat.gsl";
  std::string pack, prefab_xml;
  Status st = ReadFile(pack_path, &pack);
  if (st.ok()) {
    st = ReadFile(opt.root + "/shardbench/packs/short_lived.xml", &prefab_xml);
  }
  if (!st.ok()) return Fail(st.ToString());
  Result<content::PrefabLibrary> prefabs =
      content::PrefabLibrary::Load(prefab_xml);
  if (!prefabs.ok()) return Fail(prefabs.status().ToString());
  Inputs in;
  const std::string origin = pack_path.substr(pack_path.rfind('/') + 1);
  st = Generate(spec, opt.seed, pack, origin, std::move(*prefabs), &in);
  if (!st.ok()) return Fail("generate: " + st.ToString());

  RunState run;
  SpanRecorder* setup_trace = opt.trace ? &run.spans : nullptr;
  const uint64_t start = NowNs();
  for (;;) {
    const uint64_t episode_start = NowNs();
    for (size_t k = 1; k < (opt.small ? 2 : kColdStartsPerEpisode); ++k) {
      std::unique_ptr<Shard> shard;
      st = ColdStart(in, threads, setup_trace, &shard, &run);
      if (!st.ok()) return Fail("cold start: " + st.ToString());
    }
    const bool traced = opt.trace && run.episodes % 2 == 1;
    st = RunEpisode(in, threads, traced, &run);
    if (!st.ok()) return Fail(st.ToString());
    const uint64_t now = NowNs();
    const double elapsed = (now - start) / 1e9;
    bool enough = opt.trace ? run.episodes >= 2 : run.episodes >= 1;
    if (!opt.small) {
      // Stop when one more episode like the last would overrun --seconds.
      enough = (opt.trace ? run.traced_episodes >= 1
                          : run.episodes >= kMinUntracedEpisodes) &&
               elapsed + (now - episode_start) / 1e9 > opt.seconds;
    }
    if (enough || elapsed >= kMaxRunSeconds) break;
  }

  const Counts& c = run.counts;
  const uint64_t attempted =
      run.episodes * (c.ticks + c.entity_ticks + c.client_syncs);
  const uint64_t failed = run.episodes * c.script_errors + run.diverged;
  std::vector<std::string> problems;
  if (c.script_errors > 0) problems.push_back("script errors");
  if (run.diverged > 0) problems.push_back("replica divergence");

  std::vector<Metric> metrics;
  if (opt.trace) {
    st = PerLayer(run, &metrics);
    if (!st.ok()) problems.push_back("trace: " + st.ToString());
    if (!opt.trace_out.empty()) {
      const Status written = WriteTrace(run.spans.spans(), opt.trace_out);
      if (!written.ok()) problems.push_back(written.ToString());
    }
  } else {
    st = EndToEnd(run, &metrics);
    if (!st.ok()) problems.push_back(st.ToString());
  }

  std::printf("shardbench %s seed=%" PRIu64
              " trace=%d threads=%zu npcs=%zu clients=%zu\n",
              spec.name, opt.seed, opt.trace ? 1 : 0, threads, spec.npcs,
              spec.clients);
  std::printf("episodes=%zu (traced %zu) warmup_ticks=%" PRIu64
              " timed_ticks=%" PRIu64 " per episode; setup samples=%zu\n",
              run.episodes, run.traced_episodes, spec.warmup_ticks,
              spec.timed_ticks, run.setup_s.size());
  std::printf("samples: ticks=%zu (untraced %zu: p50 and p99 over %" PRIu64
              " tick costs, each the upper quartile of %zu episodes; pooled"
              " p50 %.4f ms, p99 %.4f ms) entity_ticks=%" PRIu64
              " client_syncs=%" PRIu64 "\n",
              run.untraced_tick_ms.size() + run.traced_tick_ms.size(),
              run.untraced_tick_ms.size(), c.ticks, run.untraced_episodes(),
              Percentile(run.untraced_tick_ms, 50),
              Percentile(run.untraced_tick_ms, 99),
              run.episodes * c.entity_ticks, run.episodes * c.client_syncs);
  std::printf("world_hash=%08" PRIx32 " stored_hash=%08" PRIx32 "\n",
              run.world_hash, in.stored_hash);
  std::printf("checks: script_errors=%" PRIu64
              " diverged_replicas=%zu recovery=ok episodes_repeat=ok%s\n",
              c.script_errors, run.diverged,
              !opt.trace ? "" : st.ok() ? " spans=ok" : " spans=FAILED");
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  if (!problems.empty()) {
    std::string all;
    for (const std::string& p : problems) all += p + "; ";
    return Fail(all);
  }
  PrintResult(true, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace shardbench

int main(int argc, char** argv) {
  shardbench::Options opt;
  if (!shardbench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: shardbench --workload crowd|horde|churn --seed N "
                 "--seconds S --trace 0|1 --root DIR [--trace-out FILE] "
                 "[--threads N] [--small]\n");
    return 2;
  }
  return shardbench::Run(opt);
}
