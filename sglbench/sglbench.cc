// sglbench — the repository benchmark.
//
// Runs one named workload through the engine's public API and prints its
// metrics. The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) record spans around every engine call the benchmark makes,
// write them as Chrome trace-event JSON, and report the per-layer metrics.
//
// Workloads (BENCHMARK.json records why each one was chosen):
//   fig10-indexed     battle, indexed evaluator, 12,000 units, 1 thread
//   fig10-naive       battle, naive evaluator, 700 units, 1 thread, checked
//                     bit-identical against an indexed twin
//   durable-sessions  four storage-backed 2,000-unit worlds served by one
//                     SessionManager on a 2-thread pool, with injected
//                     actions, then closed, rebuilt and restored
//
// Every workload is a single-client closed loop: the next tick (or round)
// starts when the previous one returns, so a faster engine gets more work
// done in the same time. The benchmark sets only the scenario, unit count,
// density, seed, evaluator mode, thread/pool size and storage; every other
// engine knob keeps its default. The timed loop runs for at least --seconds
// and at least 100 iterations, so its p90 has ten samples beyond it. A fig10
// loop replays one 50-tick episode of its battle, so every run times the
// same stretch of the game however fast the host is.
//
// Every run prints every end-to-end metric. A fig10 world is one session
// ticked once per frame, so its round is its tick; durable-sessions ticks
// four worlds per round. recover_s is the time to rebuild a world and bring
// it back to its last durable state through RestoreFrom: checkpoint plus
// WAL replay for the durable worlds, a snapshot file for the in-memory
// fig10 worlds. setup_s and recover_s are medians over repetitions.
//
// Usage:
//   sglbench --workload NAME --seed N --seconds S --trace 0|1
//            [--work-dir DIR]
// DIR (default .bench_build/work) receives the world directories, which are
// removed before exit, and the traced run's trace-event file.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/simulation.h"
#include "game/battle.h"
#include "geom/geom.h"
#include "geom/kd_tree.h"
#include "geom/minmax_tree.h"
#include "geom/range_tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/scenario.h"
#include "serve/session_manager.h"
#include "util/rng.h"

namespace fs = std::filesystem;
using namespace sgl;

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for no samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// ------------------------------------------------------------------ spans

/// The benchmark's own spans, recorded into an obs::Tracer and written as
/// Chrome trace-event JSON. Each event's args carry the span's number, its
/// parent's number (-1 at the top) and the tick or round it belongs to.
/// Self time per layer (the span name's prefix before the first '.') is
/// kept as spans close: a span's duration minus its children's.
class Spans {
 public:
  /// Spans are recorded only while enabled (the traced run alternates
  /// traced and untraced iterations to measure the tracing overhead).
  bool enabled = false;

  /// Starts a span; false (and nothing recorded) while disabled.
  bool Begin(const char* name, int64_t id) {
    if (!enabled) return false;
    open_.push_back(Open{name, tracer_.NowNs(), 0, next_span_++, id});
    return true;
  }

  void End() {
    const Open s = open_.back();
    open_.pop_back();
    const int64_t dur = tracer_.NowNs() - s.start_ns;
    const int64_t parent = open_.empty() ? -1 : open_.back().span;
    if (!open_.empty()) open_.back().child_ns += dur;
    const std::string name = s.name;
    self_ms_[name.substr(0, name.find('.'))] += Ms(dur - s.child_ns);
    obs::TraceEvent e;
    e.name = name;
    e.ts_ns = s.start_ns;
    e.dur_ns = dur;
    e.args_json = "{\"span\":" + std::to_string(s.span) +
                  ",\"parent\":" + std::to_string(parent) +
                  ",\"id\":" + std::to_string(s.id) + "}";
    tracer_.Emit(0, std::move(e));
  }

  const std::map<std::string, double>& SelfMsByLayer() const {
    return self_ms_;
  }
  const obs::Tracer& tracer() const { return tracer_; }

 private:
  struct Open {
    const char* name;
    int64_t start_ns;
    int64_t child_ns;
    int64_t span;
    int64_t id;
  };

  obs::Tracer tracer_{int64_t{1} << 20};
  std::vector<Open> open_;
  int64_t next_span_ = 0;
  std::map<std::string, double> self_ms_;
};

class ScopedSpan {
 public:
  ScopedSpan(Spans* spans, const char* name, int64_t id = 0)
      : spans_(spans), open_(spans->Begin(name, id)) {}
  ~ScopedSpan() {
    if (open_) spans_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans* spans_;
  bool open_;
};

// ------------------------------------------------------------ run record

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

/// Everything one run reports: operation counts, metrics in print order,
/// and every failed check.
struct Run {
  explicit Run(Args a) : args(std::move(a)) {}

  Args args;
  Spans spans;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Count one attempted operation; a non-OK status counts as failed.
  bool Op(const Status& st, const std::string& what) {
    ++attempted;
    if (st.ok()) return true;
    ++failed;
    errors.push_back(what + ": " + st.ToString());
    return false;
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// Counter values of one simulation, plus the accessor-only tallies under
/// '@' names: aggregate-sharing hits/entries and the summed Tick() time.
using Counters = std::map<std::string, int64_t>;

Counters Snapshot(Simulation* sim) {
  Counters c;
  for (const auto& [name, value] : sim->metrics().Values()) c[name] = value;
  c["@shared_hits"] = sim->shared_hits();
  c["@memo_entries"] = sim->memo_entries();
  c["@tick_ns"] = sim->mutable_metrics()->GetHistogram("engine.tick.ns", {})
                      ->sum();
  return c;
}

void AddInto(Counters* total, const Counters& after, const Counters& before) {
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    (*total)[name] += value - (it == before.end() ? 0 : it->second);
  }
}

int64_t Get(const Counters& c, const std::string& name) {
  auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

int64_t SumWhere(const Counters& c,
                 const std::function<bool(const std::string&)>& pred) {
  int64_t total = 0;
  for (const auto& [name, value] : c) {
    if (pred(name)) total += value;
  }
  return total;
}

constexpr int kFamilies = 12;  // battle's aggregate families

/// Engine, opt, vm and exec per-layer metrics from counter deltas over
/// `ticks` timed Tick() calls (summed over every world of the workload).
void EngineLayers(const Counters& d, int64_t ticks, Run* run) {
  const double per = 1.0 / static_cast<double>(std::max<int64_t>(ticks, 1));
  auto get = [&](const std::string& name) { return Get(d, name); };
  auto phase = [](const std::string& suffix) {
    return [suffix](const std::string& n) {
      return n.rfind("phase.", 0) == 0 && EndsWith(n, suffix);
    };
  };
  const int64_t phase_ns = SumWhere(d, phase(".ns"));
  run->Metric("engine.index_build_ms", Ms(get("phase.index-build.ns")) * per,
              "ms");
  run->Metric("engine.decision_action_ms",
              Ms(get("phase.decision-action.ns")) * per, "ms");
  run->Metric("engine.apply_ms", Ms(get("phase.apply.ns")) * per, "ms");
  run->Metric("engine.movement_ms", Ms(get("phase.movement.ns")) * per, "ms");
  run->Metric("engine.outside_phases_ms", Ms(get("@tick_ns") - phase_ns) * per,
              "ms");
  run->Metric("opt.index_probes", SumWhere(d, phase(".index_probes")) * per,
              "count");
  run->Metric("opt.rows_scanned", SumWhere(d, phase(".rows_scanned")) * per,
              "count");
  run->Metric("opt.shared_hits", get("@shared_hits") * per, "count");
  run->Metric("opt.memo_entries", get("@memo_entries") * per, "count");
  for (int f = 0; f < kFamilies; ++f) {
    const std::string suffix = ".agg.family" + std::to_string(f) + ".calls";
    run->Metric("opt.family" + std::to_string(f) + "_calls",
                SumWhere(d, [&](const std::string& n) {
                  return EndsWith(n, suffix);
                }) * per,
                "count");
  }
  run->Metric("vm.agg_scan_probes",
              SumWhere(d, [](const std::string& n) {
                return EndsWith(n, ".vm.agg_scan_probes");
              }) * per,
              "count");
  // The share of a parallel phase's time its slowest worker was busy:
  // over every phase that ran on the pool, then per main phase.
  auto share = [](int64_t worker_ns, int64_t phase_ns) {
    return phase_ns > 0 && worker_ns > 0
               ? static_cast<double>(worker_ns) / static_cast<double>(phase_ns)
               : 0.0;
  };
  int64_t max_worker = 0;
  int64_t parallel_ns = 0;
  for (const auto& [name, value] : d) {
    if (name.rfind("phase.", 0) == 0 && EndsWith(name, ".max_worker_ns") &&
        value > 0) {
      max_worker += value;
      parallel_ns += get(name.substr(0, name.size() - 14) + ".ns");
    }
  }
  run->Metric("exec.max_worker_share", share(max_worker, parallel_ns),
              "ratio");
  for (const char* phase :
       {"index-build", "decision-action", "apply", "movement"}) {
    const std::string prefix = std::string("phase.") + phase;
    run->Metric(std::string("exec.max_worker_share.") + phase,
                share(get(prefix + ".max_worker_ns"), get(prefix + ".ns")),
                "ratio");
  }
}

/// Storage, serve and inlet per-layer metrics (zero where a workload does
/// not use the layer).
struct ServeLayer {
  double checkpoint_ms = 0.0;
  double restore_ms = 0.0;
  double round_overhead_ms = 0.0;
  int64_t injected = 0;
  int64_t rejected = 0;
};

void StorageServeLayers(const Counters& d, int64_t ticks, const ServeLayer& s,
                        Run* run) {
  const double per = 1.0 / static_cast<double>(std::max<int64_t>(ticks, 1));
  auto get = [&](const std::string& name) { return Get(d, name); };
  run->Metric("storage.wal_bytes_per_tick", get("storage.wal.bytes") * per,
              "B");
  run->Metric("storage.wal_records_per_tick", get("storage.wal.records") * per,
              "count");
  run->Metric("storage.fsyncs", get("storage.fsyncs"), "count");
  run->Metric("storage.checkpoints", get("storage.checkpoints"), "count");
  const int64_t hits = get("storage.pool.hits");
  const int64_t lookups = hits + get("storage.pool.misses");
  run->Metric("storage.pool_hit_ratio",
              lookups > 0 ? static_cast<double>(hits) /
                                static_cast<double>(lookups)
                          : 0.0,
              "ratio");
  run->Metric("storage.pool_evictions", get("storage.pool.evictions"),
              "count");
  run->Metric("storage.checkpoint_ms", s.checkpoint_ms, "ms");
  run->Metric("storage.restore_ms", s.restore_ms, "ms");
  run->Metric("serve.round_overhead_ms", s.round_overhead_ms, "ms");
  run->Metric("serve.injected", s.injected, "count");
  run->Metric("serve.rejected", s.rejected, "count");
  run->Metric("inlet.applied", get("inlet.applied"), "count");
  run->Metric("inlet.dropped", get("inlet.dropped"), "count");
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The timed loop's stop rule: at least `seconds` of wall time and at least
/// kMinTimed iterations (so the p90 has ten samples beyond it), capped at
/// four times the requested time.
constexpr int64_t kMinTimed = 100;

bool KeepTiming(const Run& run, int64_t start_ns, int64_t done) {
  const double elapsed = static_cast<double>(NowNs() - start_ns) * 1e-9;
  if (elapsed >= 4.0 * run.args.seconds) return false;
  return elapsed < run.args.seconds || done < kMinTimed;
}

/// Per-iteration timing of a closed loop. In a traced run even iterations
/// record spans and odd ones do not; their mean ratio is the tracing
/// overhead.
struct LoopTimes {
  std::vector<double> ms;       ///< per iteration (a tick or a round)
  std::vector<double> tick_ms;  ///< per iteration, one world's Tick()
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  int64_t wall_ns = 0;
  /// The process's peak RSS when the loop ended: set-up plus the timed
  /// loop, before the post-run checks build more worlds.
  double peak_rss_mb = 0.0;

  /// `excluded_ns`: untimed work inside the loop (episode restores).
  void Finish(int64_t start_ns, int64_t excluded_ns = 0) {
    wall_ns = NowNs() - start_ns - excluded_ns;
    peak_rss_mb = PeakRssMb();
  }
  void Add(double m, double tick, bool traced) {
    ms.push_back(m);
    tick_ms.push_back(tick);
    (traced ? traced_ms : untraced_ms).push_back(m);
  }
  double TracingOverheadPct() const {
    if (traced_ms.empty() || untraced_ms.empty()) return 0.0;
    double t = 0, u = 0;
    for (double m : traced_ms) t += m;
    for (double m : untraced_ms) u += m;
    t /= static_cast<double>(traced_ms.size());
    u /= static_cast<double>(untraced_ms.size());
    return (t / u - 1.0) * 100.0;
  }
};

void PrintSamples(const char* what, const std::vector<double>& v) {
  std::printf("%s samples:", what);
  for (double x : v) std::printf(" %.4g", x);
  std::printf("\n");
}

/// End-to-end metrics shared by every workload. A workload that runs one
/// world with one tick per frame (fig10-*) reports that tick as its round
/// and its tick rate as its session-tick rate. durable-sessions ticks each
/// of its worlds once per round: its tick rate is the round rate, and its
/// tick time is the mean Tick() wall time of the round's worlds.
void EndToEnd(const LoopTimes& loop, int32_t worlds,
              const std::vector<double>& setup_s,
              const std::vector<double>& recover_s, Run* run) {
  std::printf("timed: %zu iterations in %.2f s\n", loop.ms.size(),
              static_cast<double>(loop.wall_ns) * 1e-9);
  PrintSamples("setup_s", setup_s);
  PrintSamples("recover_s", recover_s);
  const double wall_s = static_cast<double>(loop.wall_ns) * 1e-9;
  const double frames = static_cast<double>(loop.ms.size());
  run->Metric("ticks_per_s", frames / wall_s, "1/s");
  run->Metric("session_ticks_per_s", frames * worlds / wall_s, "1/s");
  run->Metric("tick_ms_p50", Quantile(loop.tick_ms, 0.5), "ms");
  run->Metric("tick_ms_p90", Quantile(loop.tick_ms, 0.9), "ms");
  run->Metric("round_ms_p50", Quantile(loop.ms, 0.5), "ms");
  run->Metric("round_ms_p90", Quantile(loop.ms, 0.9), "ms");
  run->Metric("recover_s", Median(recover_s), "s");
  run->Metric("setup_s", Median(setup_s), "s");
  run->Metric("peak_rss_mb", loop.peak_rss_mb, "MB");
}

// ------------------------------------------------------------ geometry

/// The geom layer alone: build the three index structures the battle
/// evaluator uses over a world's unit positions, then probe every unit's
/// visibility rectangle. Spot-checks each structure against a scan.
void GeomLayer(const EnvironmentTable& t, uint64_t seed, Run* run) {
  const Schema& s = t.schema();
  const AttrId px = s.Find("posx");
  const AttrId py = s.Find("posy");
  std::vector<PointRef> points;
  std::vector<double> value;
  std::vector<int64_t> keys;
  if (px != Schema::kInvalidAttr && py != Schema::kInvalidAttr) {
    for (RowId r = 0; r < t.NumRows(); ++r) {
      points.push_back({t.Get(r, px), t.Get(r, py), static_cast<int32_t>(r)});
      value.push_back(static_cast<double>(t.KeyAt(r) % 97));
      keys.push_back(t.KeyAt(r));
    }
  }
  const std::vector<std::vector<double>> terms = {value};
  const double reach = D20::kSightRange;
  std::vector<double> range_ms, minmax_ms, kd_ms;
  std::unique_ptr<LayeredRangeTree2D> range;
  std::unique_ptr<MinMaxRangeTree2D> minmax;
  std::unique_ptr<KdTree2D> kd;
  for (int rep = 0; rep < 3; ++rep) {
    int64_t t0 = NowNs();
    {
      ScopedSpan span(&run->spans, "geom.range_tree_build", rep);
      range = std::make_unique<LayeredRangeTree2D>(points, terms);
    }
    int64_t t1 = NowNs();
    {
      ScopedSpan span(&run->spans, "geom.minmax_tree_build", rep);
      minmax = std::make_unique<MinMaxRangeTree2D>(
          points, value, keys, MinMaxRangeTree2D::Mode::kMin);
    }
    int64_t t2 = NowNs();
    {
      ScopedSpan span(&run->spans, "geom.kd_tree_build", rep);
      kd = std::make_unique<KdTree2D>(points, keys);
    }
    int64_t t3 = NowNs();
    range_ms.push_back(Ms(t1 - t0));
    minmax_ms.push_back(Ms(t2 - t1));
    kd_ms.push_back(Ms(t3 - t2));
  }
  double checksum = 0.0;
  int64_t t0 = NowNs();
  {
    ScopedSpan span(&run->spans, "geom.range_probe");
    for (const PointRef& p : points) {
      AggResult agg = range->Aggregate(Rect::Around(p.x, p.y, reach, reach));
      checksum += static_cast<double>(agg.count) + agg.sums[0];
    }
  }
  const double n = static_cast<double>(std::max<size_t>(points.size(), 1));
  const double probe_us = Ms(NowNs() - t0) * 1e3 / n;
  // Spot-check a few probes of each structure against a linear scan.
  Xoshiro256 rng(seed ^ 0x6e0ULL);
  for (int i = 0; i < 16 && !points.empty(); ++i) {
    const PointRef& q = points[static_cast<size_t>(
        rng.NextBounded(static_cast<int64_t>(points.size())))];
    const Rect rect = Rect::Around(q.x, q.y, reach, reach);
    int64_t count = 0;
    double sum = 0.0;
    Extremum best = Extremum::None();
    Neighbor near;
    for (const PointRef& p : points) {
      if (!rect.Contains(p.x, p.y)) continue;
      ++count;
      sum += value[p.id];
      best = Extremum::Min(best, Extremum{value[p.id], keys[p.id]});
      if (keys[p.id] == keys[q.id]) continue;
      const double d2 = SquaredDistance(q.x, q.y, p.x, p.y);
      if (d2 < near.dist2 || (d2 == near.dist2 && keys[p.id] < near.key)) {
        near.dist2 = d2;
        near.key = keys[p.id];
        near.id = p.id;
      }
    }
    AggResult agg = range->Aggregate(rect);
    Extremum got = minmax->Query(rect);
    Neighbor nn = kd->NearestInRect(q.x, q.y, keys[q.id], rect);
    run->Check(agg.count == count && agg.sums[0] == sum,
               "geom: range tree disagrees with a scan");
    run->Check(got.value == best.value && got.key == best.key,
               "geom: min/max tree disagrees with a scan");
    run->Check(nn.found() == near.found() && nn.dist2 == near.dist2,
               "geom: kd-tree nearest disagrees with a scan");
  }
  std::printf("geom: %zu points, probe checksum %.0f\n", points.size(),
              checksum);
  run->Metric("geom.range_tree_build_ms", Median(range_ms), "ms");
  run->Metric("geom.minmax_tree_build_ms", Median(minmax_ms), "ms");
  run->Metric("geom.kd_tree_build_ms", Median(kd_ms), "ms");
  run->Metric("geom.range_probe_us", probe_us, "us");
}

/// Only fig10-indexed's evaluator builds these structures; every other
/// workload reports the geom metrics as 0.
void NoGeomLayer(Run* run) {
  run->Metric("geom.range_tree_build_ms", 0.0, "ms");
  run->Metric("geom.minmax_tree_build_ms", 0.0, "ms");
  run->Metric("geom.kd_tree_build_ms", 0.0, "ms");
  run->Metric("geom.range_probe_us", 0.0, "us");
}

// -------------------------------------------------------------- fig10-*

constexpr int kSetupReps = 5;
constexpr int kWarmupTicks = 2;
/// Timed ticks per episode; kMinTimed is a whole number of episodes.
constexpr int64_t kEpisodeTicks = 50;

/// An in-memory world recovers from its last snapshot file: rebuild plus
/// RestoreFrom. After every timed tick the loop, untimed, recovers the world
/// again and again until kRecoverNsPerTick has passed, so recovery is timed
/// across the same stretch of host time as the ticks, not at a few instants
/// of it. Consecutive recoveries are pooled into samples of at least
/// kMinSampleNs, and recover_s is the median sample.
constexpr int64_t kRecoverNsPerTick = 10000000;
constexpr int64_t kMinSampleNs = 100000000;

SimulationConfig InMemoryConfig(EvaluatorMode mode) {
  SimulationConfig config;
  config.eval_mode = mode;
  config.threads = 1;
  return config;
}

/// One timed set-up: world generation, Build, warm-up ticks.
struct SetupTimes {
  double world_ms = 0, build_ms = 0, warmup_ms = 0, total_s = 0;
};

Status SetUpWorld(const ScenarioParams& params, EvaluatorMode mode, Run* run,
                  int rep, std::unique_ptr<Simulation>* sim, SetupTimes* t) {
  ScopedSpan setup(&run->spans, "bench.setup", rep);
  const int64_t t0 = NowNs();
  SimulationBuilder builder;
  {
    ScopedSpan span(&run->spans, "scenario.prepare", rep);
    SGL_RETURN_NOT_OK(ScenarioRegistry::Global().PrepareBuilder(
        "battle", params, InMemoryConfig(mode), &builder));
  }
  const int64_t t1 = NowNs();
  {
    ScopedSpan span(&run->spans, "engine.build", rep);
    SGL_ASSIGN_OR_RETURN(*sim, builder.Build());
  }
  const int64_t t2 = NowNs();
  for (int i = 0; i < kWarmupTicks; ++i) {
    ScopedSpan span(&run->spans, "engine.warmup_tick", i);
    if (!run->Op((*sim)->Tick(), "warm-up tick")) {
      return Status::ExecutionError("warm-up tick failed");
    }
  }
  const int64_t t3 = NowNs();
  *t = SetupTimes{Ms(t1 - t0), Ms(t2 - t1), Ms(t3 - t2),
                  static_cast<double>(t3 - t0) * 1e-9};
  return Status::OK();
}

void SetupLayers(const std::vector<SetupTimes>& reps, Run* run) {
  std::vector<double> world, build, warm;
  for (const SetupTimes& t : reps) {
    world.push_back(t.world_ms);
    build.push_back(t.build_ms);
    warm.push_back(t.warmup_ms);
  }
  run->Metric("engine.build_ms", Median(build), "ms");
  run->Metric("engine.warmup_ms", Median(warm), "ms");
  run->Metric("scenario.world_ms", Median(world), "ms");
}

/// Recovers a fig10 world from its snapshot file and pools the times.
class Recoveries {
 public:
  Recoveries(const ScenarioParams& params, EvaluatorMode mode,
             std::string dir, const EnvironmentTable& saved,
             int64_t saved_tick, Run* run)
      : params_(params), mode_(mode), dir_(std::move(dir)), saved_(saved),
        saved_tick_(saved_tick), run_(run) {}

  /// One untimed recovery that brings the process's heap to its working
  /// size. False on failure.
  bool WarmUp() { return Once() >= 0; }

  /// Recovers repeatedly for at least `budget_ns`. False on failure.
  bool RecoverFor(int64_t budget_ns) {
    for (int64_t spent = 0; spent < budget_ns;) {
      const int64_t ns = Once();
      if (ns < 0) return false;
      spent += ns;
      pool_ns_ += ns;
      ++pool_n_;
      if (pool_ns_ >= kMinSampleNs) {
        samples_s_.push_back(static_cast<double>(pool_ns_) * 1e-9 /
                             static_cast<double>(pool_n_));
        pool_ns_ = 0;
        pool_n_ = 0;
      }
    }
    return true;
  }

  /// Seconds per recovery, one value per pooled sample.
  const std::vector<double>& samples_s() const { return samples_s_; }

 private:
  /// Rebuilds the world and restores it, checked equal to the snapshot.
  /// Returns the nanoseconds taken, or -1 on failure.
  int64_t Once() {
    const int64_t id = recoveries_++;
    ScopedSpan span(&run_->spans, "bench.recover", id);
    const int64_t t0 = NowNs();
    auto built = ScenarioRegistry::Global().BuildSimulation(
        "battle", params_, InMemoryConfig(mode_));
    if (!run_->Op(built.status(), "rebuild")) return -1;
    std::unique_ptr<Simulation> restored = built.MoveValue();
    {
      ScopedSpan restore(&run_->spans, "engine.restore", id);
      if (!run_->Op(restored->RestoreFrom(dir_), "restore")) return -1;
    }
    const int64_t ns = NowNs() - t0;
    run_->Check(restored->tick_count() == saved_tick_ &&
                    restored->table().Equals(saved_),
                "recovered world differs from its snapshot");
    return ns;
  }

  const ScenarioParams params_;
  const EvaluatorMode mode_;
  const std::string dir_;
  const EnvironmentTable& saved_;
  const int64_t saved_tick_;
  Run* const run_;
  int64_t recoveries_ = 0;
  int64_t pool_ns_ = 0;
  int64_t pool_n_ = 0;
  std::vector<double> samples_s_;
};

Status RunFig10(int32_t units, EvaluatorMode mode, Run* run) {
  const ScenarioParams params{units, 0.01, run->args.seed};
  std::unique_ptr<Simulation> sim;
  std::vector<SetupTimes> setups;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sim.reset();
    SetupTimes t;
    SGL_RETURN_NOT_OK(SetUpWorld(params, mode, run, rep, &sim, &t));
    setups.push_back(t);
    setup_s.push_back(t.total_s);
  }

  // The timed closed loop: one Tick() per iteration. A battle's tick cost
  // changes as it plays out (at 12k units, ticks get cheaper as units
  // die), so the loop replays one episode: kEpisodeTicks ticks from the
  // post-warm-up state, restored through RestoreFrom between episodes,
  // and it stops only at an episode's end. A faster host then runs more
  // episodes of the same game, not a later, cheaper game. Episode restores
  // and the recoveries after each tick are left out of the loop's time.
  const std::string episode_dir = run->args.work_dir + "/episode";
  SGL_RETURN_NOT_OK(sim->Checkpoint(episode_dir));
  const EnvironmentTable episode_start = sim->table().Clone();
  Recoveries recoveries(params, mode, episode_dir, episode_start,
                        sim->tick_count(), run);
  if (!recoveries.WarmUp()) return Status::ExecutionError("recovery failed");
  const Counters before = Snapshot(sim.get());
  LoopTimes loop;
  int64_t untimed_ns = 0;
  const int64_t start = NowNs();
  for (int64_t i = 0;; ++i) {
    if (i > 0 && i % kEpisodeTicks == 0) {
      const int64_t u0 = NowNs();
      const bool more = KeepTiming(*run, start - untimed_ns, i);
      run->spans.enabled = run->args.trace;
      if (more && !run->Op(sim->RestoreFrom(episode_dir), "episode restore")) {
        return Status::ExecutionError("episode restore failed");
      }
      untimed_ns += NowNs() - u0;
      if (!more) break;
    }
    run->spans.enabled = run->args.trace && i % 2 == 0;
    const int64_t t0 = NowNs();
    Status st;
    {
      ScopedSpan span(&run->spans, "engine.tick", sim->tick_count());
      st = sim->Tick();
    }
    const double ms = Ms(NowNs() - t0);
    loop.Add(ms, ms, run->spans.enabled);
    if (!run->Op(st, "tick " + std::to_string(sim->tick_count()))) {
      return Status::ExecutionError("timed tick failed");
    }
    const int64_t u0 = NowNs();
    run->spans.enabled = run->args.trace;
    if (!recoveries.RecoverFor(kRecoverNsPerTick)) {
      return Status::ExecutionError("recovery failed");
    }
    untimed_ns += NowNs() - u0;
  }
  loop.Finish(start, untimed_ns);
  run->spans.enabled = run->args.trace;
  Counters delta;
  AddInto(&delta, Snapshot(sim.get()), before);
  const int64_t timed = static_cast<int64_t>(loop.ms.size());

  {
    ScopedSpan span(&run->spans, "scenario.invariants");
    run->Op(ScenarioRegistry::Global().CheckInvariants("battle", params, *sim),
            "battle invariants");
  }

  // The naive run's oracle: an indexed twin with the same seed and tick
  // count must end bit-identical.
  if (mode == EvaluatorMode::kNaive) {
    std::unique_ptr<Simulation> twin;
    {
      ScopedSpan span(&run->spans, "engine.build", -1);
      auto built = ScenarioRegistry::Global().BuildSimulation(
          "battle", params, InMemoryConfig(EvaluatorMode::kIndexed));
      SGL_RETURN_NOT_OK(built.status());
      twin = built.MoveValue();
    }
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(&run->spans, "engine.twin_ticks");
      while (twin->tick_count() < sim->tick_count()) {
        if (!run->Op(twin->Tick(), "indexed twin tick")) break;
      }
    }
    const double twin_s_per_tick = static_cast<double>(NowNs() - t0) * 1e-9 /
                                   static_cast<double>(sim->tick_count());
    const bool same = twin->table().Equals(sim->table());
    if (!same) {
      std::printf("oracle mismatch: %s\n",
                  twin->table().DiffString(sim->table()).c_str());
    }
    run->Check(same, "naive run and indexed twin differ");
    const double naive_s_per_tick =
        static_cast<double>(loop.wall_ns) * 1e-9 / static_cast<double>(timed);
    std::printf(
        "yardstick paper.speedup_700 = %.2fx (naive %.2f ms/tick / indexed "
        "twin %.2f ms/tick at %d units; paper: about 10x)\n",
        naive_s_per_tick / twin_s_per_tick, naive_s_per_tick * 1e3,
        twin_s_per_tick * 1e3, units);
  } else {
    std::printf(
        "yardstick fig10-indexed = %.2f ticks/s at %d units (paper: 10 "
        "ticks/s with more than 12k units)\n",
        static_cast<double>(timed) / (static_cast<double>(loop.wall_ns) * 1e-9),
        units);
  }

  if (!run->args.trace) {
    EndToEnd(loop, 1, setup_s, recoveries.samples_s(), run);
    return Status::OK();
  }
  EngineLayers(delta, timed, run);
  SetupLayers(setups, run);
  if (mode == EvaluatorMode::kIndexed) {
    GeomLayer(sim->table(), run->args.seed, run);
  } else {
    NoGeomLayer(run);
  }
  StorageServeLayers(delta, timed, ServeLayer{}, run);
  run->Metric("obs.tracing_overhead_pct", loop.TracingOverheadPct(), "%");
  return Status::OK();
}

// ------------------------------------------------------ durable-sessions

const char* const kServedWorlds[] = {"epidemic", "evacuation", "ctf",
                                     "market"};
constexpr int32_t kServedWorldCount = 4;
constexpr int32_t kServedUnits = 2000;
constexpr int32_t kPoolThreads = 2;
constexpr int kWarmupRounds = 10;
constexpr int kInjectsPerSession = 8;  // per round; even (market pairs them)
/// Flush policy: a storage checkpoint (the only fsyncs) every
/// kCheckpointEvery ticks; the WAL is appended every tick without fsync.
constexpr int64_t kCheckpointEvery = 256;
/// Before closing, every world is advanced (untimed) until its WAL holds
/// exactly this many ticks past the last checkpoint, so recovery always
/// replays the same amount of log.
constexpr int64_t kWalReplayTicks = 240;
constexpr int kDurableRecoverSamples = 7;

SimulationConfig StorageConfigFor(const std::string& dir) {
  SimulationConfig config;
  config.eval_mode = EvaluatorMode::kIndexed;
  config.threads = kPoolThreads;
  config.storage.path = dir;
  config.storage.checkpoint_every = kCheckpointEvery;
  return config;
}

/// One served world's injector: actions that keep the scenario's
/// invariants (units move within the grid; cash moves between traders).
class Injector {
 public:
  Injector(std::string world, int64_t side, uint64_t seed)
      : world_(std::move(world)), side_(side), rng_(seed) {}

  /// The actions for one round, chosen against the session's current table.
  std::vector<serve::InjectedAction> Next(const EnvironmentTable& t) {
    std::vector<serve::InjectedAction> out;
    const Schema& s = t.schema();
    if (world_ == "market") {
      const AttrId cash = s.Find("cash");
      for (int i = 0; i < kInjectsPerSession / 2; ++i) {
        RowId from = PickRow(t, [&](RowId r) {
          return t.Get(r, cash) >= kInjectsPerSession;
        });
        RowId to = static_cast<RowId>(rng_.NextBounded(t.NumRows()));
        if (from < 0) from = to;  // no solvent trader: a net-zero self move
        out.push_back(Action(t.KeyAt(from), "cash", -1.0));
        out.push_back(Action(t.KeyAt(to), "cash", 1.0));
      }
      return out;
    }
    const AttrId kind = s.Find("kind");
    const AttrId escaped = s.Find("escaped");
    for (int i = 0; i < kInjectsPerSession; ++i) {
      // Only mobile units move: exits and flags (kind 1) stay put, and an
      // escaped evacuee stays in the holding cell.
      RowId row = PickRow(t, [&](RowId r) {
        return (kind == Schema::kInvalidAttr || t.Get(r, kind) == 0.0) &&
               (escaped == Schema::kInvalidAttr || t.Get(r, escaped) == 0.0);
      });
      if (row < 0) {
        // Nobody left to move (everyone escaped): a no-op nudge keeps the
        // number of injected actions fixed.
        row = static_cast<RowId>(rng_.NextBounded(t.NumRows()));
        out.push_back(Action(t.KeyAt(row), "posx", 0.0));
        continue;
      }
      serve::InjectedAction a;
      a.unit_key = t.KeyAt(row);
      a.attr = "posx";
      a.op = serve::InjectedAction::Op::kSet;
      a.value = static_cast<double>(rng_.NextBounded(side_));
      out.push_back(a);
    }
    return out;
  }

 private:
  /// An additive action: `attr` += `delta` on the unit holding `key`.
  static serve::InjectedAction Action(int64_t key, const char* attr,
                                      double delta) {
    serve::InjectedAction a;
    a.unit_key = key;
    a.attr = attr;
    a.op = serve::InjectedAction::Op::kAdd;
    a.value = delta;
    return a;
  }

  RowId PickRow(const EnvironmentTable& t,
                const std::function<bool(RowId)>& ok) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      RowId r = static_cast<RowId>(rng_.NextBounded(t.NumRows()));
      if (ok(r)) return r;
    }
    return -1;
  }

  std::string world_;
  int64_t side_;
  Xoshiro256 rng_;
};

struct Server {
  std::unique_ptr<serve::SessionManager> manager;
  std::vector<serve::SessionId> ids;
  std::vector<Injector> injectors;
  /// Each session's Tick() wall-time histogram (engine.tick.ns).
  std::vector<const obs::Histogram*> tick_ns;
  std::string root;
};

/// Summed Tick() wall time of every session so far.
int64_t TickNs(const Server& server) {
  int64_t total = 0;
  for (const obs::Histogram* h : server.tick_ns) total += h->sum();
  return total;
}

/// The wall time of one RunRound, and the mean Tick() time of the
/// sessions it ticked.
struct RoundTimes {
  double round_ms = 0.0;
  double tick_ms = 0.0;
};

ScenarioParams ServedParams(uint64_t seed) {
  return ScenarioParams{kServedUnits, 0.01, seed};
}

/// One round: inject, schedule one tick per session, RunRound.
Status ServeRound(Server* server, Run* run, int64_t round, RoundTimes* times,
                  ServeLayer* layer) {
  for (size_t i = 0; i < server->ids.size(); ++i) {
    Simulation* sim = server->manager->session(server->ids[i]);
    {
      ScopedSpan span(&run->spans, "serve.inject", round);
      for (serve::InjectedAction& a : server->injectors[i].Next(sim->table())) {
        auto seq = server->manager->Inject(server->ids[i], std::move(a));
        ++layer->injected;
        if (!run->Op(seq.status(), "inject")) ++layer->rejected;
      }
    }
    SGL_RETURN_NOT_OK(server->manager->ScheduleTicks(server->ids[i], 1));
  }
  const int64_t ticks_before = TickNs(*server);
  const int64_t t0 = NowNs();
  auto timed_round = [&]() {
    ScopedSpan span(&run->spans, "serve.round", round);
    return server->manager->RunRound();
  };
  Result<int64_t> executed = timed_round();
  times->round_ms = Ms(NowNs() - t0);
  times->tick_ms = Ms(TickNs(*server) - ticks_before) /
                   static_cast<double>(server->ids.size());
  run->attempted += static_cast<int64_t>(server->ids.size());
  if (!executed.ok() || *executed != static_cast<int64_t>(server->ids.size())) {
    ++run->failed;
    return executed.ok() ? Status::ExecutionError("round ran ", *executed,
                                                  " ticks")
                         : executed.status();
  }
  return Status::OK();
}

Status OpenServer(const Args& args, int rep, Run* run, Server* server,
                  SetupTimes* t) {
  ScopedSpan setup(&run->spans, "bench.setup", rep);
  const ScenarioParams params = ServedParams(args.seed);
  server->root = args.work_dir + "/worlds" + std::to_string(rep);
  const int64_t t0 = NowNs();
  serve::SessionManagerOptions options;
  options.threads = kPoolThreads;
  SGL_ASSIGN_OR_RETURN(server->manager,
                       serve::SessionManager::Create(options));
  int64_t prepare_ns = 0;
  for (int32_t w = 0; w < kServedWorldCount; ++w) {
    const std::string name = kServedWorlds[w];
    SimulationBuilder builder;
    const int64_t p0 = NowNs();
    {
      ScopedSpan span(&run->spans, "scenario.prepare", w);
      SGL_RETURN_NOT_OK(ScenarioRegistry::Global().PrepareBuilder(
          name, params, StorageConfigFor(server->root + "/" + name),
          &builder));
    }
    prepare_ns += NowNs() - p0;
    ScopedSpan span(&run->spans, "serve.open", w);
    SGL_ASSIGN_OR_RETURN(serve::SessionId id, server->manager->Open(builder));
    server->ids.push_back(id);
    server->tick_ns.push_back(
        server->manager->session(id)->mutable_metrics()->GetHistogram(
            "engine.tick.ns", {}));
    server->injectors.emplace_back(name, params.GridSide(),
                                   args.seed * 31 + static_cast<uint64_t>(w));
  }
  const int64_t t1 = NowNs();
  ServeLayer ignored;
  for (int r = 0; r < kWarmupRounds; ++r) {
    RoundTimes times;
    SGL_RETURN_NOT_OK(ServeRound(server, run, -1 - r, &times, &ignored));
  }
  const int64_t t2 = NowNs();
  *t = SetupTimes{Ms(prepare_ns), Ms(t1 - t0 - prepare_ns), Ms(t2 - t1),
                  static_cast<double>(t2 - t0) * 1e-9};
  return Status::OK();
}

Status RunDurable(Run* run) {
  const ScenarioParams params = ServedParams(run->args.seed);
  Server server;
  std::vector<SetupTimes> setups;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server.manager != nullptr) {
      server.manager.reset();
      std::error_code ec;
      fs::remove_all(server.root, ec);
    }
    server = Server();
    SetupTimes t;
    SGL_RETURN_NOT_OK(OpenServer(run->args, rep, run, &server, &t));
    setups.push_back(t);
    setup_s.push_back(t.total_s);
  }
  auto snapshot_all = [&]() {
    Counters sum;
    for (serve::SessionId id : server.ids) {
      AddInto(&sum, Snapshot(server.manager->session(id)), Counters());
    }
    return sum;
  };

  // The timed closed loop: one round (one tick of every world) per
  // iteration.
  const Counters before = snapshot_all();
  ServeLayer layer;
  LoopTimes loop;
  std::vector<bool> checkpoint_round;
  const int64_t start = NowNs();
  for (int64_t i = 0; KeepTiming(*run, start, i); ++i) {
    run->spans.enabled = run->args.trace && i % 2 == 0;
    const int64_t tick = server.manager->session(server.ids[0])->tick_count();
    RoundTimes times;
    SGL_RETURN_NOT_OK(ServeRound(&server, run, i, &times, &layer));
    loop.Add(times.round_ms, times.tick_ms, run->spans.enabled);
    checkpoint_round.push_back((tick + 1) % kCheckpointEvery == 0);
  }
  loop.Finish(start);
  run->spans.enabled = run->args.trace;
  Counters delta;
  AddInto(&delta, snapshot_all(), before);
  const int64_t rounds = static_cast<int64_t>(loop.ms.size());

  // Untimed top-up to a fixed WAL length, then graceful close.
  while (server.manager->session(server.ids[0])->tick_count() %
             kCheckpointEvery !=
         kWalReplayTicks) {
    RoundTimes times;
    ServeLayer ignored;
    SGL_RETURN_NOT_OK(ServeRound(&server, run, -1, &times, &ignored));
  }
  std::vector<std::unique_ptr<Simulation>> closed;
  for (int32_t w = 0; w < kServedWorldCount; ++w) {
    ScopedSpan span(&run->spans, "serve.close", w);
    auto sim = server.manager->Close(server.ids[w]);
    SGL_RETURN_NOT_OK(sim.status());
    closed.push_back(sim.MoveValue());
    // An injected action the inlet had to drop is a failed operation.
    const int64_t dropped = Get(Snapshot(closed.back().get()), "inlet.dropped");
    run->failed += dropped;
    run->Check(dropped == 0, std::string(kServedWorlds[w]) +
                                 ": injected actions were dropped");
    ScopedSpan check(&run->spans, "scenario.invariants", w);
    run->Op(ScenarioRegistry::Global().CheckInvariants(kServedWorlds[w], params,
                                                       *closed.back()),
            std::string(kServedWorlds[w]) + " invariants");
  }

  // Recovery: rebuild every world over a copy of its directory and
  // RestoreFrom it (checkpoint + WAL replay); repeated on fresh copies.
  std::vector<double> recover_s;
  for (int rep = 0; rep < kDurableRecoverSamples; ++rep) {
    const std::string copy_root =
        run->args.work_dir + "/recover" + std::to_string(rep);
    std::error_code ec;
    fs::create_directories(copy_root, ec);
    for (int32_t w = 0; w < kServedWorldCount && !ec; ++w) {
      fs::copy(server.root + "/" + kServedWorlds[w],
               copy_root + "/" + kServedWorlds[w], fs::copy_options::recursive,
               ec);
    }
    if (ec) return Status::ExecutionError("copying world dirs: ", ec.message());
    ScopedSpan span(&run->spans, "bench.recover", rep);
    const int64_t t0 = NowNs();
    std::vector<std::unique_ptr<Simulation>> restored;
    for (int32_t w = 0; w < kServedWorldCount; ++w) {
      const std::string dir = copy_root + "/" + kServedWorlds[w];
      SimulationConfig config = StorageConfigFor(dir);
      config.threads = 1;
      auto built = ScenarioRegistry::Global().BuildSimulation(
          kServedWorlds[w], params, config);
      restored.emplace_back();
      if (!run->Op(built.status(), "rebuild")) continue;
      restored.back() = built.MoveValue();
      ScopedSpan restore(&run->spans, "storage.restore", w);
      if (!run->Op(restored.back()->RestoreFrom(dir), "restore")) {
        restored.back().reset();
      }
    }
    recover_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    for (size_t w = 0; w < restored.size(); ++w) {
      const Simulation* r = restored[w].get();
      const Simulation& live = *closed[w];
      const bool same = r != nullptr && r->tick_count() == live.tick_count() &&
                        r->table().Equals(live.table());
      if (!same && r != nullptr) {
        std::printf("recovery mismatch in %s: %s\n", kServedWorlds[w],
                    r->table().DiffString(live.table()).c_str());
      }
      run->Check(same, std::string("restored ") + kServedWorlds[w] +
                           " differs from the closed session");
    }
    restored.clear();
    fs::remove_all(copy_root, ec);
  }

  if (!run->args.trace) {
    EndToEnd(loop, kServedWorldCount, setup_s, recover_s, run);
    return Status::OK();
  }
  const int64_t session_ticks = rounds * kServedWorldCount;
  EngineLayers(delta, session_ticks, run);
  SetupLayers(setups, run);
  NoGeomLayer(run);
  // Checkpoint rounds against the median round; RunRound wall time beyond
  // the sessions' phase time.
  const double median_round = Median(loop.ms);
  double extra = 0;
  int64_t n = 0;
  for (size_t i = 0; i < loop.ms.size(); ++i) {
    if (checkpoint_round[i]) {
      extra += loop.ms[i] - median_round;
      ++n;
    }
  }
  layer.checkpoint_ms = n > 0 ? extra / static_cast<double>(n) : 0.0;
  layer.restore_ms = Median(recover_s) * 1e3 / kServedWorldCount;
  double round_sum = 0;
  for (double m : loop.ms) round_sum += m;
  const int64_t phase_ns = SumWhere(delta, [](const std::string& n) {
    return n.rfind("phase.", 0) == 0 && EndsWith(n, ".ns");
  });
  layer.round_overhead_ms = (round_sum - Ms(phase_ns)) /
                            static_cast<double>(std::max<int64_t>(rounds, 1));
  StorageServeLayers(delta, session_ticks, layer, run);
  run->Metric("obs.tracing_overhead_pct", loop.TracingOverheadPct(), "%");
  return Status::OK();
}

// ------------------------------------------------------------------ main

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::string ResultJson(const Run& run) {
  std::string out = "{\"correct\":";
  out += run.errors.empty() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(run.attempted);
  out += ",\"failed\":" + std::to_string(run.failed);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < run.metrics.size(); ++i) {
    const auto& [name, value] = run.metrics[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  i == 0 ? "" : ",", name.c_str(), value.first,
                  value.second.c_str());
    out += buf;
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: sglbench --workload fig10-indexed|fig10-naive|"
                 "durable-sessions --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR]\n");
    return 2;
  }
  Run run(args);
  run.spans.enabled = args.trace;
  std::error_code ec;
  fs::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "sglbench: cannot create %s: %s\n",
                 args.work_dir.c_str(), ec.message().c_str());
    return 2;
  }
  Status st;
  if (args.workload == "fig10-indexed") {
    st = RunFig10(12000, EvaluatorMode::kIndexed, &run);
  } else if (args.workload == "fig10-naive") {
    st = RunFig10(700, EvaluatorMode::kNaive, &run);
  } else if (args.workload == "durable-sessions") {
    st = RunDurable(&run);
  } else {
    std::fprintf(stderr, "sglbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  // World directories, recovery copies and snapshots go; the trace stays.
  for (const auto& entry : fs::directory_iterator(args.work_dir, ec)) {
    if (entry.is_directory(ec)) fs::remove_all(entry.path(), ec);
  }
  if (!st.ok()) run.errors.push_back(st.ToString());
  if (args.trace) {
    const std::string path =
        args.work_dir + "/trace-" + args.workload + ".json";
    const Status written = run.spans.tracer().WriteJson(path);
    run.Check(written.ok(), written.ToString());
    std::printf("trace: %s (%lld events dropped)\nself time by layer (ms):",
                path.c_str(),
                static_cast<long long>(run.spans.tracer().dropped()));
    for (const auto& [layer, ms] : run.spans.SelfMsByLayer()) {
      std::printf(" %s=%.1f", layer.c_str(), ms);
    }
    std::printf("\n");
  }
  for (const std::string& e : run.errors) {
    std::printf("FAILED: %s\n", e.c_str());
  }
  std::printf("%s\n", ResultJson(run).c_str());
  return run.errors.empty() && run.failed == 0 ? 0 : 1;
}
