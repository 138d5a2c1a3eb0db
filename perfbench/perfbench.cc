// perfbench: the repository benchmark. One single-threaded process drives
// db::Database only through its public API (Options, LoadInt,
// SubmitArrivals with a db::TrafficEngine, Drain and the stats accessors)
// on one of the workloads in workloads.cc, checks its outputs, and prints
// one JSON result line.
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--rss]
//
//   --trace 0  end-to-end metrics: repetitions of set-up + stream + drain
//              until S seconds have passed (at least kMinReps); wall
//              figures are medians over the repetitions, simulated figures
//              come from the first and must repeat bitwise in every other.
//   --trace 1  per-layer metrics: untraced repetitions for a baseline, one
//              traced repetition, then replays of the same stream through
//              each lower layer's public functions (replay.h).
//   --rss      one repetition, then the process's peak RSS; run in a
//              separate process per workload so other repetitions' heaps
//              do not inflate it.
//
// Every mode first runs a small self-test that pins the reported latency
// percentiles to DatabaseStats. Any failed output check prints
// "correct": false and exits 1.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/traffic.h"
#include "db/workload.h"
#include "sim/rng.h"
#include "replay.h"
#include "workloads.h"

namespace fastcommit::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kMinReps = 3;

double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

/// Output-check failures of one process; any entry makes "correct" false.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    failures_.push_back(what);
  }
  bool ok() const { return failures_.empty(); }

 private:
  std::vector<std::string> failures_;
};

/// The simulated end-to-end metrics. All are pure functions of
/// DatabaseStats — latency comes from DatabaseStats::latency, never from
/// Database::Now() inside a completion callback, which reads the control
/// clock at the shard horizon and overstates commit latency.
struct SimMetrics {
  sim::Time p50 = 0;
  sim::Time p99 = 0;
  /// Reservoir entries behind the percentiles: min(commits, 4096).
  int64_t samples = 0;
  double commits_per_tick = 0;
  double msgs_per_commit = 0;
  double committed_share = 0;

  bool BitwiseEqual(const SimMetrics& other) const {
    return p50 == other.p50 && p99 == other.p99 && samples == other.samples &&
           std::memcmp(&commits_per_tick, &other.commits_per_tick,
                       sizeof(double)) == 0 &&
           std::memcmp(&msgs_per_commit, &other.msgs_per_commit,
                       sizeof(double)) == 0 &&
           std::memcmp(&committed_share, &other.committed_share,
                       sizeof(double)) == 0;
  }
};

int64_t Done(const db::DatabaseStats& stats) {
  return stats.committed + stats.read_only_committed;
}

SimMetrics FromStats(const db::DatabaseStats& stats) {
  SimMetrics m;
  m.p50 = stats.latency.Percentile(50);
  m.p99 = stats.latency.Percentile(99);
  m.samples = static_cast<int64_t>(stats.latency.sample().size());
  m.commits_per_tick = Ratio(static_cast<double>(Done(stats)),
                             static_cast<double>(stats.makespan));
  m.msgs_per_commit = Ratio(static_cast<double>(stats.commit_messages),
                            static_cast<double>(stats.committed));
  m.committed_share = Ratio(static_cast<double>(Done(stats)),
                            static_cast<double>(stats.offered));
  return m;
}

/// One repetition: a fresh Database, preloaded, driven by the workload's
/// stream to a drain, checked, and torn down.
struct Rep {
  double setup_s = 0;
  double run_s = 0;  ///< SubmitArrivals + Drain
  /// Mean of the host-speed probes run just before and after the drain
  /// (HostProbeSeconds); 0 when the repetition was not probed.
  double probe_s = 0;
  /// Realized offered load: arrivals over the arrival span, never
  /// 1/mean_gap (the engine truncates gaps, so the nominal rate is off).
  double offered_per_tick = 0;
  db::DatabaseStats stats;
  // Machinery counters, read after the drain for the traced run.
  db::Database::BatchStats batch;
  db::CommitInstancePool::Stats pool;
  int64_t plane_flushes = 0;
  int64_t plane_tasks = 0;
  db::CommitLog::Stats log;
  int64_t prepares = 0;
  int64_t conflicts = 0;
  int64_t versions = 0;

  double Throughput() const {
    return Ratio(static_cast<double>(Done(stats)), run_s);
  }
};

Rep RunRep(const Workload& w, Checks* checks) {
  Rep rep;
  const int64_t num_keys = w.traffic.num_keys;
  const int64_t arrivals = w.traffic.num_arrivals;

  auto setup_start = Clock::now();
  auto database = std::make_unique<db::Database>(w.options);
  for (int64_t i = 0; i < num_keys; ++i) {
    database->LoadInt(db::ItemKey(static_cast<int>(i)), kInitialBalance);
  }
  auto setup_end = Clock::now();

  // Exactly one completion per arrival: ids run 1..arrivals.
  std::vector<uint8_t> completions(static_cast<size_t>(arrivals) + 1, 0);
  int64_t stray_ids = 0;
  int64_t reported_commits = 0;
  int64_t reported_aborts = 0;
  db::TrafficEngine engine(w.traffic);

  auto run_start = Clock::now();
  database->SubmitArrivals(
      &engine, [&](const db::Transaction& tx, commit::Decision decision) {
        if (tx.id < 1 || tx.id > arrivals) {
          ++stray_ids;
        } else {
          ++completions[static_cast<size_t>(tx.id)];
        }
        if (decision == commit::Decision::kCommit) {
          ++reported_commits;
        } else {
          ++reported_aborts;
        }
      });
  rep.stats = database->Drain();
  auto run_end = Clock::now();
  rep.setup_s = SecondsBetween(setup_start, setup_end);
  rep.run_s = SecondsBetween(run_start, run_end);
  rep.offered_per_tick = Ratio(static_cast<double>(engine.generated()),
                               static_cast<double>(engine.last_arrival_time()));

  const db::DatabaseStats& s = rep.stats;
  const std::string where = w.name + " seed " + std::to_string(w.options.seed);
  checks->Expect(s.offered == arrivals,
                 where + ": offered " + std::to_string(s.offered) +
                     " != arrivals " + std::to_string(arrivals));
  checks->Expect(
      s.offered == s.committed + s.aborted + s.shed + s.read_only_committed,
      where + ": offered != committed + aborted + shed + read_only_committed");
  int64_t wrong_completions = stray_ids;
  for (size_t id = 1; id < completions.size(); ++id) {
    if (completions[id] != 1) ++wrong_completions;
  }
  checks->Expect(wrong_completions == 0,
                 where + ": " + std::to_string(wrong_completions) +
                     " arrivals without exactly one completion callback");
  checks->Expect(reported_commits == Done(s) &&
                     reported_aborts == s.aborted + s.shed,
                 where + ": completion decisions disagree with DatabaseStats");

  const int64_t expected_sum = num_keys * kInitialBalance +
                               w.sum_delta_per_commit * s.committed;
  const int64_t sum = database->SumInts();
  checks->Expect(sum == expected_sum,
                 where + ": ledger " + std::to_string(sum) + " != expected " +
                     std::to_string(expected_sum));

  for (int p = 0; p < database->num_partitions(); ++p) {
    db::Participant& part = database->partition(p);
    checks->Expect(part.locks().held_locks() == 0 &&
                       part.versions().locked_words() == 0,
                   where + ": partition " + std::to_string(p) +
                       " holds locks after Drain");
    rep.prepares += part.prepares();
    rep.conflicts += part.conflicts();
  }

  rep.batch = database->batch_stats();
  rep.pool = database->pool_stats();
  rep.plane_flushes = database->partition_plane().flushes();
  rep.plane_tasks = database->partition_plane().tasks_drained();
  if (database->commit_log() != nullptr) {
    rep.log = database->commit_log()->stats();
  }
  rep.versions = database->TotalVersions();
  return rep;
}

/// Pins the reported latency figures to DatabaseStats on a small run: the
/// benchmark's own path (RunRep + FromStats) must report exactly the
/// percentiles and sample count of an independent Database fed the same
/// seeded stream, and a nice unbatched INBAC commit must take 2U.
void SelfTest(const Workload& workload, Checks* checks) {
  Workload small = Seeded(workload, 7);
  small.traffic.num_arrivals = 3000;
  small.traffic.num_keys = std::min<int64_t>(small.traffic.num_keys, 4096);
  SimMetrics reported = FromStats(RunRep(small, checks).stats);

  db::Database database(small.options);
  for (int64_t i = 0; i < small.traffic.num_keys; ++i) {
    database.LoadInt(db::ItemKey(static_cast<int>(i)), kInitialBalance);
  }
  db::TrafficEngine engine(small.traffic);
  database.SubmitArrivals(&engine);
  const db::LatencyStats& latency = database.Drain().latency;
  const std::string where = "self-test " + workload.name;
  checks->Expect(latency.count() > 0, where + ": no multi-partition commits");
  checks->Expect(reported.p50 == latency.Percentile(50),
                 where + ": reported p50 != DatabaseStats::latency p50");
  checks->Expect(reported.p99 == latency.Percentile(99),
                 where + ": reported p99 != DatabaseStats::latency p99");
  checks->Expect(
      reported.samples ==
          std::min(latency.count(), db::LatencyStats::kReservoirCapacity),
      where + ": reported sample count != min(count, reservoir)");
  if (small.options.protocol == core::ProtocolKind::kInbac &&
      small.options.batch_window == 0 && small.options.log_replicas == 0) {
    checks->Expect(reported.p50 == 2 * small.options.unit,
                   where + ": nice INBAC p50 is not 2U");
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Written with every probe's last position, so the chase cannot be
/// optimized away.
volatile uint32_t probe_sink = 0;

/// A fixed memory-bound probe of the host's current speed: 2^20 dependent
/// loads along one random cycle through 32 MB, more than the CPU caches
/// hold. On a shared host, other tenants' memory traffic slows the
/// database by a varying factor over minutes; a repetition's drain time
/// and the probes around it rise and fall together (correlation 0.6-0.7
/// per repetition), so time counted in probe lengths varies less than time
/// in seconds. The probe is the benchmark's own code and does not
/// change with the program.
double HostProbeSeconds() {
  static const std::vector<uint32_t> next = [] {
    // Sattolo's shuffle: one cycle through every slot.
    std::vector<uint32_t> cycle(uint32_t{1} << 23);
    for (uint32_t i = 0; i < cycle.size(); ++i) cycle[i] = i;
    sim::Rng rng(0x9e3779b9ULL);
    for (uint32_t i = static_cast<uint32_t>(cycle.size()) - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(rng.UniformInt(0, i - 1));
      std::swap(cycle[i], cycle[j]);
    }
    return cycle;
  }();
  auto start = Clock::now();
  uint32_t at = 0;
  for (int step = 0; step < (1 << 20); ++step) at = next[at];
  auto end = Clock::now();
  probe_sink = at;
  return SecondsBetween(start, end);
}

/// One more repetition, probed before and after its drain; its
/// DatabaseStats, and so every simulated metric, must equal `first`'s
/// bitwise (`first` null: this is the first).
Rep CheckedRep(const Workload& w, const Rep* first, Checks* checks) {
  const double probe_before = HostProbeSeconds();
  Rep rep = RunRep(w, checks);
  rep.probe_s = (probe_before + HostProbeSeconds()) / 2.0;
  std::fprintf(stderr,
               "perfbench: %s: setup %.4f s, run %.4f s, %.1f tx/s, "
               "probe %.4f s\n",
               w.name.c_str(), rep.setup_s, rep.run_s, rep.Throughput(),
               rep.probe_s);
  if (first != nullptr) {
    checks->Expect(
        rep.stats == first->stats &&
            FromStats(rep.stats).BitwiseEqual(FromStats(first->stats)),
        w.name + ": a repetition diverged from the first (simulated "
                 "metrics must repeat bitwise)");
  }
  return rep;
}

/// Repetitions until `seconds` have passed, at least kMinReps.
std::vector<Rep> RunReps(const Workload& w, double seconds, Checks* checks) {
  std::vector<Rep> reps;
  auto start = Clock::now();
  while (static_cast<int>(reps.size()) < kMinReps ||
         SecondsBetween(start, Clock::now()) < seconds) {
    reps.push_back(
        CheckedRep(w, reps.empty() ? nullptr : &reps.front(), checks));
  }
  return reps;
}

/// The traced run: rounds of an untraced repetition, a traced repetition
/// and every layer replay, until `seconds` have passed (at least two
/// rounds). Host conditions drift over seconds; rounds keep both sides of
/// each difference reported — traced against untraced, the drain against
/// its children — under the same conditions. The traced repetition
/// differs from the untraced one only by the span around its drain.
struct TracedRun {
  std::vector<Rep> untraced;
  std::vector<Rep> traced;
  TrafficReplay traffic;
  StorageReplay storage;
  PlaneReplay plane;
  KernelReplay kernel;
  LogReplay log;
};

TracedRun RunTraced(const Workload& w, double seconds, Checks* checks) {
  TracedRun run;
  auto start = Clock::now();
  while (run.traced.size() < 2 ||
         SecondsBetween(start, Clock::now()) < seconds) {
    const Rep* first = run.untraced.empty() ? nullptr : &run.untraced.front();
    run.untraced.push_back(CheckedRep(w, first, checks));
    run.traced.push_back(CheckedRep(w, &run.untraced.front(), checks));
    const Rep& traced = run.traced.front();
    ReplayTraffic(w, &run.traffic);
    ReplayStorage(w, &run.storage);
    ReplayPlane(w, &run.plane);
    ReplayKernel(w, &run.kernel);
    ReplayLog(w, traced.log.appends,
              std::max<int64_t>(1, std::llround(traced.batch.Occupancy())),
              &run.log);
  }
  return run;
}

/// Committed per wall second over all repetitions together: total work
/// over total drain time.
double Throughput(const std::vector<Rep>& reps) {
  int64_t done = 0;
  double seconds = 0;
  for (const Rep& rep : reps) {
    done += Done(rep.stats);
    seconds += rep.run_s;
  }
  return Ratio(static_cast<double>(done), seconds);
}

/// Committed per host-probe length over all repetitions together: total
/// work over total drain time, each drain counted in lengths of the probes
/// run around it.
double ProbeThroughput(const std::vector<Rep>& reps) {
  int64_t done = 0;
  double probes = 0;
  for (const Rep& rep : reps) {
    done += Done(rep.stats);
    probes += Ratio(rep.run_s, rep.probe_s);
  }
  return Ratio(static_cast<double>(done), probes);
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

/// The facts the wall numbers depend on, as one JSON line ahead of the
/// result.
void PrintContext(const Workload& w, const std::vector<Rep>& reps) {
  std::vector<double> probes;
  for (const Rep& rep : reps) probes.push_back(rep.probe_s);
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"arrivals\": "
      "%lld, \"keys\": %lld, \"offered_per_tick\": %.17g, "
      "\"repetitions\": %zu, \"committed_per_sec_wall\": %.17g, "
      "\"probe_s_median\": %.17g, \"nproc\": %ld, \"build_type\": "
      "\"%s\", \"compiler\": \"%s\"}}\n",
      w.name.c_str(), static_cast<unsigned long long>(w.options.seed),
      static_cast<long long>(w.traffic.num_arrivals),
      static_cast<long long>(w.traffic.num_keys),
      reps.front().offered_per_tick, reps.size(), Throughput(reps),
      Median(probes), sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
      kCompiler);
}

void Totals(const std::vector<Rep>& reps, int64_t* attempted,
            int64_t* failed) {
  *attempted = 0;
  *failed = 0;
  for (const Rep& rep : reps) {
    *attempted += rep.stats.offered;
    *failed += rep.stats.aborted + rep.stats.shed;
  }
}

std::vector<Metric> EndToEnd(const std::vector<Rep>& reps) {
  std::vector<double> setups;
  for (const Rep& rep : reps) setups.push_back(rep.setup_s);
  SimMetrics sim = FromStats(reps.front().stats);
  return {
      {"committed_per_probe", ProbeThroughput(reps), "tx/probe"},
      {"setup_s", Median(std::move(setups)), "s"},
      {"commit_p50_ticks", static_cast<double>(sim.p50), "ticks"},
      {"commit_p99_ticks", static_cast<double>(sim.p99), "ticks"},
      {"commits_per_tick", sim.commits_per_tick, "tx/tick"},
      {"msgs_per_commit", sim.msgs_per_commit, "msgs/tx"},
      {"committed_share", sim.committed_share, "share"},
  };
}

std::vector<Metric> PerLayer(const Workload& w, const TracedRun& run) {
  // Every repetition is bitwise identical, so the first one's counters
  // stand for all of them.
  const Rep& traced = run.traced.front();
  const db::DatabaseStats& s = traced.stats;
  const double committed = static_cast<double>(s.committed);
  const double offered = static_cast<double>(s.offered);
  const TrafficReplay& traffic = run.traffic;
  const StorageReplay& storage = run.storage;
  const PlaneReplay& plane = run.plane;
  const KernelReplay& kernel = run.kernel;
  const LogReplay& log = run.log;
  double drain_s = 0;
  for (const Rep& rep : run.traced) drain_s += rep.run_s;
  drain_s /= static_cast<double>(run.traced.size());

  const double tasks = static_cast<double>(plane.tasks);
  const double plane_ns_per_task = Ratio(plane.calls.NetNs(), tasks);
  const double plane_self_ns_per_task =
      Ratio(plane.calls.NetNs() - storage.NetNs(), tasks);
  const double decide_ticks =
      Ratio(static_cast<double>(kernel.decide_ticks),
            static_cast<double>(kernel.instances.calls));
  const int64_t acquisitions = traced.pool.created + traced.pool.reused;
  // The children's busy time inside the drain span, each layer's replayed
  // cost per call times the calls the database actually made into it.
  const double children_s =
      (traffic.next.NsPerCall() * offered +
       plane_ns_per_task * static_cast<double>(traced.plane_tasks) +
       kernel.instances.NsPerCall() * static_cast<double>(acquisitions) +
       log.slots.NsPerCall() * static_cast<double>(traced.log.appends)) /
      1e9;
  const int64_t durable_phases =
      traced.log.fast_path_decisions + traced.log.slow_path_decisions;

  return {
      {"traffic.ns_per_arrival", traffic.next.NsPerCall(), "ns"},
      {"traffic.realized_over_nominal",
       Ratio(static_cast<double>(traffic.generated),
             static_cast<double>(traffic.last_arrival_time)) *
           w.traffic.mean_gap,
       "ratio"},
      {"control.drain_s", drain_s, "s"},
      {"control.self_s", drain_s - children_s, "s"},
      {"control.retries_per_commit",
       Ratio(static_cast<double>(s.retries), committed), "ratio"},
      {"control.abort_lock_conflicts",
       static_cast<double>(s.abort_lock_conflicts), "count"},
      {"control.abort_validation_failures",
       static_cast<double>(s.abort_validation_failures), "count"},
      {"control.shed_share", Ratio(static_cast<double>(s.shed), offered),
       "share"},
      {"control.batch_occupancy", traced.batch.Occupancy(), "tx/round"},
      {"control.batch_rounds", static_cast<double>(traced.batch.rounds),
       "count"},
      {"control.cross_set_joins",
       static_cast<double>(traced.batch.cross_set_joins), "count"},
      {"control.merged_rounds",
       static_cast<double>(traced.batch.merged_rounds), "count"},
      {"control.wait_ticks_mean", s.latency.Mean() - decide_ticks, "ticks"},
      {"control.single_partition_share",
       Ratio(static_cast<double>(s.single_partition), committed), "share"},
      {"control.latency_samples",
       static_cast<double>(s.latency.sample().size()), "count"},
      {"plane.flushes_per_commit",
       Ratio(static_cast<double>(traced.plane_flushes),
             static_cast<double>(Done(s))),
       "ratio"},
      {"plane.tasks_per_flush",
       Ratio(static_cast<double>(traced.plane_tasks),
             static_cast<double>(traced.plane_flushes)),
       "ratio"},
      {"plane.self_ns_per_task", plane_self_ns_per_task, "ns"},
      {"storage.prepare_ns", storage.prepare.NsPerCall(), "ns"},
      {"storage.finish_ns", storage.finish.NsPerCall(), "ns"},
      {"storage.snapshot_read_ns", storage.snapshot_read.NsPerCall(), "ns"},
      {"storage.load_ns_per_key", storage.load.NsPerCall(), "ns"},
      {"storage.vote_no_share",
       Ratio(static_cast<double>(traced.conflicts),
             static_cast<double>(traced.prepares)),
       "share"},
      {"storage.versions_per_key",
       Ratio(static_cast<double>(traced.versions),
             static_cast<double>(w.traffic.num_keys)),
       "ratio"},
      {"kernel.ns_per_instance", kernel.instances.NsPerCall(), "ns"},
      {"kernel.events_per_instance",
       Ratio(static_cast<double>(kernel.events),
             static_cast<double>(kernel.instances.calls)),
       "ratio"},
      {"kernel.msgs_per_instance",
       Ratio(static_cast<double>(kernel.messages),
             static_cast<double>(kernel.instances.calls)),
       "ratio"},
      {"kernel.decide_ticks", decide_ticks, "ticks"},
      {"kernel.instances_per_commit",
       Ratio(static_cast<double>(acquisitions), committed), "ratio"},
      {"kernel.pool_created", static_cast<double>(traced.pool.created),
       "count"},
      {"kernel.pool_peak_live", static_cast<double>(traced.pool.peak_live),
       "count"},
      {"log.ns_per_slot", log.slots.NsPerCall(), "ns"},
      {"log.fast_path_share",
       Ratio(static_cast<double>(traced.log.fast_path_decisions),
             static_cast<double>(durable_phases)),
       "share"},
      {"log.max_live_slots", static_cast<double>(traced.log.max_live_slots),
       "count"},
      {"trace.committed_per_sec_wall", Throughput(run.untraced), "tx/s"},
      {"trace.overhead_share",
       1.0 - Ratio(ProbeThroughput(run.traced),
                   ProbeThroughput(run.untraced)),
       "share"},
  };
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--rss]\n",
               message);
  return 2;
}

int Main(int argc, char** argv) {
  std::string name;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  bool rss = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--rss") {
      rss = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      name = value;
    } else if (arg == "--seed") {
      seed = std::atoll(value);
    } else if (arg == "--seconds") {
      seconds = std::atof(value);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  const Workload* base = FindWorkload(name);
  if (base == nullptr) {
    return Usage(("unknown workload '" + name + "'").c_str());
  }
  if (seed < 0) return Usage("--seed must be a non-negative integer");
  if (!(seconds > 0)) return Usage("--seconds must be positive");
  if (trace != 0 && trace != 1) return Usage("--trace must be 0 or 1");

  const Workload w = Seeded(*base, static_cast<uint64_t>(seed));
  Checks checks;
  SelfTest(w, &checks);

  if (rss) {
    Rep rep = RunRep(w, &checks);
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    // ru_maxrss is in KiB on Linux.
    PrintResult(checks.ok(), rep.stats.offered,
                rep.stats.aborted + rep.stats.shed,
                {{"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
                  "MB"}});
    return checks.ok() ? 0 : 1;
  }

  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  if (trace == 0) {
    std::vector<Rep> reps = RunReps(w, seconds, &checks);
    Totals(reps, &attempted, &failed);
    PrintContext(w, reps);
    metrics = EndToEnd(reps);
  } else {
    TracedRun run = RunTraced(w, seconds, &checks);
    std::vector<Rep> reps = run.untraced;
    reps.insert(reps.end(), run.traced.begin(), run.traced.end());
    Totals(reps, &attempted, &failed);
    PrintContext(w, reps);
    metrics = PerLayer(w, run);
  }
  PrintResult(checks.ok(), attempted, failed, metrics);
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace fastcommit::perfbench

int main(int argc, char** argv) {
  return fastcommit::perfbench::Main(argc, argv);
}
