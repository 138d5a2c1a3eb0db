#ifndef FASTCOMMIT_PERFBENCH_REPLAY_H_
#define FASTCOMMIT_PERFBENCH_REPLAY_H_

#include <chrono>
#include <cstdint>
#include <utility>

#include "sim/sim_time.h"
#include "workloads.h"

namespace fastcommit::perfbench {

/// Busy time of one layer: the summed duration of the spans put around
/// calls into it, the number of spans and the number of calls. Spans are
/// aggregated in memory as they close, so a replay of millions of calls
/// stays O(1).
struct LayerBusy {
  int64_t spans = 0;
  int64_t calls = 0;
  int64_t ns = 0;

  /// Busy time without the spans' own cost (EmptySpanNs per span).
  double NetNs() const;
  double NsPerCall() const;
};

/// Runs `fn` inside one span of `busy`.
template <typename Fn>
void Span(LayerBusy* busy, Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto end = std::chrono::steady_clock::now();
  busy->ns +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
  ++busy->spans;
  ++busy->calls;
}

/// Runs `calls` calls into one layer, made by `fn`, inside a single span:
/// the calls run back to back, as they do inside a plane flush, with no
/// clock reads between them.
template <typename Fn>
void Spans(LayerBusy* busy, size_t calls, Fn&& fn) {
  Span(busy, std::forward<Fn>(fn));
  busy->calls += static_cast<int64_t>(calls) - 1;
}

/// Cost of one empty span (two clock reads), measured once per process.
double EmptySpanNs();

// Each replay regenerates the workload's arrival stream on a twin
// TrafficEngine (same options, same seed) and drives it through one lower
// layer's public functions only, in arrival order, one transaction at a
// time. It adds its spans and counts to `*out`, so repeated replays
// accumulate. Every vote is kYes and every commit decides kCommit: the replays
// measure what a call into the layer costs on this stream's keys and
// shapes, not the contention the database run resolved.

/// db/traffic: TrafficEngine::Next, one span per arrival.
struct TrafficReplay {
  LayerBusy next;
  int64_t generated = 0;
  sim::Time last_arrival_time = 0;
};
void ReplayTraffic(const Workload& workload, TrafficReplay* out);

/// db/participant + kv_store + lock_manager + version_table: standalone
/// Participants preloaded with the whole key space, ops routed by
/// Database::PartitionOf. One span covers one transaction's prepares, its
/// finishes, or its snapshot reads. Snapshot reads are replayed only when
/// the workload serves them.
struct StorageReplay {
  LayerBusy load;  ///< KvStore::Put per preloaded key
  LayerBusy prepare;
  LayerBusy finish;
  LayerBusy snapshot_read;

  double NetNs() const {
    return prepare.NetNs() + finish.NetNs() + snapshot_read.NetNs();
  }
};
void ReplayStorage(const Workload& workload, StorageReplay* out);

/// db/partition_plane: a standalone PartitionPlane (one home shard, inline
/// flushes) fed through EnqueuePrepare / EnqueueFinish /
/// EnqueueSnapshotRead. Reads ride the FIFO without a barrier; each writing
/// transaction takes the Flush barrier Database::Execute takes before it
/// reads the votes, and its finishes wait for the next barrier. The span
/// total includes the storage calls the flushes make; subtract
/// StorageReplay for the plane's own time.
struct PlaneReplay {
  LayerBusy calls;  ///< every Enqueue* and Flush
  int64_t tasks = 0;
  int64_t flushes = 0;
};
void ReplayPlane(const Workload& workload, PlaneReplay* out);

/// db/coordinator + instance_pool over commit, consensus, net and sim: one
/// pooled CommitInstance of the workload's protocol per multi-partition
/// transaction, as wide as its partition set, run to its decision on a
/// sim::Simulator (acquire + start + run + release in one span).
struct KernelReplay {
  LayerBusy instances;
  int64_t events = 0;
  int64_t messages = 0;
  int64_t decide_ticks = 0;  ///< summed over instances
};
void ReplayKernel(const Workload& workload, KernelReplay* out);

/// db/commit_log: `slots` rounds of `members` transactions each through
/// Append, the replica acks of both phases in ack-delay order, the fast- or
/// slow-path MarkDurable, RecordDecision, MarkExecuted and FreeSlots (one
/// span per slot). Empty when the workload runs without a log.
struct LogReplay {
  LayerBusy slots;
};
void ReplayLog(const Workload& workload, int64_t slots, int64_t members,
               LogReplay* out);

}  // namespace fastcommit::perfbench

#endif  // FASTCOMMIT_PERFBENCH_REPLAY_H_
