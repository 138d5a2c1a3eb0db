#include "replay.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "db/commit_log.h"
#include "db/instance_pool.h"
#include "db/participant.h"
#include "db/partition_plane.h"
#include "db/workload.h"
#include "sim/simulator.h"

namespace fastcommit::perfbench {
namespace {

/// One transaction's ops grouped by partition, partitions ascending and
/// ops in program order within each — the grouping Database::Execute uses.
struct Routed {
  std::vector<int> partitions;
  std::vector<std::vector<db::Op>> ops;
};

void Route(const db::Database& router, const db::Transaction& tx,
           Routed* out) {
  std::vector<std::pair<int, size_t>> order;
  order.reserve(tx.ops.size());
  for (size_t i = 0; i < tx.ops.size(); ++i) {
    order.emplace_back(router.PartitionOf(tx.ops[i].key), i);
  }
  std::sort(order.begin(), order.end());
  out->partitions.clear();
  out->ops.clear();
  for (const auto& [partition, index] : order) {
    if (out->partitions.empty() || out->partitions.back() != partition) {
      out->partitions.push_back(partition);
      out->ops.emplace_back();
    }
    out->ops.back().push_back(tx.ops[index]);
  }
}

bool ServedBySnapshotPlane(const Workload& workload,
                           const db::Transaction& tx) {
  return workload.options.snapshot_reads && db::IsReadOnly(tx);
}

/// Calls `fn(arrival, routed)` for every arrival of the workload's stream.
template <typename Fn>
void ForEachRouted(const Workload& workload, Fn&& fn) {
  db::Database router(workload.options);
  db::TrafficEngine engine(workload.traffic);
  db::TrafficEngine::Arrival arrival;
  Routed routed;
  while (engine.Next(&arrival)) {
    Route(router, arrival.tx, &routed);
    fn(arrival, routed);
  }
}

/// Preloads every key of the workload with kInitialBalance through `put`,
/// which receives (partition, key, value).
template <typename Put>
void Preload(const Workload& workload, Put&& put) {
  db::Database router(workload.options);
  const std::string value = std::to_string(kInitialBalance);
  for (int64_t i = 0; i < workload.traffic.num_keys; ++i) {
    db::Key key = db::ItemKey(static_cast<int>(i));
    put(router.PartitionOf(key), key, value);
  }
}

}  // namespace

double EmptySpanNs() {
  // The median of several batches, so one disturbed batch does not skew it.
  static const double ns = [] {
    std::vector<double> batches;
    for (int b = 0; b < 5; ++b) {
      LayerBusy busy;
      for (int i = 0; i < 100000; ++i) Span(&busy, [] {});
      batches.push_back(static_cast<double>(busy.ns) /
                        static_cast<double>(busy.calls));
    }
    std::sort(batches.begin(), batches.end());
    return batches[batches.size() / 2];
  }();
  return ns;
}

double LayerBusy::NetNs() const {
  return static_cast<double>(ns) - static_cast<double>(spans) * EmptySpanNs();
}

double LayerBusy::NsPerCall() const {
  return calls == 0 ? 0.0 : NetNs() / static_cast<double>(calls);
}

void ReplayTraffic(const Workload& workload, TrafficReplay* out) {
  TrafficReplay& replay = *out;
  db::TrafficEngine engine(workload.traffic);
  db::TrafficEngine::Arrival arrival;
  for (int64_t i = 0; i < workload.traffic.num_arrivals; ++i) {
    Span(&replay.next, [&] { engine.Next(&arrival); });
  }
  replay.generated = engine.generated();
  replay.last_arrival_time = engine.last_arrival_time();
}

void ReplayStorage(const Workload& workload, StorageReplay* out) {
  StorageReplay& replay = *out;
  std::vector<std::unique_ptr<db::Participant>> parts;
  for (int p = 0; p < workload.options.num_partitions; ++p) {
    parts.push_back(std::make_unique<db::Participant>(
        p, workload.options.concurrency));
  }
  Preload(workload, [&](int p, const db::Key& key, const db::Value& value) {
    Span(&replay.load,
         [&] { parts[static_cast<size_t>(p)]->store().Put(key, value); });
  });

  int64_t csn = 0;
  std::vector<db::Value> values;
  ForEachRouted(workload, [&](const db::TrafficEngine::Arrival& arrival,
                              const Routed& routed) {
    const db::TxId id = arrival.tx.id;
    const size_t width = routed.partitions.size();
    if (ServedBySnapshotPlane(workload, arrival.tx)) {
      Spans(&replay.snapshot_read, width, [&] {
        for (size_t i = 0; i < width; ++i) {
          values.clear();
          parts[static_cast<size_t>(routed.partitions[i])]->ReadAtSnapshot(
              csn, routed.ops[i], &values);
        }
      });
      return;
    }
    bool all_yes = true;
    Spans(&replay.prepare, width, [&] {
      for (size_t i = 0; i < width; ++i) {
        commit::Vote vote =
            parts[static_cast<size_t>(routed.partitions[i])]->Prepare(
                id, routed.ops[i]);
        all_yes = all_yes && vote == commit::Vote::kYes;
      }
    });
    commit::Decision decision =
        all_yes ? commit::Decision::kCommit : commit::Decision::kAbort;
    int64_t commit_csn = all_yes ? ++csn : 0;
    Spans(&replay.finish, width, [&] {
      for (int p : routed.partitions) {
        parts[static_cast<size_t>(p)]->Finish(id, decision, commit_csn, csn);
      }
    });
  });
}

void ReplayPlane(const Workload& workload, PlaneReplay* out) {
  PlaneReplay& replay = *out;
  db::PartitionPlane plane(workload.options.num_partitions, 1,
                           workload.options.concurrency);
  Preload(workload, [&](int p, const db::Key& key, const db::Value& value) {
    plane.partition(p).store().Put(key, value);
  });

  int64_t csn = 0;
  // Snapshot-read value slots must outlive the barrier that fills them;
  // a deque keeps their addresses stable as it grows.
  std::deque<std::vector<db::Value>> read_slots;
  std::vector<commit::Vote> votes;
  ForEachRouted(workload, [&](const db::TrafficEngine::Arrival& arrival,
                              const Routed& routed) {
    const db::TxId id = arrival.tx.id;
    if (ServedBySnapshotPlane(workload, arrival.tx)) {
      for (size_t i = 0; i < routed.partitions.size(); ++i) {
        read_slots.emplace_back();
        std::vector<db::Value>* slot = &read_slots.back();
        Span(&replay.calls, [&] {
          plane.EnqueueSnapshotRead(routed.partitions[i], arrival.at, id, csn,
                                    routed.ops[i], slot);
        });
      }
      return;
    }
    votes.assign(routed.partitions.size(), commit::Vote::kNo);
    for (size_t i = 0; i < routed.partitions.size(); ++i) {
      Span(&replay.calls, [&] {
        std::vector<db::Op> ops = plane.TakeOpsBuffer();
        ops.assign(routed.ops[i].begin(), routed.ops[i].end());
        plane.EnqueuePrepare(routed.partitions[i], arrival.at, id,
                             std::move(ops), &votes[i]);
      });
    }
    Span(&replay.calls, [&] { plane.Flush(nullptr); });
    read_slots.clear();
    bool all_yes = std::all_of(votes.begin(), votes.end(), [](commit::Vote v) {
      return v == commit::Vote::kYes;
    });
    commit::Decision decision =
        all_yes ? commit::Decision::kCommit : commit::Decision::kAbort;
    int64_t commit_csn = all_yes ? ++csn : 0;
    for (int p : routed.partitions) {
      Span(&replay.calls, [&] {
        plane.EnqueueFinish(p, arrival.at, id, decision, commit_csn, csn);
      });
    }
  });
  Span(&replay.calls, [&] { plane.Flush(nullptr); });
  replay.tasks += plane.tasks_drained();
  replay.flushes += plane.flushes();
}

void ReplayKernel(const Workload& workload, KernelReplay* out) {
  KernelReplay& replay = *out;
  const db::Database::Options& options = workload.options;
  sim::Simulator simulator;
  db::CommitInstancePool pool(options.protocol, options.consensus,
                              options.protocol_options, options.unit,
                              /*enabled=*/true);
  ForEachRouted(workload, [&](const db::TrafficEngine::Arrival& arrival,
                              const Routed& routed) {
    if (ServedBySnapshotPlane(workload, arrival.tx) ||
        routed.partitions.size() < 2) {
      return;
    }
    std::vector<commit::Vote> votes(routed.partitions.size(),
                                    commit::Vote::kYes);
    db::CommitInstance* instance = nullptr;
    Span(&replay.instances, [&] {
      instance = pool.Acquire(0, &simulator, std::move(votes),
                              [](db::CommitInstance*, commit::Decision) {});
      instance->Start();
      replay.events += simulator.Run();
      pool.Release(instance);
    });
    replay.messages += instance->messages();
    replay.decide_ticks += instance->finish_time() - instance->start_time();
  });
}

void ReplayLog(const Workload& workload, int64_t slots, int64_t members,
               LogReplay* out) {
  LogReplay& replay = *out;
  const int replicas = workload.options.log_replicas;
  if (replicas <= 0) return;
  const sim::Time unit = workload.options.unit;
  db::CommitLog log(replicas, unit, workload.options.seed);
  std::vector<std::pair<sim::Time, int>> acks;
  sim::Time now = 0;
  for (int64_t s = 0; s < slots; ++s) {
    Span(&replay.slots, [&] {
      int64_t slot = log.Append(/*round_width=*/2, members, now);
      for (db::CommitLog::Phase phase :
           {db::CommitLog::Phase::kAccept, db::CommitLog::Phase::kDecide}) {
        if (phase == db::CommitLog::Phase::kDecide) {
          log.RecordDecision(slot, commit::Decision::kCommit, now);
        }
        acks.clear();
        for (int r = 0; r < replicas; ++r) {
          acks.emplace_back(log.AckDelay(slot, phase, r), r);
        }
        std::sort(acks.begin(), acks.end());
        // Unanimity wins unless the majority's two extra delays expire
        // before the last straggler acks.
        sim::Time slow_deadline = sim::kMaxTime;
        bool durable = false;
        for (const auto& [delay, replica] : acks) {
          if (delay > slow_deadline) break;
          db::CommitLog::AckOutcome outcome =
              log.OnReplicaAck(slot, phase, replica);
          if (outcome == db::CommitLog::AckOutcome::kFastQuorum) {
            durable = log.MarkDurable(slot, phase, /*fast_path=*/true);
            break;
          }
          if (outcome == db::CommitLog::AckOutcome::kSlowQuorum) {
            slow_deadline = delay + 2 * unit;
          }
        }
        if (!durable) log.MarkDurable(slot, phase, /*fast_path=*/false);
      }
      log.MarkExecuted(slot);
      log.FreeSlots();
    });
    now += unit;
  }
}

}  // namespace fastcommit::perfbench
