#include "workloads.h"

namespace fastcommit::perfbench {
namespace {

// transfer-1m: one pooled INBAC instance per multi-partition commit over a
// working set (~160 MB resident) far larger than the CPU caches, so the
// commit kernel, the network and storage lookups dominate the wall time.
Workload Transfer1m() {
  Workload w;
  w.name = "transfer-1m";
  w.options.num_partitions = 8;
  w.options.protocol = core::ProtocolKind::kInbac;
  w.options.concurrency = db::ConcurrencyMode::k2PL;
  w.traffic.process = db::ArrivalProcess::kPoisson;
  w.traffic.mean_gap = 40.0;
  w.traffic.shape = db::TxShape::kTransferPair;
  w.traffic.num_keys = int64_t{1} << 20;
  w.traffic.num_arrivals = 100000;
  w.sum_delta_per_commit = 0;
  return w;
}

// hot-batched: the control plane does most of the work — adaptive group
// commit with cross-set joins and round merging, retries on a skewed hot
// set that fits in cache, a 3-replica commit log and admission control —
// while batching amortizes the commit kernel over several commits. The
// retry budget and the admission cap sit above anything this stream
// reaches, so no arrival is shed or gives up: contention shows as retries
// and waiting, and every operation the benchmark counts succeeds.
Workload HotBatched() {
  Workload w;
  w.name = "hot-batched";
  w.options.num_partitions = 4;
  w.options.protocol = core::ProtocolKind::kPaxosCommit;
  w.options.concurrency = db::ConcurrencyMode::k2PL;
  w.options.batch_window = 100;
  w.options.batch_adaptive = true;
  w.options.batch_window_max = 400;
  w.options.batch_cross_set = true;
  w.options.batch_round_merge = true;
  w.options.log_replicas = 3;
  w.options.max_inflight = 1024;
  w.options.max_attempts = 64;
  w.traffic.process = db::ArrivalProcess::kBursty;
  w.traffic.mean_gap = 20.0;
  w.traffic.shape = db::TxShape::kReadModifyWrite;
  w.traffic.keys_per_tx = 2;
  w.traffic.zipf_exponent = 0.6;
  w.traffic.drift_period = 1000;
  w.traffic.num_keys = 4096;
  w.traffic.num_arrivals = 200000;
  w.sum_delta_per_commit = 2;
  return w;
}

// read-mostly: 90% four-key read-only transactions served by the snapshot
// read plane (MVCC storage through the partition FIFO, no commit kernel)
// beside OCC transfer pairs on a Zipf 0.99 hot set. As in hot-batched,
// the retry budget lets every validation failure retry to a commit.
Workload ReadMostly() {
  Workload w;
  w.name = "read-mostly";
  w.options.num_partitions = 8;
  w.options.protocol = core::ProtocolKind::kInbac;
  w.options.concurrency = db::ConcurrencyMode::kOCC;
  w.options.snapshot_reads = true;
  w.options.max_attempts = 64;
  w.traffic.process = db::ArrivalProcess::kPoisson;
  w.traffic.mean_gap = 10.0;
  w.traffic.shape = db::TxShape::kTransferPair;
  w.traffic.read_fraction = 0.9;
  w.traffic.reads_per_tx = 4;
  w.traffic.zipf_exponent = 0.99;
  w.traffic.num_keys = 65536;
  w.traffic.num_arrivals = 200000;
  w.sum_delta_per_commit = 0;
  return w;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  // In the order BENCHMARK.json lists them.
  static const std::vector<Workload> workloads = {Transfer1m(), HotBatched(),
                                                  ReadMostly()};
  for (const Workload& w : workloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Workload Seeded(const Workload& workload, uint64_t seed) {
  Workload w = workload;
  w.options.seed = seed;
  w.traffic.seed = seed;
  return w;
}

}  // namespace fastcommit::perfbench
