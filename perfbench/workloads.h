#ifndef FASTCOMMIT_PERFBENCH_WORKLOADS_H_
#define FASTCOMMIT_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/traffic.h"

namespace fastcommit::perfbench {

/// One benchmark workload: a Database configuration and the open-loop
/// arrival stream driven into it. Every workload runs on the database's
/// default placement (1 shard, 1 thread, partition-parallel plane,
/// lookahead off), so one core and no scheduler sit in the wall numbers.
struct Workload {
  std::string name;
  db::Database::Options options;
  /// Arrival stream; `seed` is overwritten from the command line.
  /// `num_arrivals` is the arrivals per repetition, the stated input size
  /// of committed_per_sec_wall.
  db::TrafficOptions traffic;
  /// Exact change of SumInts() per committed transaction: 0 for transfer
  /// pairs (conservation), keys_per_tx for read-modify-write increments.
  int64_t sum_delta_per_commit = 0;
};

/// Looks a workload up by name; nullptr when unknown.
const Workload* FindWorkload(const std::string& name);

/// `workload` with both random streams (traffic and database) seeded from
/// `seed`.
Workload Seeded(const Workload& workload, uint64_t seed);

/// Balance every key is preloaded with.
constexpr int64_t kInitialBalance = 1000;

}  // namespace fastcommit::perfbench

#endif  // FASTCOMMIT_PERFBENCH_WORKLOADS_H_
