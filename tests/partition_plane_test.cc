// Unit tests of the partition plane (db/partition_plane.h) driven directly,
// without a Database on top:
//   - FIFO replay: a finish enqueued before a later prepare on the same
//     partition releases its locks first, so the prepare votes kYes;
//   - the canonical-order guard rejects an enqueue older than its queue's
//     last task;
//   - a down partition answers prepares kNo without reaching the
//     Participant, and defers finishes until RestartPartition replays them
//     ahead of newer tasks;
//   - a snapshot read bumps its read_done counter exactly once per task,
//     including a read deferred across a partition crash.

#include <gtest/gtest.h>

#include <vector>

#include "commit/commit_protocol.h"
#include "db/partition_plane.h"
#include "db/transaction.h"

namespace fastcommit::db {
namespace {

std::vector<Op> AddOps(const Key& key, int64_t delta) {
  return {Transaction::Add(key, delta)};
}

TEST(PartitionPlaneTest, FinishReleasesLocksBeforeLaterPrepare) {
  PartitionPlane plane(2, 1);
  commit::Vote first = commit::Vote::kNo;
  plane.EnqueuePrepare(0, 0, /*tx=*/1, AddOps("k", 5), &first);
  plane.Flush();
  ASSERT_EQ(first, commit::Vote::kYes);

  // Without tx 1's finish, tx 2 hits its exclusive lock and votes kNo.
  commit::Vote blocked = commit::Vote::kYes;
  plane.EnqueuePrepare(0, 10, /*tx=*/2, AddOps("k", 1), &blocked);
  plane.Flush();
  EXPECT_EQ(blocked, commit::Vote::kNo);

  // The finish is queued first, so it drains first in the same flush.
  commit::Vote second = commit::Vote::kNo;
  plane.EnqueueFinish(0, 20, /*tx=*/1, commit::Decision::kCommit, /*csn=*/1);
  plane.EnqueuePrepare(0, 20, /*tx=*/3, AddOps("k", 1), &second);
  EXPECT_TRUE(plane.has_pending());
  plane.Flush();
  EXPECT_FALSE(plane.has_pending());
  EXPECT_EQ(second, commit::Vote::kYes);
  EXPECT_EQ(plane.partition(0).store().GetInt("k"), 5);
  EXPECT_EQ(plane.flushes(), 3);
  EXPECT_EQ(plane.tasks_drained(), 4);
}

TEST(PartitionPlaneDeathTest, OutOfCanonicalOrderEnqueueDies) {
  PartitionPlane plane(1, 1);
  commit::Vote vote = commit::Vote::kNo;
  plane.EnqueuePrepare(0, 20, /*tx=*/1, AddOps("k", 1), &vote);
  EXPECT_DEATH(plane.EnqueueFinish(0, 10, /*tx=*/1, commit::Decision::kAbort),
               "out of canonical order");
}

TEST(PartitionPlaneTest, DownPartitionVotesNoWithoutReachingParticipant) {
  PartitionPlane plane(2, 1);
  plane.CrashPartition(0);
  EXPECT_TRUE(plane.partition_down(0));
  commit::Vote down = commit::Vote::kYes;
  commit::Vote up = commit::Vote::kNo;
  plane.EnqueuePrepare(0, 0, /*tx=*/1, AddOps("a", 1), &down);
  plane.EnqueuePrepare(1, 0, /*tx=*/1, AddOps("b", 1), &up);
  plane.Flush();
  EXPECT_EQ(down, commit::Vote::kNo);
  EXPECT_EQ(up, commit::Vote::kYes);
  EXPECT_EQ(plane.partition(0).prepares(), 0)
      << "a down partition's Participant must not see the prepare";
  EXPECT_EQ(plane.partition(1).prepares(), 1);
  EXPECT_EQ(plane.down_vote_noes(), 1);
}

TEST(PartitionPlaneTest, DeferredFinishReplaysAheadOfNewerTasks) {
  PartitionPlane plane(1, 1);
  commit::Vote vote = commit::Vote::kNo;
  plane.EnqueuePrepare(0, 0, /*tx=*/1, AddOps("k", 7), &vote);
  plane.Flush();
  ASSERT_EQ(vote, commit::Vote::kYes);

  // Crash holding tx 1's lock: its finish waits out the downtime.
  plane.CrashPartition(0);
  plane.EnqueueFinish(0, 5, /*tx=*/1, commit::Decision::kCommit, /*csn=*/1);
  plane.Flush();
  EXPECT_EQ(plane.deferred_tasks_total(), 1);
  EXPECT_EQ(plane.partition(0).locks().held_locks(), 1);
  EXPECT_EQ(plane.partition(0).store().GetInt("k"), 0);

  // tx 2's prepare is queued before the restart but drains after it. The
  // restart puts the deferred finish ahead of it (the finish is the older
  // work), so the prepare finds the lock free.
  commit::Vote later = commit::Vote::kNo;
  plane.EnqueuePrepare(0, 10, /*tx=*/2, AddOps("k", 1), &later);
  plane.RestartPartition(0);
  plane.Flush();
  EXPECT_EQ(later, commit::Vote::kYes);
  EXPECT_EQ(plane.partition(0).store().GetInt("k"), 7);
  EXPECT_EQ(plane.down_vote_noes(), 0);
}

TEST(PartitionPlaneTest, SnapshotReadBumpsReadDoneOncePerTask) {
  PartitionPlane plane(2, 1);
  plane.partition(0).store().Put("a", "va");
  plane.partition(1).store().Put("b", "vb");

  int read_done = 0;
  std::vector<Value> slot_a;
  std::vector<Value> slot_b;
  plane.EnqueueSnapshotRead(0, 0, /*tx=*/1, /*snapshot_csn=*/0,
                            {Transaction::Get("a")}, &slot_a, &read_done);
  plane.EnqueueSnapshotRead(1, 0, /*tx=*/1, /*snapshot_csn=*/0,
                            {Transaction::Get("b")}, &slot_b, &read_done);
  plane.Flush();
  EXPECT_EQ(read_done, 2);
  EXPECT_EQ(slot_a, std::vector<Value>{"va"});
  EXPECT_EQ(slot_b, std::vector<Value>{"vb"});
  plane.Flush();  // nothing pending: no task runs twice
  EXPECT_EQ(read_done, 2);

  // A read at a down partition is deferred, not dropped: it counts once,
  // at the barrier after restart.
  int deferred_done = 0;
  std::vector<Value> slot_c;
  plane.CrashPartition(0);
  plane.EnqueueSnapshotRead(0, 5, /*tx=*/2, /*snapshot_csn=*/0,
                            {Transaction::Get("a")}, &slot_c, &deferred_done);
  plane.Flush();
  EXPECT_EQ(deferred_done, 0);
  plane.RestartPartition(0);
  plane.Flush();
  EXPECT_EQ(deferred_done, 1);
  EXPECT_EQ(slot_c, std::vector<Value>{"va"});
}

}  // namespace
}  // namespace fastcommit::db
