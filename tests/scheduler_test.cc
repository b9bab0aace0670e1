// Unit tests of SimNode: FIFO service, bounded ingress under every
// OverflowPolicy, and the queue operations the engine uses on crash and
// migration (DrainAll, ExtractIf) and on runaway-load aborts
// (HottestOperator).

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "runtime/node.h"

namespace rod::sim {
namespace {

Task MakeTask(uint32_t op, double origin = 0.0) {
  Task t;
  t.op = op;
  t.origin = origin;
  return t;
}

Task CommTask() { return MakeTask(Task::kCommTask); }

/// Origins of the queued tasks in service order (empties the queue).
std::vector<double> ServeAll(SimNode& node) {
  std::vector<double> origins;
  while (node.CanStart()) {
    origins.push_back(node.StartService().origin);
    node.FinishService(0.0);
  }
  return origins;
}

TEST(SimNodeTest, FifoServesInArrivalOrder) {
  SimNode node(1.0);
  node.Enqueue(MakeTask(7, 1.0));
  node.Enqueue(MakeTask(7, 2.0));
  node.Enqueue(MakeTask(9, 3.0));
  EXPECT_EQ(node.queue_length(), 3u);
  EXPECT_DOUBLE_EQ(node.StartService().origin, 1.0);
  node.FinishService(0.1);
  EXPECT_DOUBLE_EQ(node.StartService().origin, 2.0);
  node.FinishService(0.1);
  EXPECT_DOUBLE_EQ(node.StartService().origin, 3.0);
  node.FinishService(0.1);
  EXPECT_EQ(node.queue_length(), 0u);
  EXPECT_EQ(node.tasks_processed(), 3u);
  EXPECT_NEAR(node.busy_time(), 0.3, 1e-12);
}

TEST(SimNodeTest, BusyBlocksStart) {
  SimNode node(2.0);
  node.Enqueue(MakeTask(0));
  node.Enqueue(MakeTask(0));
  EXPECT_TRUE(node.CanStart());
  (void)node.StartService();
  EXPECT_TRUE(node.busy());
  EXPECT_FALSE(node.CanStart());  // still serving
  node.FinishService(0.1);
  EXPECT_TRUE(node.CanStart());
}

TEST(SimNodeTest, ServiceTimeScalesWithCapacity) {
  SimNode fast(4.0);
  SimNode slow(0.5);
  EXPECT_DOUBLE_EQ(fast.ServiceTime(1.0), 0.25);
  EXPECT_DOUBLE_EQ(slow.ServiceTime(1.0), 2.0);
}

TEST(SimNodeTest, DropNewestRejectsTheArrivalAtCapacity) {
  SimNode node(1.0);
  node.ConfigureOverflow({.capacity = 2, .policy = OverflowPolicy::kDropNewest});
  Rng rng(1);
  EXPECT_TRUE(node.EnqueueBounded(MakeTask(0, 1.0), rng).accepted);
  EXPECT_TRUE(node.EnqueueBounded(MakeTask(0, 2.0), rng).accepted);
  const auto out = node.EnqueueBounded(MakeTask(0, 3.0), rng);
  EXPECT_FALSE(out.accepted);
  EXPECT_FALSE(out.evicted);
  EXPECT_EQ(node.tuple_queue_length(), 2u);
  EXPECT_EQ(node.queue_high_water(), 2u);
  EXPECT_EQ(ServeAll(node), (std::vector<double>{1.0, 2.0}));
}

TEST(SimNodeTest, UnboundedNodeAdmitsEverything) {
  SimNode node(1.0);  // capacity 0: no bound
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(node.EnqueueBounded(MakeTask(0), rng).accepted);
  }
  EXPECT_EQ(node.tuple_queue_length(), 100u);
}

TEST(SimNodeTest, CommTasksAreExemptFromTheBound) {
  SimNode node(1.0);
  node.ConfigureOverflow({.capacity = 1, .policy = OverflowPolicy::kDropNewest});
  Rng rng(1);
  // A queued comm task does not use up the tuple capacity ...
  EXPECT_TRUE(node.EnqueueBounded(CommTask(), rng).accepted);
  EXPECT_TRUE(node.EnqueueBounded(MakeTask(0, 1.0), rng).accepted);
  // ... and a comm task is admitted even with the tuple queue full.
  EXPECT_TRUE(node.EnqueueBounded(CommTask(), rng).accepted);
  EXPECT_FALSE(node.EnqueueBounded(MakeTask(0, 2.0), rng).accepted);
  EXPECT_EQ(node.queue_length(), 3u);
  EXPECT_EQ(node.tuple_queue_length(), 1u);
  EXPECT_EQ(node.queue_high_water(), 1u);  // counts tuples only
}

TEST(SimNodeTest, DropOldestEvictsTheOldestTupleNotACommTask) {
  SimNode node(1.0);
  node.ConfigureOverflow({.capacity = 2, .policy = OverflowPolicy::kDropOldest});
  Rng rng(1);
  node.Enqueue(CommTask());
  node.Enqueue(MakeTask(0, 1.0));
  node.Enqueue(MakeTask(1, 2.0));
  const auto out = node.EnqueueBounded(MakeTask(2, 3.0), rng);
  EXPECT_TRUE(out.accepted);
  ASSERT_TRUE(out.evicted);
  EXPECT_EQ(out.victim.op, 0u);
  EXPECT_DOUBLE_EQ(out.victim.origin, 1.0);
  EXPECT_EQ(node.queue_length(), 3u);
  EXPECT_EQ(node.tuple_queue_length(), 2u);
  EXPECT_EQ(ServeAll(node), (std::vector<double>{0.0, 2.0, 3.0}));
}

TEST(SimNodeTest, RandomDropsUniformlyAmongQueuedTuplesAndTheArrival) {
  // Tuples 1..3 (by origin) with comm tasks between them; the draw picks
  // among the three queued tuples (skipping comm tasks) and the arrival.
  bool saw_reject = false;
  bool saw_evict = false;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SimNode node(1.0);
    node.ConfigureOverflow({.capacity = 3, .policy = OverflowPolicy::kRandom});
    Rng rng(seed);
    node.Enqueue(MakeTask(0, 1.0));
    node.Enqueue(CommTask());
    node.Enqueue(MakeTask(0, 2.0));
    node.Enqueue(CommTask());
    node.Enqueue(MakeTask(0, 3.0));
    Rng expected = rng;
    const size_t pick = expected.NextIndex(4);
    const auto out = node.EnqueueBounded(MakeTask(0, 4.0), rng);
    EXPECT_EQ(rng.NextU64(), expected.NextU64());  // exactly one draw
    EXPECT_EQ(node.tuple_queue_length(), 3u);
    EXPECT_EQ(node.queue_length(), 5u);
    if (pick == 3) {
      saw_reject = true;
      EXPECT_FALSE(out.accepted);
      EXPECT_FALSE(out.evicted);
    } else {
      saw_evict = true;
      EXPECT_TRUE(out.accepted);
      ASSERT_TRUE(out.evicted);
      EXPECT_DOUBLE_EQ(out.victim.origin, static_cast<double>(pick + 1));
    }
  }
  EXPECT_TRUE(saw_reject);
  EXPECT_TRUE(saw_evict);
}

TEST(SimNodeTest, RandomDoesNotDrawBelowCapacity) {
  SimNode node(1.0);
  node.ConfigureOverflow({.capacity = 2, .policy = OverflowPolicy::kRandom});
  Rng rng(5);
  Rng untouched = rng;
  EXPECT_TRUE(node.EnqueueBounded(MakeTask(0), rng).accepted);
  EXPECT_TRUE(node.EnqueueBounded(MakeTask(0), rng).accepted);
  EXPECT_EQ(rng.NextU64(), untouched.NextU64());
}

TEST(SimNodeTest, QosWeightedEvictsTheOldestCheapestTuple) {
  // Drop weights: op 0 -> 1.0, op 1 -> 0.5, op 2 -> 2.0; ops past the
  // table weigh 1.0.
  const std::vector<double> weights = {1.0, 0.5, 2.0};
  SimNode node(1.0);
  node.ConfigureOverflow(
      {.capacity = 3, .policy = OverflowPolicy::kQosWeighted},
      weights.data(), weights.size());
  Rng rng(1);
  node.Enqueue(MakeTask(0, 1.0));
  node.Enqueue(MakeTask(1, 2.0));
  node.Enqueue(CommTask());
  node.Enqueue(MakeTask(1, 3.0));

  // A heavier arrival evicts the cheapest queued tuple; of the two op-1
  // tuples the older goes.
  auto out = node.EnqueueBounded(MakeTask(2, 4.0), rng);
  EXPECT_TRUE(out.accepted);
  ASSERT_TRUE(out.evicted);
  EXPECT_DOUBLE_EQ(out.victim.origin, 2.0);

  // Tie rule: an arrival weighing the same as the cheapest queued tuple
  // is itself rejected, and nothing queued is dropped.
  out = node.EnqueueBounded(MakeTask(1, 5.0), rng);
  EXPECT_FALSE(out.accepted);
  EXPECT_FALSE(out.evicted);

  out = node.EnqueueBounded(MakeTask(0, 6.0), rng);
  EXPECT_TRUE(out.accepted);
  ASSERT_TRUE(out.evicted);
  EXPECT_DOUBLE_EQ(out.victim.origin, 3.0);

  // Op 7 is past the weight table: weight 1.0 ties the cheapest queued
  // tuples (op 0), so it is rejected.
  out = node.EnqueueBounded(MakeTask(7, 7.0), rng);
  EXPECT_FALSE(out.accepted);

  EXPECT_EQ(node.tuple_queue_length(), 3u);
  EXPECT_EQ(node.queue_length(), 4u);
  EXPECT_EQ(ServeAll(node), (std::vector<double>{1.0, 0.0, 4.0, 6.0}));
}

TEST(SimNodeTest, ExtractIfKeepsSurvivorOrderAndRecountsTuples) {
  SimNode node(1.0);
  node.Enqueue(MakeTask(1, 1.0));
  node.Enqueue(CommTask());
  node.Enqueue(MakeTask(2, 2.0));
  node.Enqueue(MakeTask(1, 3.0));
  node.Enqueue(CommTask());
  node.Enqueue(MakeTask(2, 4.0));
  const std::vector<Task> moved =
      node.ExtractIf([](const Task& t) { return t.op == 1; });
  ASSERT_EQ(moved.size(), 2u);
  EXPECT_DOUBLE_EQ(moved[0].origin, 1.0);
  EXPECT_DOUBLE_EQ(moved[1].origin, 3.0);
  EXPECT_EQ(node.queue_length(), 4u);
  EXPECT_EQ(node.tuple_queue_length(), 2u);  // comm tasks not counted
  EXPECT_EQ(ServeAll(node), (std::vector<double>{0.0, 2.0, 0.0, 4.0}));
  EXPECT_EQ(node.tuple_queue_length(), 0u);
}

TEST(SimNodeTest, DrainAllReturnsTheQueueInOrderAndEmptiesIt) {
  SimNode node(1.0);
  node.Enqueue(MakeTask(0, 1.0));
  (void)node.StartService();  // in flight: not part of the queue
  node.Enqueue(MakeTask(3, 2.0));
  node.Enqueue(CommTask());
  node.Enqueue(MakeTask(4, 3.0));
  const std::vector<Task> dropped = node.DrainAll();
  ASSERT_EQ(dropped.size(), 3u);
  EXPECT_DOUBLE_EQ(dropped[0].origin, 2.0);
  EXPECT_EQ(dropped[1].op, Task::kCommTask);
  EXPECT_DOUBLE_EQ(dropped[2].origin, 3.0);
  EXPECT_EQ(node.queue_length(), 0u);
  EXPECT_EQ(node.tuple_queue_length(), 0u);
  EXPECT_EQ(node.queue_high_water(), 2u);  // the run's peak survives
  EXPECT_TRUE(node.busy());
  node.AbortService();
  EXPECT_FALSE(node.CanStart());
  EXPECT_TRUE(node.DrainAll().empty());
}

TEST(SimNodeTest, HottestOperatorCountsQueuedTasks) {
  SimNode node(1.0);
  EXPECT_EQ(node.HottestOperator(),
            (std::pair<uint32_t, size_t>{Task::kCommTask, 0}));
  node.Enqueue(MakeTask(5));
  node.Enqueue(MakeTask(3));
  node.Enqueue(CommTask());
  node.Enqueue(MakeTask(3));
  node.Enqueue(MakeTask(3));
  EXPECT_EQ(node.HottestOperator(), (std::pair<uint32_t, size_t>{3, 3}));
  for (int i = 0; i < 3; ++i) node.Enqueue(CommTask());
  EXPECT_EQ(node.HottestOperator(),
            (std::pair<uint32_t, size_t>{Task::kCommTask, 4}));
}

}  // namespace
}  // namespace rod::sim
