// Tests for the worker pool and the per-index ParallelFor determinism
// contract: every index runs exactly once, and index-slot reductions are
// bit-identical for every parallelism level. The stress cases double as
// ASan/UBSan/TSan targets.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <vector>

namespace rod {
namespace {

TEST(ThreadPoolTest, AtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ran.load() < 64 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }  // ~ThreadPool drains, then joins
  EXPECT_EQ(ran.load(), 32);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (size_t threads : {1u, 2u, 8u}) {
    std::vector<int> visits(1003, 0);
    ParallelFor(threads, visits.size(), [&](size_t i) { ++visits[i]; });
    EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), 1003)
        << threads;
    for (int v : visits) EXPECT_EQ(v, 1);
  }
}

TEST(ParallelForTest, IndexSlotReductionIsBitExact) {
  // Write sin(i) into slot i, reduce in index order: every thread count
  // must produce the exact same double.
  const size_t n = 5000;
  auto reduce = [&](size_t threads) {
    std::vector<double> slots(n, 0.0);
    ParallelFor(threads, n, [&](size_t i) {
      slots[i] = std::sin(static_cast<double>(i));
    });
    double total = 0.0;
    for (double v : slots) total += v;
    return total;
  };
  const double seq = reduce(1);
  EXPECT_EQ(reduce(2), seq);
  EXPECT_EQ(reduce(8), seq);
}

TEST(ParallelForTest, SingleThreadRunsInlineOnCaller) {
  const auto caller = std::this_thread::get_id();
  std::vector<size_t> order;
  ParallelFor(1, 100, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelForTest, NestedCallsCompleteWithoutDeadlock) {
  std::atomic<int> inner_total{0};
  ParallelFor(4, 8, [&](size_t) {
    ParallelFor(4, 16, [&](size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ParallelForTest, ZeroItemsIsANoop) {
  ParallelFor(8, 0, [&](size_t) { FAIL(); });
}

TEST(ParallelForTest, ExplicitPoolStress) {
  // Many small loops over a private pool — the sanitizer job chews on the
  // queue handoff and the completion protocol here.
  ThreadPool pool(8);
  for (int round = 0; round < 100; ++round) {
    std::vector<int> hits(257, 0);
    ParallelFor(pool, 8, hits.size(), [&](size_t i) { ++hits[i]; });
    for (int h : hits) ASSERT_EQ(h, 1);
  }
}

TEST(ThreadPoolTest, SetTelemetryQuiescesBeforeSwap) {
  // Regression: a worker ends its "pool/task" span after the task's
  // completion is observable, so swapping the sink and destroying the
  // old one right after a ParallelFor used to race the span end
  // (use-after-free, bad_alloc from a garbage ring capacity). The swap
  // now blocks until no worker is mid-task; this loop crashes under
  // ASan without that guarantee.
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    telemetry::Telemetry scoped;
    pool.set_telemetry(&scoped);
    std::atomic<int> sum{0};
    ParallelFor(pool, 4, 64, [&](size_t) { sum += 1; });
    EXPECT_EQ(sum.load(), 64);
    pool.set_telemetry(nullptr);
    // `scoped` dies here; no worker may still be recording into it.
  }
}

TEST(ThreadPoolTest, SubmitRecordsQueueHighWaterGauge) {
  telemetry::Telemetry tel;
  ThreadPool pool(1);
  pool.set_telemetry(&tel);
  std::mutex gate;
  gate.lock();  // Hold the single worker so the queue backs up.
  pool.Submit([&gate] { gate.lock(); gate.unlock(); });
  for (int i = 0; i < 5; ++i) pool.Submit([] {});
  const double high_water =
      tel.Snapshot().gauges.at("pool.queue_depth_high_water");
  EXPECT_GE(high_water, 5.0);
  gate.unlock();
  pool.set_telemetry(nullptr);  // Quiesces: all tasks drained.
  // The ratchet survives until an Aggregator-style reset.
  EXPECT_GE(tel.Snapshot().gauges.at("pool.queue_depth_high_water"), 5.0);
}

}  // namespace
}  // namespace rod
