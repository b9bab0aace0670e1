// Copyright (c) the ROD reproduction authors.
//
// A small fixed-size worker pool plus a per-index ParallelFor, the
// execution core of the simulation sweep runner (runtime/sweep.h).
// Determinism contract: ParallelFor calls `fn(i)` exactly once for every
// index, and only the index-to-thread mapping depends on scheduling, so a
// caller that writes each result into slot `i` and reduces the slots in
// index order gets bit-identical output for every `num_threads`.

#ifndef ROD_COMMON_THREAD_POOL_H_
#define ROD_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "telemetry/telemetry.h"

namespace rod {

/// A fixed set of worker threads draining a shared task queue. Tasks must
/// not throw (an escaping exception terminates the process). Destruction
/// drains every queued task, then joins the workers.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues `task` for execution on some worker.
  void Submit(std::function<void()> task);

  /// Enqueues `count` copies of `task` under one lock acquisition, with a
  /// single queue-depth gauge update for the whole batch (ParallelFor's
  /// helper fan-out: submitting N helpers one by one pays N lock round
  /// trips and N telemetry ratchets for identical tasks).
  void SubmitMany(size_t count, const std::function<void()>& task);

  /// Attaches (or, with nullptr, detaches) a telemetry sink: workers
  /// record a "pool/task" span per executed task, a `pool.tasks`
  /// counter, a `pool.queue_depth` gauge, and a
  /// `pool.queue_depth_high_water` gauge (peak depth, ratcheted with
  /// Gauge::Max on submit; the Aggregator resets it each sample). Not
  /// owned; the sink must outlive its attachment.
  ///
  /// Swapping quiesces: the call blocks until the queue is empty and no
  /// worker is mid-task, because a worker ends its "pool/task" span
  /// *after* the task's completion becomes observable (a ParallelFor
  /// caller can wake, return, and destroy a scoped sink while the span
  /// end is still in flight — the swap must not race that). After
  /// set_telemetry returns, no worker can touch the previous sink, so
  /// the caller may destroy it. Must not be called from a pool task
  /// (it would wait on itself).
  void set_telemetry(telemetry::Telemetry* telemetry);

  /// Process-wide pool sized to the hardware concurrency (>= 1), created
  /// on first use. The ParallelFor overload without an explicit pool runs
  /// on this instance.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;  ///< Signals queue empty + no busy worker.
  std::deque<std::function<void()>> queue_;
  size_t busy_workers_ = 0;  ///< Guarded by mu_; includes the span end.
  bool stop_ = false;
  // Guarded by mu_; copied out before use so spans run unlocked.
  telemetry::Telemetry* telemetry_ = nullptr;
  telemetry::Counter tasks_counter_;
  telemetry::Gauge queue_depth_gauge_;
  telemetry::Gauge queue_depth_high_water_;
  std::vector<std::thread> workers_;
};

/// Parallel loop over [0, n): invokes `fn(i)` once for every index. At
/// most `num_threads` indices execute concurrently (the calling thread
/// participates as one of them). Runs inline on the caller, in index
/// order, when `num_threads <= 1`, when `n == 1`, or when called from
/// inside a pool worker (nested loops never re-enter the pool, so a worker
/// can never deadlock waiting on its own queue). Blocks until every index
/// has completed. `fn` must not throw and must only write index-owned
/// (disjoint) state.
void ParallelFor(ThreadPool& pool, size_t num_threads, size_t n,
                 const std::function<void(size_t i)>& fn);

/// ParallelFor over ThreadPool::Shared().
void ParallelFor(size_t num_threads, size_t n,
                 const std::function<void(size_t i)>& fn);

}  // namespace rod

#endif  // ROD_COMMON_THREAD_POOL_H_
