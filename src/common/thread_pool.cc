#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>

namespace rod {

namespace {

/// Set while a thread is executing pool tasks; a nested ParallelFor issued
/// from a worker runs inline instead of re-entering the pool (a worker
/// blocking on sub-tasks behind it in the queue would deadlock the pool).
thread_local bool t_inside_pool_worker = false;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t count = std::max<size_t>(num_threads, 1);
  workers_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    assert(!stop_);
    queue_.push_back(std::move(task));
    if (telemetry_ != nullptr) {
      queue_depth_gauge_.Set(static_cast<double>(queue_.size()));
      queue_depth_high_water_.Max(static_cast<double>(queue_.size()));
    }
  }
  cv_.notify_one();
}

void ThreadPool::SubmitMany(size_t count, const std::function<void()>& task) {
  if (count == 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    assert(!stop_);
    for (size_t i = 0; i < count; ++i) queue_.push_back(task);
    if (telemetry_ != nullptr) {
      queue_depth_gauge_.Set(static_cast<double>(queue_.size()));
      queue_depth_high_water_.Max(static_cast<double>(queue_.size()));
    }
  }
  if (count == 1) {
    cv_.notify_one();
  } else {
    cv_.notify_all();
  }
}

void ThreadPool::set_telemetry(telemetry::Telemetry* telemetry) {
  assert(!t_inside_pool_worker);
  std::unique_lock<std::mutex> lock(mu_);
  // Quiesce before swapping: a worker ends its "pool/task" span after
  // the task's effects (including a ParallelFor completion notify) are
  // visible, so the previous sink stays reachable until no worker is
  // mid-task. Once this returns the old sink may be destroyed.
  idle_cv_.wait(lock, [this] { return queue_.empty() && busy_workers_ == 0; });
  telemetry_ = telemetry;
  if (telemetry != nullptr) {
    tasks_counter_ = telemetry->counter("pool.tasks");
    queue_depth_gauge_ = telemetry->gauge("pool.queue_depth");
    queue_depth_high_water_ = telemetry->gauge("pool.queue_depth_high_water");
  } else {
    tasks_counter_ = telemetry::Counter();
    queue_depth_gauge_ = telemetry::Gauge();
    queue_depth_high_water_ = telemetry::Gauge();
  }
}

void ThreadPool::WorkerLoop() {
  t_inside_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    telemetry::Telemetry* telemetry = nullptr;
    telemetry::Counter tasks_counter;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++busy_workers_;
      telemetry = telemetry_;
      if (telemetry != nullptr) {
        tasks_counter = tasks_counter_;
        queue_depth_gauge_.Set(static_cast<double>(queue_.size()));
      }
    }
    if (telemetry != nullptr) {
      telemetry::TraceSpan span(telemetry, "pool", "task");
      tasks_counter.Add();
      task();
    } else {
      task();
    }
    // The span above has ended and the task's captures are gone: the
    // worker no longer touches the sink, so it may count as idle for
    // set_telemetry's quiescence wait.
    task = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      --busy_workers_;
      if (busy_workers_ == 0 && queue_.empty()) idle_cv_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(
      std::max<size_t>(1, std::thread::hardware_concurrency()));
  return pool;
}

void ParallelFor(ThreadPool& pool, size_t num_threads, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (num_threads <= 1 || n <= 1 || t_inside_pool_worker) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Workers (including the caller) pull indices from a shared cursor. The
  // state block is shared-owned because a helper task can outlive this
  // frame's local scope only between its final notify and the caller's
  // wakeup.
  struct State {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    size_t done_helpers = 0;
  };
  auto state = std::make_shared<State>();
  auto drain = [state, n, &fn] {
    for (;;) {
      const size_t i = state->next.fetch_add(1);
      if (i >= n) return;
      fn(i);
    }
  };
  // The caller is one of the `num_threads` lanes; the rest are pool tasks,
  // submitted as one batch (one lock, one telemetry update).
  const size_t helpers = std::min(num_threads, n) - 1;
  pool.SubmitMany(helpers, [state, drain] {
    drain();
    {
      std::lock_guard<std::mutex> lock(state->mu);
      ++state->done_helpers;
    }
    state->cv.notify_one();
  });
  drain();
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock,
                 [&] { return state->done_helpers == helpers; });
}

void ParallelFor(size_t num_threads, size_t n,
                 const std::function<void(size_t)>& fn) {
  ParallelFor(ThreadPool::Shared(), num_threads, n, fn);
}

}  // namespace rod
