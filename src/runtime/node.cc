#include "runtime/node.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_map>

namespace rod::sim {

void SimNode::Reset(double capacity) {
  assert(capacity > 0.0);
  capacity_ = capacity;
  queued_ = 0;
  queued_tuples_ = 0;
  queue_high_water_ = 0;
  bound_ = QueueBound{};
  drop_weights_ = nullptr;
  num_weights_ = 0;
  busy_ = false;
  busy_time_ = 0.0;
  tasks_processed_ = 0;
  fifo_.clear();
}

void SimNode::ConfigureOverflow(const QueueBound& bound,
                                const double* drop_weights,
                                size_t num_weights) {
  bound_ = bound;
  drop_weights_ = drop_weights;
  num_weights_ = num_weights;
}

Task SimNode::RemoveTupleAt(size_t i) {
  Task victim = fifo_.RemoveAt(i);
  assert(victim.op != Task::kCommTask);
  --queued_;
  --queued_tuples_;
  return victim;
}

Task SimNode::EvictOldestTuple() {
  assert(queued_tuples_ > 0);
  for (size_t i = 0; i < fifo_.size(); ++i) {
    if (fifo_.at(i).op != Task::kCommTask) return RemoveTupleAt(i);
  }
  assert(false && "queued_tuples_ > 0 but no tuple in the FIFO");
  return Task{};
}

Task SimNode::EvictNthTuple(size_t i) {
  assert(i < queued_tuples_);
  for (size_t k = 0; k < fifo_.size(); ++k) {
    if (fifo_.at(k).op == Task::kCommTask) continue;
    if (i == 0) return RemoveTupleAt(k);
    --i;
  }
  assert(false && "tuple index out of range");
  return Task{};
}

double SimNode::CheapestQueuedWeight() const {
  double min_w = std::numeric_limits<double>::infinity();
  for (const Task& t : fifo_) {
    if (t.op != Task::kCommTask) min_w = std::min(min_w, DropWeightOf(t.op));
  }
  return min_w;
}

Task SimNode::EvictCheapestTuple() {
  assert(queued_tuples_ > 0);
  size_t best = fifo_.size();
  double best_w = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < fifo_.size(); ++i) {
    const Task& t = fifo_.at(i);
    if (t.op == Task::kCommTask) continue;
    const double w = DropWeightOf(t.op);
    if (w < best_w) {  // strict: ties keep the first (oldest) candidate
      best_w = w;
      best = i;
    }
  }
  assert(best < fifo_.size());
  return RemoveTupleAt(best);
}

SimNode::EnqueueOutcome SimNode::EnqueueBounded(const Task& task, Rng& rng) {
  if (task.op == Task::kCommTask || bound_.capacity == 0 ||
      queued_tuples_ < bound_.capacity) {
    Enqueue(task);
    return EnqueueOutcome{};
  }
  EnqueueOutcome out;
  switch (bound_.policy) {
    case OverflowPolicy::kDropNewest:
      out.accepted = false;
      return out;
    case OverflowPolicy::kDropOldest:
      out.victim = EvictOldestTuple();
      out.evicted = true;
      break;
    case OverflowPolicy::kRandom: {
      // Uniform over the queued tuples plus the arrival itself, so every
      // candidate is equally likely to be the drop.
      const size_t pick = rng.NextIndex(queued_tuples_ + 1);
      if (pick == queued_tuples_) {
        out.accepted = false;
        return out;
      }
      out.victim = EvictNthTuple(pick);
      out.evicted = true;
      break;
    }
    case OverflowPolicy::kQosWeighted: {
      // Semantic shed: the least valuable tuple goes. Ties favour the
      // queued tuples (reject the arrival), which keeps the policy
      // work-conserving for uniform weights.
      if (DropWeightOf(task.op) <= CheapestQueuedWeight()) {
        out.accepted = false;
        return out;
      }
      out.victim = EvictCheapestTuple();
      out.evicted = true;
      break;
    }
  }
  Enqueue(task);
  return out;
}

void SimNode::AbortService() {
  assert(busy_);
  busy_ = false;
}

std::vector<Task> SimNode::DrainAll() {
  std::vector<Task> dropped(fifo_.begin(), fifo_.end());
  fifo_.clear();
  queued_ = 0;
  queued_tuples_ = 0;
  return dropped;
}

std::vector<Task> SimNode::ExtractIf(
    const std::function<bool(const Task&)>& pred) {
  std::vector<Task> extracted;
  fifo_.ExtractInto(pred, extracted);
  queued_ = fifo_.size();
  queued_tuples_ = 0;
  for (const Task& t : fifo_) {
    if (t.op != Task::kCommTask) ++queued_tuples_;
  }
  return extracted;
}

std::pair<uint32_t, size_t> SimNode::HottestOperator() const {
  std::pair<uint32_t, size_t> hottest{Task::kCommTask, 0};
  std::unordered_map<uint32_t, size_t> counts;
  for (const Task& t : fifo_) ++counts[t.op];
  for (const auto& [op, n] : counts) {
    if (n > hottest.second) hottest = {op, n};
  }
  return hottest;
}

void SimNode::set_capacity(double capacity) {
  assert(capacity > 0.0);
  capacity_ = capacity;
}

}  // namespace rod::sim
