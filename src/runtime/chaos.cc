#include "runtime/chaos.h"

#include <algorithm>
#include <string>

namespace rod::sim {

FailureSchedule& FailureSchedule::CrashAt(double time, uint32_t node) {
  events_.push_back(FaultEvent{time, node, FaultKind::kCrash, 1.0});
  return *this;
}

FailureSchedule& FailureSchedule::RecoverAt(double time, uint32_t node) {
  events_.push_back(FaultEvent{time, node, FaultKind::kRecover, 1.0});
  return *this;
}

FailureSchedule& FailureSchedule::SlowdownAt(double time, uint32_t node,
                                             double factor) {
  events_.push_back(FaultEvent{time, node, FaultKind::kSlowdown, factor});
  return *this;
}

FailureSchedule& FailureSchedule::LoadSpikeAt(double time, uint32_t stream,
                                              double factor) {
  events_.push_back(FaultEvent{time, stream, FaultKind::kLoadSpike, factor});
  return *this;
}

Status FailureSchedule::Validate(size_t num_nodes, size_t num_streams) const {
  for (const FaultEvent& e : events_) {
    if (e.kind == FaultKind::kLoadSpike) {
      if (e.node >= num_streams) {
        return Status::InvalidArgument("load spike targets input stream " +
                                       std::to_string(e.node) +
                                       " outside the query");
      }
    } else if (e.node >= num_nodes) {
      return Status::InvalidArgument("fault targets node " +
                                     std::to_string(e.node) +
                                     " outside the cluster");
    }
    if (e.time < 0.0) {
      return Status::InvalidArgument("fault scheduled before t=0");
    }
    if (e.kind == FaultKind::kSlowdown && e.factor <= 0.0) {
      return Status::InvalidArgument("slowdown factor must be positive");
    }
    if (e.kind == FaultKind::kLoadSpike && e.factor < 0.0) {
      return Status::InvalidArgument("load spike factor must be >= 0");
    }
  }
  // Replay the per-node up/down state machine in time order (stable sort
  // keeps insertion order for simultaneous events, which is also the
  // engine's replay order: EventQueue breaks time ties by push sequence).
  std::vector<size_t> order(events_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return events_[a].time < events_[b].time;
  });
  std::vector<bool> up(num_nodes, true);
  for (size_t i : order) {
    const FaultEvent& e = events_[i];
    switch (e.kind) {
      case FaultKind::kCrash:
        if (!up[e.node]) {
          return Status::InvalidArgument("node " + std::to_string(e.node) +
                                         " crashes while already down");
        }
        up[e.node] = false;
        break;
      case FaultKind::kRecover:
        if (up[e.node]) {
          return Status::InvalidArgument("node " + std::to_string(e.node) +
                                         " recovers while already up");
        }
        up[e.node] = true;
        break;
      case FaultKind::kSlowdown:
        if (!up[e.node]) {
          return Status::InvalidArgument("slowdown targets crashed node " +
                                         std::to_string(e.node));
        }
        break;
      case FaultKind::kLoadSpike:
        break;  // stream event: node liveness does not apply
    }
  }
  return Status::OK();
}

}  // namespace rod::sim
