// Copyright (c) the ROD reproduction authors.
//
// Payload serialization for the cluster protocol: a little-endian
// bounds-checked reader/writer pair plus one struct per message type
// (frame.h owns the framing; this file owns what is inside each frame).
// The deployment plan ships the whole query graph, so a worker process
// needs no out-of-band configuration: everything it executes arrives
// from the coordinator over the wire.

#ifndef ROD_CLUSTER_WIRE_H_
#define ROD_CLUSTER_WIRE_H_

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "query/query_graph.h"

namespace rod::cluster {

/// Per-message cap on any count (vector elements, string bytes): far
/// above any legitimate cluster (the simulator's biggest graphs are a few
/// hundred operators), and small enough that a corrupt count cannot drive
/// a giant resize.
inline constexpr uint32_t kMaxWireCount = 1u << 20;

// size_t fields (HeartbeatMsg::queue_depth) travel as 8 bytes.
static_assert(sizeof(size_t) == 8);

/// A payload struct: it lists its fields once, in wire order, as
/// `template <class Io> void Fields(Io& io) { io(a, b, c); }`, and the
/// writer and the reader both walk that one list.
template <class M, class Io>
concept WireFields = requires(M& m, Io& io) { m.Fields(io); };

/// Little-endian append-only payload builder. `w(a, b, ...)` appends each
/// field in order: unsigned integers at their width, double as its IEEE
/// bits, bool as one byte, strings with a u32 length, vectors with a u32
/// count, pairs as their two members, and structs through Fields().
class WireWriter {
 public:
  template <class... T>
  void operator()(const T&... fields) {
    (Put(fields), ...);
  }

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  template <std::unsigned_integral T>
  void Put(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      out_.push_back(static_cast<char>((static_cast<uint64_t>(v) >> (8 * i)) &
                                       0xff));
    }
  }
  void Put(bool v) { Put(uint8_t{v}); }
  void Put(double v) { Put(std::bit_cast<uint64_t>(v)); }
  void Put(const std::string& s) {
    Put(static_cast<uint32_t>(s.size()));
    out_.append(s);
  }
  void Put(const query::QueryGraph& graph);
  template <class A, class B>
  void Put(const std::pair<A, B>& p) {
    Put(p.first);
    Put(p.second);
  }
  template <class T>
  void Put(const std::vector<T>& v) {
    Put(static_cast<uint32_t>(v.size()));
    for (const T& e : v) Put(e);
  }
  template <class M>
    requires WireFields<M, WireWriter>
  void Put(const M& m) {
    // Fields() is one non-const list for both directions; the writer
    // only reads through it.
    const_cast<M&>(m).Fields(*this);
  }

  std::string out_;
};

/// Bytes one default `T` encodes to: the least any element of a
/// `std::vector<T>` can take on the wire.
template <class T>
size_t MinWireBytes() {
  static const size_t bytes = [] {
    WireWriter w;
    w(T{});
    return w.str().size();
  }();
  return bytes;
}

/// Bounds-checked little-endian reader over one payload, the mirror of
/// WireWriter: `r(a, b, ...)` reads each field in order. The first
/// failure latches: later reads yield zero values, and callers check
/// `status()` once after decoding instead of after every field.
class WireReader {
 public:
  explicit WireReader(std::string_view in) : in_(in) {}

  template <class... T>
  void operator()(T&... fields) {
    (Read(fields), ...);
  }

  /// Reads a u32 element count and checks it: at most kMaxWireCount, and
  /// no more elements of `min_element_bytes` each than the bytes left can
  /// hold (`min_element_bytes` >= 1). The one count check of the whole
  /// protocol; 0 after a failure.
  uint32_t Count(size_t min_element_bytes);

  /// True while every read so far stayed in bounds.
  bool ok() const { return status_.ok(); }

  /// All bytes consumed and no read failed.
  bool AtEnd() const { return ok() && pos_ == in_.size(); }

  /// OK, or the first failure (kInvalidArgument).
  const Status& status() const { return status_; }

  /// status(), or kInvalidArgument if bytes are left after the payload.
  Status Finish() const;

 private:
  template <std::unsigned_integral T>
  void Read(T& v) {
    v = static_cast<T>(ReadLe(sizeof(T)));
  }
  void Read(bool& v) {
    uint8_t b = 0;
    Read(b);
    v = b != 0;
  }
  void Read(double& v) { v = std::bit_cast<double>(ReadLe(8)); }
  void Read(std::string& s);
  void Read(query::QueryGraph& graph);
  template <class A, class B>
  void Read(std::pair<A, B>& p) {
    Read(p.first);
    Read(p.second);
  }
  template <class T>
  void Read(std::vector<T>& v) {
    v.resize(Count(MinWireBytes<T>()));
    for (T& e : v) Read(e);
  }
  template <class M>
    requires WireFields<M, WireReader>
  void Read(M& m) {
    m.Fields(*this);
  }

  uint64_t ReadLe(size_t bytes);
  void Fail(std::string message);

  std::string_view in_;
  size_t pos_ = 0;
  Status status_;
};

/// The payload bytes of `m`.
template <class M>
std::string Encode(const M& m) {
  WireWriter w;
  w(m);
  return w.Take();
}

/// Decodes one `M` that must span all of `payload`, then runs the
/// struct's `Validate()` hook if it has one. kInvalidArgument on a
/// truncated, oversized, trailing-garbage or inconsistent payload.
template <class M>
Result<M> Decode(std::string_view payload) {
  WireReader r(payload);
  M m;
  r(m);
  ROD_RETURN_IF_ERROR(r.Finish());
  if constexpr (requires { m.Validate(); }) {
    ROD_RETURN_IF_ERROR(m.Validate());
  }
  return m;
}

// ---------------------------------------------------------------------------
// Message payloads: each struct lists its fields once, in wire order, and
// travels as Encode(m) / Decode<M>(payload).

/// worker -> coordinator registration.
struct HelloMsg {
  uint16_t data_port = 0;  ///< Where this worker accepts kTuples peers.
  uint16_t http_port = 0;  ///< Its observability plane (0: not serving).
  double capacity = 1.0;   ///< CPU-seconds of processing per second.
  std::string name;        ///< Diagnostic label (e.g. "worker-pid-1234").

  template <class Io>
  void Fields(Io& io) {
    io(data_port, http_port, capacity, name);
  }
};

/// coordinator -> worker registration reply.
struct WelcomeMsg {
  uint32_t worker_id = 0;        ///< This worker's node index.
  uint32_t num_workers = 0;      ///< Cluster size being assembled.
  double heartbeat_interval = 0.5;
  double heartbeat_timeout = 2.0;

  template <class Io>
  void Fields(Io& io) {
    io(worker_id, num_workers, heartbeat_interval, heartbeat_timeout);
  }
};

/// One worker's data-plane endpoint, shipped inside the plan so peers
/// can dial each other without any local configuration.
struct WorkerEndpoint {
  uint32_t worker_id = 0;
  uint16_t data_port = 0;

  template <class Io>
  void Fields(Io& io) {
    io(worker_id, data_port);
  }
};

/// coordinator -> worker: the full deployment. Shipping the graph keeps
/// workers configuration-free; shipping the assignment + endpoints gives
/// every worker the same routing view the coordinator planned.
struct PlanMsg {
  uint64_t version = 1;                  ///< Monotone per reassignment.
  query::QueryGraph graph;
  std::vector<uint32_t> assignment;      ///< operator -> worker id.
  std::vector<double> capacities;        ///< Per worker id.
  std::vector<WorkerEndpoint> endpoints; ///< One per live worker.
  std::vector<uint32_t> source_owner;    ///< input stream -> generating
                                         ///< worker id.

  template <class Io>
  void Fields(Io& io) {
    io(version, graph, assignment, capacities, endpoints, source_owner);
  }
  /// Post-decode hook: the routing tables match the shipped graph.
  Status Validate() const;
};

/// worker -> coordinator: plan (or diff) version installed.
struct PlanAckMsg {
  uint64_t version = 0;
  uint32_t worker_id = 0;

  template <class Io>
  void Fields(Io& io) {
    io(version, worker_id);
  }
};

/// coordinator -> worker: begin generating/processing the workload.
struct StartMsg {
  double duration = 0.0;        ///< Seconds of source generation.
  double tick_seconds = 0.05;   ///< Source emission granularity.
  uint64_t seed = 1;            ///< Base seed for worker-local RNG.
  std::vector<double> rates;    ///< Tuples/sec per input stream.

  template <class Io>
  void Fields(Io& io) {
    io(duration, tick_seconds, seed, rates);
  }
};

/// End-of-run / heartbeat counter block, all cumulative since kStart.
struct WorkerCounters {
  uint64_t generated = 0;        ///< Source tuples this worker emitted.
  uint64_t processed = 0;        ///< Tuples run through hosted operators.
  uint64_t emitted = 0;          ///< Tuples produced by hosted operators.
  uint64_t delivered = 0;        ///< Sink outputs (reached applications).
  uint64_t shipped = 0;          ///< Tuples sent to peer workers.
  uint64_t received = 0;         ///< Tuples received from peer workers.
  uint64_t ship_failures = 0;    ///< Batches that failed to reach a peer.
  uint64_t lost_tuples = 0;      ///< Tuples in failed ships (kUnavailable).
  uint64_t paused_buffered = 0;  ///< Tuples buffered against paused ops.
  double busy_seconds = 0.0;     ///< Modeled CPU-seconds consumed.
  double latency_sum = 0.0;      ///< Sum of sink latencies (seconds).
  double latency_max = 0.0;
  uint64_t latency_count = 0;

  template <class Io>
  void Fields(Io& io) {
    io(generated, processed, emitted, delivered, shipped, received,
       ship_failures, lost_tuples, paused_buffered, busy_seconds, latency_sum,
       latency_max, latency_count);
  }
};

/// worker -> coordinator liveness + load report.
struct HeartbeatMsg {
  uint32_t worker_id = 0;
  uint64_t seq = 0;
  double uptime_seconds = 0.0;   ///< Since this worker's kStart.
  uint64_t plan_version = 0;     ///< Routing version it executes.
  size_t queue_depth = 0;        ///< Batches waiting in its loop.
  WorkerCounters counters;
  /// Per hosted operator: cumulative tuples processed and modeled busy
  /// CPU-seconds — the coordinator's live load estimate per operator.
  struct OpLoad {
    uint32_t op = 0;
    uint64_t processed = 0;
    double busy_seconds = 0.0;

    template <class Io>
    void Fields(Io& io) {
      io(op, processed, busy_seconds);
    }
  };
  std::vector<OpLoad> loads;

  template <class Io>
  void Fields(Io& io) {
    io(worker_id, seq, uptime_seconds, plan_version, queue_depth, counters,
       loads);
  }
};

/// worker -> worker: one batch of `count` tuples for operator `to_op`,
/// entering at input port `to_port`. Tuples are modeled (count + origin
/// timestamp), matching the simulator's rate-based semantics.
struct TupleBatchMsg {
  uint32_t to_op = 0;
  uint32_t to_port = 0;
  uint32_t count = 0;
  uint32_t from_worker = 0;
  double create_time = 0.0;  ///< Batch origin time on the run clock.
  /// Send instant on the sender's telemetry clock (microseconds). The
  /// receiver rebases it with the coordinator-distributed clock offsets
  /// (kClockSync) to measure end-to-end ship latency; 0 means unstamped.
  double send_time_us = 0.0;

  template <class Io>
  void Fields(Io& io) {
    io(to_op, to_port, count, from_worker, create_time, send_time_us);
  }
};

/// coordinator -> worker: pause the listed operators (migration fence).
struct PauseMsg {
  uint64_t plan_version = 0;  ///< The diff these pauses fence.
  std::vector<uint32_t> ops;

  template <class Io>
  void Fields(Io& io) {
    io(plan_version, ops);
  }
};

/// One operator move of a plan diff.
struct OperatorMove {
  uint32_t op = 0;
  uint32_t from_worker = 0;
  uint32_t to_worker = 0;

  template <class Io>
  void Fields(Io& io) {
    io(op, from_worker, to_worker);
  }
};

/// coordinator -> worker: incremental reassignment (the plan-diff step of
/// pause -> drain -> reassign -> resume).
struct PlanDiffMsg {
  uint64_t version = 0;
  std::vector<OperatorMove> moves;

  template <class Io>
  void Fields(Io& io) {
    io(version, moves);
  }
};

/// worker -> coordinator final counters (same block as heartbeats).
struct FinalStatsMsg {
  uint32_t worker_id = 0;
  WorkerCounters counters;

  template <class Io>
  void Fields(Io& io) {
    io(worker_id, counters);
  }
};

/// coordinator -> worker clock-sync probe. `t1_us` is the coordinator's
/// telemetry clock at send; the worker echoes it back untouched.
struct PingMsg {
  uint64_t seq = 0;
  double t1_us = 0.0;

  template <class Io>
  void Fields(Io& io) {
    io(seq, t1_us);
  }
};

/// worker -> coordinator probe echo. `t2_us`/`t3_us` are the worker's
/// telemetry clock at receive/reply; the coordinator stamps t4 on receipt
/// and feeds (t1, t2, t3, t4) to its ClockSyncEstimator.
struct PongMsg {
  uint64_t seq = 0;
  uint32_t worker_id = 0;
  double t1_us = 0.0;
  double t2_us = 0.0;
  double t3_us = 0.0;

  template <class Io>
  void Fields(Io& io) {
    io(seq, worker_id, t1_us, t2_us, t3_us);
  }
};

/// worker -> coordinator: the delta of this worker's metric registry
/// since its previous report (piggybacked on the heartbeat cadence).
/// Values are cumulative — the coordinator merges by overwrite, so a
/// lost report self-heals on the next one.
struct StatsReportMsg {
  struct HistogramState {
    std::string name;
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    /// Log-scale (upper_bound, count) pairs, cumulative counts not
    /// required: plain per-bucket tallies, matching HistogramSnapshot.
    std::vector<std::pair<double, uint64_t>> buckets;

    template <class Io>
    void Fields(Io& io) {
      io(name, count, sum, min, max, buckets);
    }
  };

  uint32_t worker_id = 0;
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramState> histograms;

  template <class Io>
  void Fields(Io& io) {
    io(worker_id, counters, gauges, histograms);
  }
};

/// coordinator -> worker: the latest per-worker clock offsets, in
/// coordinator-clock terms (worker_time_us + offset_us = coordinator
/// time). Workers use their own and their peers' offsets to rebase
/// TupleBatchMsg::send_time_us into one shared timebase.
struct ClockSyncMsg {
  struct Entry {
    uint32_t worker_id = 0;
    double offset_us = 0.0;
    double rtt_us = 0.0;

    template <class Io>
    void Fields(Io& io) {
      io(worker_id, offset_us, rtt_us);
    }
  };
  std::vector<Entry> entries;

  template <class Io>
  void Fields(Io& io) {
    io(entries);
  }
};

/// coordinator -> worker: freeze your observability rings now. Sent on
/// failure detection so every survivor snapshots at (approximately) the
/// same aligned instant.
struct FreezeMsg {
  uint64_t incident_id = 0;
  std::string kind;    ///< e.g. "worker_failure".
  std::string detail;  ///< Human-readable cause.

  template <class Io>
  void Fields(Io& io) {
    io(incident_id, kind, detail);
  }
};

/// worker -> coordinator: the frozen flight-recorder incident, rendered
/// as a self-contained JSON object, to embed in the coordinator's
/// cluster-wide incident report.
struct FrozenReportMsg {
  uint64_t incident_id = 0;
  uint32_t worker_id = 0;
  std::string incident_json;

  template <class Io>
  void Fields(Io& io) {
    io(incident_id, worker_id, incident_json);
  }
};

// Serialization of a query graph (inside PlanMsg; exposed for tests).
void EncodeQueryGraph(const query::QueryGraph& graph, WireWriter& w);
Result<query::QueryGraph> DecodeQueryGraph(WireReader& r);

}  // namespace rod::cluster

#endif  // ROD_CLUSTER_WIRE_H_
