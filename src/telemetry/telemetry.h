// Copyright (c) the ROD reproduction authors.
//
// Process-wide, thread-safe telemetry: a metric registry (counters,
// gauges, mergeable log-bucketed histograms) plus span-based trace
// events, with exporters for a flat metrics-snapshot JSON and the Chrome
// `trace_event` format (loadable in chrome://tracing / Perfetto).
//
// The paper's evaluation (§7.1) rests on continuously observing per-node
// utilization and latency on a running cluster; this is the repo's
// version of that monitoring layer, shared by the engine event loop, the
// supervisor, the sweep runner, and the thread pool.
//
// Concurrency model (the ThreadPool determinism idiom applied to
// measurement): every recording thread owns a private shard — counter
// slots, histogram buckets, and a fixed-size trace-event ring — and only
// the owning thread writes it, through relaxed atomics, so the fast path
// takes no lock and induces no data race. `Snapshot()` and the exporters
// merge the shards; integer counters and bucket counts merge by
// addition, which is associative and commutative, so a snapshot is
// independent of how work was partitioned across threads. Histogram
// `sum` is a double and merges in shard order (exact whenever the
// recorded values are exactly representable). Registering a metric or a
// new thread's shard takes a mutex once; the per-record path never does.
//
// Trace rings are bounded: once a thread's ring holds `ring_capacity`
// events, further events on that thread are dropped (newest-dropped
// policy) and counted, so drop accounting is deterministic for a given
// per-thread event sequence. Export while recorders are still running is
// not supported — quiesce first (ParallelFor/SimulateSweep block until
// every index finished, so exporting after they return is safe).
//
// Everything is nullable by convention: the runtime layers carry a
// `Telemetry*` that defaults to nullptr, and every helper (TraceSpan,
// ROD_TRACE_SPAN) degrades to a no-op on a null sink, so the
// instrumented hot paths pay one branch when telemetry is off.

#ifndef ROD_TELEMETRY_TELEMETRY_H_
#define ROD_TELEMETRY_TELEMETRY_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rod::telemetry {

class JsonWriter;
class Telemetry;

struct TelemetryOptions {
  /// Trace events retained per recording thread; the ring drops (and
  /// counts) the newest events beyond this.
  size_t ring_capacity = 8192;

  /// Record spans/instants at all. Counters/gauges/histograms are
  /// unaffected; turning this off makes TraceSpan free.
  bool capture_traces = true;

  /// Testing hook: when true, the trace clock only advances via
  /// AdvanceClock(), so exported timestamps are reproducible.
  bool manual_clock = false;
};

/// Handle to a registered counter. Value-semantic and cheap to copy; a
/// default-constructed handle ignores Add(). Handles must not outlive
/// their Telemetry.
class Counter {
 public:
  Counter() = default;
  inline void Add(uint64_t n = 1);
  bool valid() const { return telemetry_ != nullptr; }

 private:
  friend class Telemetry;
  Counter(Telemetry* t, uint32_t id) : telemetry_(t), id_(id) {}
  Telemetry* telemetry_ = nullptr;
  uint32_t id_ = 0;
};

/// Handle to a registered gauge (last-written value wins).
class Gauge {
 public:
  Gauge() = default;
  inline void Set(double v);
  /// Raises the gauge to `v` if above its current value (atomic max) —
  /// the high-water idiom. An external reset (Telemetry::SetGauge from
  /// e.g. the Aggregator) re-arms it.
  inline void Max(double v);
  bool valid() const { return telemetry_ != nullptr; }

 private:
  friend class Telemetry;
  Gauge(Telemetry* t, uint32_t id) : telemetry_(t), id_(id) {}
  Telemetry* telemetry_ = nullptr;
  uint32_t id_ = 0;
};

/// Handle to a registered log-bucketed histogram.
class Histogram {
 public:
  Histogram() = default;
  inline void Record(double v);
  bool valid() const { return telemetry_ != nullptr; }

 private:
  friend class Telemetry;
  Histogram(Telemetry* t, uint32_t id) : telemetry_(t), id_(id) {}
  Telemetry* telemetry_ = nullptr;
  uint32_t id_ = 0;
};

/// Merged view of one histogram: non-empty log buckets (half-open,
/// `value <= upper_bound`, two buckets per octave; bucket bound 0 holds
/// values <= 0) plus exact count/min/max and shard-order-merged sum.
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// (bucket upper bound, count) for every non-empty bucket, ascending.
  std::vector<std::pair<double, uint64_t>> buckets;

  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }

  /// Quantile estimate: the upper bound of the bucket containing the
  /// q-th sample, clamped to [min, max]. Exact to within one bucket
  /// (a factor of sqrt(2) in value).
  double Quantile(double q) const;
};

/// Point-in-time merge of every shard, with deterministic (name-sorted)
/// iteration order.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  uint64_t trace_events_recorded = 0;  ///< Retained in rings.
  uint64_t trace_events_dropped = 0;   ///< Lost to full rings.
  /// Registrations refused because a capacity cap (counters, gauges, or
  /// histograms) was already full — each refused `counter()`-style call
  /// counts once, so cap overflow is observable instead of silent.
  uint64_t dropped_registrations = 0;
};

/// Merges `src` into `dst` bucket-by-bucket (counts add, min/max widen,
/// sum adds). Both must come from the same log-bucket layout, which every
/// HistogramSnapshot in this codebase does; used to aggregate one metric
/// across processes (the coordinator merging worker-reported histograms).
void MergeHistogramInto(HistogramSnapshot& dst, const HistogramSnapshot& src);

/// Identity of the process row a Chrome-trace export describes. The
/// default (pid 1, no name, no extras) reproduces the single-process
/// export byte-for-byte; cluster processes set a distinct pid and a
/// human-readable name so merged traces read as one labeled timeline,
/// and record their clock offset so tools/rod_trace_merge can rebase
/// the dump onto the coordinator clock.
struct ChromeTraceProcess {
  uint64_t pid = 1;
  std::string name;  ///< Emitted as a process_name metadata event if set.
  /// Extra numeric facts exported under a top-level "rod" object (e.g.
  /// worker_id, clock_offset_us). Emitted only when non-empty.
  std::map<std::string, double> metadata;
};

/// One trace event copied out of a thread's ring by SnapshotTrace().
/// `category`/`name` point at the recorder's string literals.
struct TraceEventView {
  uint32_t tid = 0;
  const char* category = nullptr;
  const char* name = nullptr;
  double ts_us = 0.0;
  double dur_us = 0.0;  ///< 0 for instants.
  uint64_t arg = 0;
  bool has_arg = false;
  bool instant = false;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryOptions options = {});
  ~Telemetry();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  const TelemetryOptions& options() const { return options_; }

  // --- metric registry -------------------------------------------------
  // Registration is idempotent: the same name always returns a handle to
  // the same instrument. Names are dotted paths ("engine.events"); the
  // full inventory lives in docs/TELEMETRY.md.

  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name);

  /// One-shot conveniences for cold paths (registry lookup per call).
  void Count(std::string_view name, uint64_t n = 1) { counter(name).Add(n); }
  void SetGauge(std::string_view name, double v) { gauge(name).Set(v); }
  void Observe(std::string_view name, double v) { histogram(name).Record(v); }

  // --- trace events ----------------------------------------------------

  bool tracing() const { return options_.capture_traces; }

  /// Microseconds since construction (or the manual clock's position).
  double NowMicros() const;

  /// Advances the manual clock (TelemetryOptions::manual_clock only).
  void AdvanceClock(double micros);

  /// Records a completed span. `category` and `name` must outlive the
  /// Telemetry (string literals in practice). `arg` is exported as
  /// args.v when `has_arg`.
  void RecordSpan(const char* category, const char* name, double begin_us,
                  double end_us, uint64_t arg = 0, bool has_arg = false);

  /// Records an instant event at the current time.
  void RecordInstant(const char* category, const char* name, uint64_t arg = 0,
                     bool has_arg = false);

  // --- export ----------------------------------------------------------

  /// Merges every shard into a deterministic snapshot. Safe to call while
  /// recorders are still running (counters/buckets are atomics; the trace
  /// rings are only counted, not read), at the price of reading a value
  /// mid-update: concurrent snapshots are approximate, quiescent ones
  /// exact.
  MetricsSnapshot Snapshot() const;

  /// Copies every thread's trace ring, in shard (tid) order then ring
  /// order. Unlike WriteChromeTrace this is safe while recorders are
  /// still running: each ring's readable prefix is bounded by its
  /// release-published `recorded` count, so a concurrent caller (the
  /// flight recorder freezing state at a fault instant) sees only fully
  /// written events — it may simply miss the newest ones.
  std::vector<TraceEventView> SnapshotTrace() const;

  /// Flat metrics-snapshot JSON (schema in docs/TELEMETRY.md).
  void WriteMetricsJson(std::ostream& out) const;

  /// Chrome trace_event JSON ("X" complete spans, "i" instants, one tid
  /// per recording thread), loadable in chrome://tracing / Perfetto.
  void WriteChromeTrace(std::ostream& out) const;

  /// Same, but stamped with `process`'s pid/name/metadata so multiple
  /// processes' dumps can be merged onto one timeline.
  void WriteChromeTrace(std::ostream& out,
                        const ChromeTraceProcess& process) const;

  // Fast-path entry points used by the handles (shard-local, lock-free).
  void CounterAdd(uint32_t id, uint64_t n);
  void GaugeSet(uint32_t id, double v);
  void GaugeMax(uint32_t id, double v);
  void HistogramRecord(uint32_t id, double v);

 private:
  struct Impl;
  TelemetryOptions options_;
  std::unique_ptr<Impl> impl_;
};

inline void Counter::Add(uint64_t n) {
  if (telemetry_ != nullptr) telemetry_->CounterAdd(id_, n);
}
inline void Gauge::Set(double v) {
  if (telemetry_ != nullptr) telemetry_->GaugeSet(id_, v);
}
inline void Gauge::Max(double v) {
  if (telemetry_ != nullptr) telemetry_->GaugeMax(id_, v);
}
inline void Histogram::Record(double v) {
  if (telemetry_ != nullptr) telemetry_->HistogramRecord(id_, v);
}

/// Writes `snap` as the metrics-snapshot object into an in-progress
/// JsonWriter (after Key() or as an array element) — lets callers embed a
/// snapshot inside a larger document; Telemetry::WriteMetricsJson is this
/// over a fresh writer.
void WriteSnapshotJson(const MetricsSnapshot& snap, JsonWriter& w);

/// RAII trace span: records [construction, End() or destruction) into
/// `telemetry`, or does nothing when `telemetry` is null / tracing off.
class TraceSpan {
 public:
  TraceSpan(Telemetry* telemetry, const char* category, const char* name)
      : TraceSpan(telemetry, category, name, 0, false) {}
  TraceSpan(Telemetry* telemetry, const char* category, const char* name,
            uint64_t arg)
      : TraceSpan(telemetry, category, name, arg, true) {}
  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Ends the span now (idempotent; the destructor is then a no-op).
  void End();

 private:
  TraceSpan(Telemetry* telemetry, const char* category, const char* name,
            uint64_t arg, bool has_arg);

  Telemetry* telemetry_ = nullptr;
  const char* category_ = nullptr;
  const char* name_ = nullptr;
  double begin_us_ = 0.0;
  uint64_t arg_ = 0;
  bool has_arg_ = false;
};

// Scoped span helper: ROD_TRACE_SPAN(tel, "engine", "run") opens a span
// for the rest of the enclosing scope. `tel` may be null.
#define ROD_TELEMETRY_CONCAT_INNER(a, b) a##b
#define ROD_TELEMETRY_CONCAT(a, b) ROD_TELEMETRY_CONCAT_INNER(a, b)
#define ROD_TRACE_SPAN(tel, category, name)                             \
  ::rod::telemetry::TraceSpan ROD_TELEMETRY_CONCAT(rod_trace_span_,     \
                                                   __LINE__) {          \
    (tel), (category), (name)                                           \
  }

}  // namespace rod::telemetry

#endif  // ROD_TELEMETRY_TELEMETRY_H_
