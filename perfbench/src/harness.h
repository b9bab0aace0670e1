// Copyright (c) the ROD reproduction authors.
//
// The benchmark harness: a closed-loop runner that makes whole passes over a
// workload's fixed deck for a set wall-clock time, spans recorded around
// each call the harness makes into a library layer, per-layer self-time
// attribution, and the JSON process report. See perfbench/README.md for
// the metric table and the reasons behind each design choice.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/graph_gen.h"
#include "query/query_graph.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Clock and spans

/// steady_clock nanoseconds.
int64_t NowNs();
double SecondsSince(int64_t start_ns);

/// The library layers a span can be charged to. `kHarness` is the
/// benchmark's own code (deck bookkeeping, result checks).
enum class Layer : uint8_t {
  kHarness,
  kQuery,
  kPlacement,
  kGeometry,
  kRuntime,
  kTrace,
  kSweep,
};
inline constexpr size_t kNumLayers = 7;
const char* LayerName(Layer layer);

/// One recorded call: `parent` indexes the enclosing span in the same
/// tracer (-1 for a root). Parents always precede their children.
struct SpanRecord {
  const char* name = "";
  Layer layer = Layer::kHarness;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
};

/// In-memory span recorder. Disabled, it records nothing and reads no
/// clock, so untraced runs pay one branch per span.
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span nested in the innermost open one; -1 when disabled.
  int32_t Begin(const char* name, Layer layer);
  void End(int32_t id);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Writes the spans as a Chrome trace_event array (chrome://tracing,
  /// Perfetto).
  void WriteChromeTrace(std::ostream& out) const;

 private:
  bool enabled_ = false;
  int32_t open_ = -1;
  std::vector<SpanRecord> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, Layer layer)
      : tracer_(tracer), id_(tracer.Begin(name, layer)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int32_t id_;
};

/// Runs `fn` inside a span and returns its result: the harness's way of
/// timing one call into a library layer.
template <typename Fn>
auto Call(Tracer& tracer, const char* name, Layer layer, Fn&& fn) {
  ScopedSpan span(tracer, name, layer);
  return fn();
}

/// Self time per layer, summed over every span whose root span is named
/// `root_name`. A span's self time is its duration minus its direct
/// children's durations (the harness is single-threaded at span level, so
/// siblings never overlap). Indexed by Layer.
std::vector<double> SelfSecondsByLayer(const std::vector<SpanRecord>& spans,
                                       const char* root_name);

/// Durations (seconds) of the spans named `name` under roots named
/// `root_name`.
std::vector<double> SpanSeconds(const std::vector<SpanRecord>& spans,
                                const char* name, const char* root_name);

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// A model outcome, not a timing: identical in every run of a seed.
  bool deterministic = false;
};

/// An ordered set of named metrics with fixed units.
class MetricSet {
 public:
  void Add(std::string name, std::string unit, bool deterministic = false);
  /// Overwrites an existing metric; aborts on an unknown name so a typo
  /// cannot silently drop a measurement.
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Every per-layer metric the harness measures, zero until a workload or
/// the harness sets it; a layer a workload bypasses keeps 0. run.py adds
/// harness.trace_overhead_pct, which needs every process's samples.
MetricSet PerLayerMetricTable();

/// Median with linear interpolation (rod::Percentile); 0 when empty.
double Median(std::vector<double> v);

/// a / b, or 0 when nothing was measured (b == 0).
inline double Ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

// ---------------------------------------------------------------------------
// Workloads

/// Outcome of one step: units of work done and whether the step returned
/// OK and passed its checks.
struct StepResult {
  double work = 0.0;
  bool ok = false;
};

/// One benchmark workload. The harness calls Setup several times per run
/// (each a from-scratch rebuild of the deck and all one-time state), then
/// Step over every deck entry in order, pass after pass. Checks compare a
/// step against the first execution of the same deck entry, so references
/// must survive Setup.
class Workload {
 public:
  virtual ~Workload() = default;
  /// The fixed-per-run library thread count the workload uses.
  virtual size_t threads() const { return 1; }
  virtual rod::Status Setup(Tracer& tracer) = 0;
  virtual size_t deck_size() const = 0;
  virtual StepResult Step(size_t index, Tracer& tracer) = 0;
  /// Checks run once after the timed loop; returns how many deck entries
  /// failed them (counted as failed steps).
  virtual size_t PostRunFailures() { return 0; }
  /// Deterministic outcome quality over the deck's first pass.
  virtual double Quality() const = 0;
  /// Fills the workload's per-layer metrics: counts from the first pass,
  /// set-up medians, and timings of the traced steps in `spans` (0 when
  /// `spans` is empty).
  virtual void LayerMetrics(const std::vector<SpanRecord>& spans,
                            MetricSet& out) const = 0;
};

std::unique_ptr<Workload> MakePlaceWorkload(uint64_t seed);
std::unique_ptr<Workload> MakeSteadyWorkload(uint64_t seed);
std::unique_ptr<Workload> MakeOverloadWorkload(uint64_t seed,
                                               std::string store_dir);
std::unique_ptr<Workload> MakeBoundaryWorkload(uint64_t seed);

// ---------------------------------------------------------------------------
// Decks

/// `n` seeds for one role (forests, simulation seeds, ...) of a workload
/// deck, forked from the workload seed with sim::ForkSeeds. Distinct roles
/// give decorrelated streams.
std::vector<uint64_t> DeckSeeds(uint64_t seed, uint64_t role, size_t n);

/// `n` §7.1 random forests, forest i generated from DeckSeeds(seed, role).
std::vector<rod::query::QueryGraph> MakeForests(
    uint64_t seed, uint64_t role, size_t n,
    const rod::query::GraphGenOptions& options);

// ---------------------------------------------------------------------------
// Runs

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the Chrome trace and the overload workload's store
  /// files.
  std::string out_dir = ".";
  /// Test hook: the step with this global index reports a failed check.
  int64_t sabotage_step = -1;
};

/// From-scratch set-ups per process, spread evenly over its run.
inline constexpr size_t kSetupsPerProcess = 3;

/// What one process measured. run.py pools the reports of several
/// processes and computes every end-to-end metric from them.
struct RunReport {
  /// Per-layer metrics (timings from the traced passes; deterministic
  /// counts from the deck's first pass).
  MetricSet per_layer;
  size_t attempted = 0;
  size_t failed = 0;
  size_t passes = 0;
  size_t deck_size = 0;
  size_t threads = 1;
  std::vector<double> untraced_ms;  ///< Wall time of each untraced step.
  std::vector<double> traced_ms;    ///< Wall time of each traced step.
  std::vector<double> setup_s;      ///< Wall time of each set-up.
  double work = 0.0;          ///< Work units of the untraced steps.
  double work_seconds = 0.0;  ///< Summed wall time of the untraced steps.
  double peak_rss_mib = 0.0;
  /// Deterministic outcome quality over the deck's first pass.
  double quality = 0.0;
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload: set-ups spread over the run, whole passes until
/// `seconds` have elapsed. With `trace`, every second pass is traced, so
/// traced and untraced steps sample the same host conditions; the Chrome
/// trace is written into `out_dir`.
rod::Result<RunReport> Run(const RunConfig& config);

/// Prints two lines: provenance, then the report (raw samples, the
/// deterministic fingerprint and the per-layer metrics).
void PrintReport(const RunConfig& config, const RunReport& report,
                 std::ostream& out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
