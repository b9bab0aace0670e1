// Copyright (c) the ROD reproduction authors.
//
// Parallel, deterministic simulation sweeps: run N independent engine
// configurations (full tuple-level runs or feasibility probes) across the
// shared ThreadPool and return results in input order. Each case is an
// isolated simulation — its own seed, its own thread-local engine
// workspace — and case-to-slot assignment is fixed by index, so a sweep's
// results are bit-identical for every `SweepOptions::num_threads`,
// including to a plain sequential loop over Simulate(). These entry points
// are the library's only ParallelFor callers: the engine side of the
// paper's evaluation (§7's figures are exactly such sweeps) is where the
// parallelism pays.

#ifndef ROD_RUNTIME_SWEEP_H_
#define ROD_RUNTIME_SWEEP_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "placement/plan.h"
#include "query/query_graph.h"
#include "runtime/engine.h"
#include "trace/trace.h"

namespace rod::sim {

/// How a sweep is spread over the shared thread pool.
struct SweepOptions {
  /// Maximum cases in flight (the calling thread participates). 1 runs
  /// sequentially inline; 0 uses the hardware concurrency. Results do
  /// not depend on this value.
  size_t num_threads = 0;

  /// Telemetry sink for sweep-level series ("sweep" spans per case/probe,
  /// `sweep.cases` / `sweep.probes` counters). Not owned; null disables.
  /// Independent of any per-case SimulationOptions::telemetry.
  telemetry::Telemetry* telemetry = nullptr;
};

/// Resolves SweepOptions::num_threads (0 -> hardware concurrency).
size_t ResolveSweepThreads(size_t num_threads);

/// `n` decorrelated seeds derived from `base` by constant mixing
/// (splitmix64 finalizer): seed i is a pure function of (base, i), so a
/// sweep over forked seeds is reproducible and order-independent.
std::vector<uint64_t> ForkSeeds(uint64_t base, size_t n);

/// One simulation configuration of a sweep. Exactly one of
/// {`deployment`} or {`graph`, `placement`, `system`} must be set;
/// pointed-to objects are borrowed and must outlive the sweep. A stateful
/// `options.recovery` agent must be a distinct instance per case (cases
/// run concurrently).
struct SimulationCase {
  const Deployment* deployment = nullptr;
  const query::QueryGraph* graph = nullptr;
  const place::Placement* placement = nullptr;
  const place::SystemSpec* system = nullptr;
  const std::vector<trace::RateTrace>* inputs = nullptr;
  SimulationOptions options;
};

/// Runs every case and returns per-case results in input order.
std::vector<Result<SimulationResult>> SimulateSweep(
    std::span<const SimulationCase> cases, const SweepOptions& sweep = {});

/// Feasibility probes of one placement at many rate points (each point is
/// one rate per input stream), compiled once and simulated per point.
/// Results are in point order.
std::vector<Result<bool>> ProbeFeasibleSweep(
    const query::QueryGraph& graph, const place::Placement& placement,
    const place::SystemSpec& system, std::span<const Vector> rate_points,
    const SimulationOptions& options = {}, const SweepOptions& sweep = {});

/// Simulated feasibility boundary search (see SimulatedBoundaryScale).
struct BoundarySearchOptions {
  /// Initial bracket [lo, hi] of the scale. `hi` 0 auto-brackets by
  /// doubling from max(lo, 1).
  double lo = 0.0;
  double hi = 0.0;

  /// Stop once (hi - lo) <= rel_tol * hi.
  double rel_tol = 0.02;

  /// Feasibility probes per refinement round. Fixed by the caller, never
  /// derived from the thread count, so the probed grid — and therefore
  /// the answer — is identical for every SweepOptions::num_threads.
  size_t batch = 8;
};

/// The simulated counterpart of the paper's analytic boundary scale
/// (geom::BoundaryScale, PlacementEvaluator::BoundaryScaleAlong): the
/// largest scale s such that the tuple-level engine stays un-saturated at
/// rates `s * direction`. Each refinement round probes a fixed grid of
/// `batch` interior points in parallel and keeps the longest feasible
/// prefix, so simulation noise cannot make the search thread-dependent.
/// Bracketing and refinement each stop after 32 rounds.
Result<double> SimulatedBoundaryScale(const query::QueryGraph& graph,
                                      const place::Placement& placement,
                                      const place::SystemSpec& system,
                                      const Vector& direction,
                                      const SimulationOptions& options = {},
                                      const BoundarySearchOptions& search = {},
                                      const SweepOptions& sweep = {});

/// Deterministic ordered parallel map: `out[i] = fn(i)` for i in [0, n),
/// evaluated across the shared pool. `fn` must be safe to call
/// concurrently and `fn(i)` must depend only on `i` (not on shared
/// mutable state), which makes the output independent of the thread
/// count. The generic building block for benches whose trials are
/// independent evaluations rather than full simulations.
template <typename Fn>
auto SweepMap(size_t n, Fn&& fn, const SweepOptions& sweep = {})
    -> std::vector<std::decay_t<decltype(fn(size_t{0}))>> {
  using T = std::decay_t<decltype(fn(size_t{0}))>;
  std::vector<T> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.emplace_back();  // default slots
  ParallelFor(ResolveSweepThreads(sweep.num_threads), n,
              [&](size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace rod::sim

#endif  // ROD_RUNTIME_SWEEP_H_
