// Copyright (c) the ROD reproduction authors.
//
// Pieces the three runtime workloads (steady, overload, boundary) share:
// a ROD-placed forest with its analytic boundary, the simulation-result
// identity check, and the runtime layer's per-layer metrics.

#ifndef PERFBENCH_SIM_COMMON_H_
#define PERFBENCH_SIM_COMMON_H_

#include <optional>
#include <vector>

#include "harness.h"
#include "placement/plan.h"
#include "query/load_model.h"
#include "runtime/engine.h"

namespace perfbench {

/// One deck forest, placed by ROD (kCombined, 1 thread).
struct PlannedForest {
  rod::query::QueryGraph graph;
  rod::query::LoadModel model;
  rod::place::Placement plan;
  /// Analytic feasibility boundary along the all-ones rate direction
  /// (PlacementEvaluator::BoundaryScaleAlong): at rates s*(1,...,1) the
  /// most loaded node runs at utilisation s / boundary.
  double boundary = 0.0;
};

/// Builds the load model, the ROD plan and the analytic boundary of
/// `graph` on `system`, each call in its own span.
rod::Result<PlannedForest> PlanForest(rod::query::QueryGraph graph,
                                      const rod::place::SystemSpec& system,
                                      Tracer& tracer);

/// Bit-for-bit equality of the fields a replayed or re-run simulation must
/// reproduce.
bool SameResult(const rod::sim::SimulationResult& a,
                const rod::sim::SimulationResult& b);

/// The runtime layer's per-layer metrics from the first-pass results
/// `refs` (deterministic counts) and the traced `simulate` spans, during
/// which `traced_events` engine events ran.
void RuntimeLayerMetrics(
    const std::vector<std::optional<rod::sim::SimulationResult>>& refs,
    const std::vector<SpanRecord>& spans, double traced_events,
    MetricSet& out);

}  // namespace perfbench

#endif  // PERFBENCH_SIM_COMMON_H_
