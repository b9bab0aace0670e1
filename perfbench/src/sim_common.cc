// Copyright (c) the ROD reproduction authors.

#include "sim_common.h"

#include <algorithm>

#include "placement/evaluator.h"
#include "placement/rod.h"

namespace perfbench {

rod::Result<PlannedForest> PlanForest(rod::query::QueryGraph graph,
                                      const rod::place::SystemSpec& system,
                                      Tracer& tracer) {
  auto model = Call(tracer, "load_model", Layer::kQuery,
                    [&] { return rod::query::BuildLoadModel(graph); });
  ROD_RETURN_IF_ERROR(model.status());
  auto plan = Call(tracer, "rod_place", Layer::kPlacement,
                   [&] { return rod::place::RodPlace(*model, system); });
  ROD_RETURN_IF_ERROR(plan.status());
  const std::vector<double> ones(model->num_system_inputs(), 1.0);
  auto boundary = Call(tracer, "analytic_boundary", Layer::kPlacement, [&] {
    return rod::place::PlacementEvaluator(*model, system)
        .BoundaryScaleAlong(*plan, ones);
  });
  ROD_RETURN_IF_ERROR(boundary.status());
  return PlannedForest{std::move(graph), std::move(*model), std::move(*plan),
                       *boundary};
}

bool SameResult(const rod::sim::SimulationResult& a,
                const rod::sim::SimulationResult& b) {
  return a.input_tuples == b.input_tuples && a.shed_tuples == b.shed_tuples &&
         a.output_tuples == b.output_tuples &&
         a.processed_events == b.processed_events &&
         a.mean_latency == b.mean_latency && a.p50_latency == b.p50_latency &&
         a.p95_latency == b.p95_latency && a.p99_latency == b.p99_latency &&
         a.max_latency == b.max_latency &&
         a.node_utilization == b.node_utilization &&
         a.max_node_utilization == b.max_node_utilization &&
         a.final_backlog == b.final_backlog && a.saturated == b.saturated &&
         a.overload.total_shed() == b.overload.total_shed() &&
         a.overload.queue_depth_high_water ==
             b.overload.queue_depth_high_water &&
         a.overload.control_consults == b.overload.control_consults &&
         a.incident.has_value() == b.incident.has_value() &&
         (!a.incident ||
          (a.incident->lost_tuples == b.incident->lost_tuples &&
           a.incident->operators_moved == b.incident->operators_moved &&
           a.incident->availability == b.incident->availability));
}

void RuntimeLayerMetrics(
    const std::vector<std::optional<rod::sim::SimulationResult>>& refs,
    const std::vector<SpanRecord>& spans, double traced_events,
    MetricSet& out) {
  const std::vector<double> sim = SpanSeconds(spans, "simulate", "step");
  double sim_seconds = 0.0;
  for (const double s : sim) sim_seconds += s;
  out.Set("runtime.simulate_ms_p50", 1e3 * Median(sim));
  out.Set("runtime.events_per_s", Ratio(traced_events, sim_seconds));

  double events = 0.0;
  double inputs = 0.0;
  double offered = 0.0;
  double shed = 0.0;
  double p99_sum = 0.0;
  size_t high_water = 0;
  size_t consults = 0;
  size_t moved = 0;
  size_t saturated = 0;
  for (const auto& r : refs) {
    if (!r) continue;
    events += static_cast<double>(r->processed_events);
    inputs += static_cast<double>(r->input_tuples);
    offered += static_cast<double>(r->input_tuples + r->shed_tuples);
    shed += static_cast<double>(r->overload.total_shed());
    p99_sum += r->p99_latency;
    high_water = std::max(high_water, r->overload.queue_depth_high_water);
    consults += r->overload.control_consults;
    if (r->incident) moved += r->incident->operators_moved;
    if (r->saturated) ++saturated;
  }
  out.Set("runtime.events_per_tuple", Ratio(events, inputs));
  out.Set("runtime.sim_latency_p99_ms",
          1e3 * p99_sum / static_cast<double>(refs.size()));
  out.Set("runtime.shed_frac", Ratio(shed, offered));
  out.Set("runtime.queue_high_water", static_cast<double>(high_water));
  out.Set("runtime.control_consults", static_cast<double>(consults));
  out.Set("runtime.ops_moved", static_cast<double>(moved));
  out.Set("runtime.saturated_runs", static_cast<double>(saturated));
}

}  // namespace perfbench
