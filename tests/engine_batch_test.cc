// Batch-size invariance of the tuple engine: the delivery-batching knob
// (SimulationOptions::batch_size) may only change how many calendar
// events carry the same tuples, never the tuples themselves. Every
// result field — latencies, per-operator statistics, utilization, and
// the PR-6 graceful-degradation accounting (OverloadStats) — must be
// bit-identical across batch sizes, with and without bounded queues,
// backpressure, and the sustained-overload control loop engaged.

#include <gtest/gtest.h>

#include <vector>

#include "runtime/engine.h"

namespace rod::sim {
namespace {

using place::Placement;
using place::SystemSpec;
using query::InputStreamId;
using query::OperatorKind;
using query::QueryGraph;
using query::StreamRef;

constexpr size_t kBatchSweep[] = {1, 7, 64, 4096};

trace::RateTrace ConstantTrace(double rate, double duration) {
  trace::RateTrace t;
  t.window_sec = duration;
  t.rates = {rate};
  return t;
}

/// Fan-out across a network hop: I -> src (node 0) -> {a, b, c} (node 1).
/// One emission on node 0 schedules three same-instant deliveries to
/// node 1 — the shape delivery batching actually coalesces.
struct FanOutScenario {
  QueryGraph graph;
  SystemSpec system = SystemSpec::Homogeneous(2);
  Placement plan{2, {0, 1, 1, 1}};

  explicit FanOutScenario(double src_cost = 2e-4, double leaf_cost = 4e-4) {
    const InputStreamId in = graph.AddInputStream("I");
    auto src = graph.AddOperator({.name = "src", .kind = OperatorKind::kMap,
                                  .cost = src_cost, .selectivity = 1.0},
                                 {StreamRef::Input(in)});
    EXPECT_TRUE(src.ok());
    for (const char* name : {"a", "b", "c"}) {
      EXPECT_TRUE(graph
                      .AddOperator({.name = name, .kind = OperatorKind::kMap,
                                    .cost = leaf_cost, .selectivity = 0.9},
                                   {StreamRef::Op(*src)})
                      .ok());
    }
  }
};

void ExpectBitExact(const SimulationResult& a, const SimulationResult& b,
                    size_t batch) {
  SCOPED_TRACE("batch_size " + std::to_string(batch));
  EXPECT_EQ(a.input_tuples, b.input_tuples);
  EXPECT_EQ(a.shed_tuples, b.shed_tuples);
  EXPECT_EQ(a.output_tuples, b.output_tuples);
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p95_latency, b.p95_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.max_latency, b.max_latency);
  // Batching coalesces delivery *events*, but processed_events counts
  // tuples, so even the throughput denominator is invariant.
  EXPECT_EQ(a.processed_events, b.processed_events);
  EXPECT_EQ(a.final_backlog, b.final_backlog);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.overloaded_windows, b.overloaded_windows);
  EXPECT_EQ(a.total_windows, b.total_windows);
  EXPECT_EQ(a.max_node_utilization, b.max_node_utilization);
  ASSERT_EQ(a.node_utilization.size(), b.node_utilization.size());
  for (size_t i = 0; i < a.node_utilization.size(); ++i) {
    EXPECT_EQ(a.node_utilization[i], b.node_utilization[i]) << "node " << i;
  }
  ASSERT_EQ(a.sink_latencies.size(), b.sink_latencies.size());
  for (size_t i = 0; i < a.sink_latencies.size(); ++i) {
    EXPECT_EQ(a.sink_latencies[i].sink_op, b.sink_latencies[i].sink_op);
    EXPECT_EQ(a.sink_latencies[i].outputs, b.sink_latencies[i].outputs);
    EXPECT_EQ(a.sink_latencies[i].mean, b.sink_latencies[i].mean);
    EXPECT_EQ(a.sink_latencies[i].p50, b.sink_latencies[i].p50);
    EXPECT_EQ(a.sink_latencies[i].p95, b.sink_latencies[i].p95);
  }
  ASSERT_EQ(a.op_stats.size(), b.op_stats.size());
  for (size_t i = 0; i < a.op_stats.size(); ++i) {
    EXPECT_EQ(a.op_stats[i].tuples_processed, b.op_stats[i].tuples_processed);
    EXPECT_EQ(a.op_stats[i].pairs_probed, b.op_stats[i].pairs_probed);
    EXPECT_EQ(a.op_stats[i].tuples_emitted, b.op_stats[i].tuples_emitted);
    EXPECT_EQ(a.op_stats[i].cpu_seconds, b.op_stats[i].cpu_seconds);
  }
  const auto& ao = a.overload;
  const auto& bo = b.overload;
  EXPECT_EQ(ao.shed_edge, bo.shed_edge);
  EXPECT_EQ(ao.shed_overflow, bo.shed_overflow);
  EXPECT_EQ(ao.shed_directive, bo.shed_directive);
  EXPECT_EQ(ao.backpressure_deferred, bo.backpressure_deferred);
  EXPECT_EQ(ao.congestion_episodes, bo.congestion_episodes);
  EXPECT_EQ(ao.source_stalls, bo.source_stalls);
  EXPECT_EQ(ao.source_stall_seconds, bo.source_stall_seconds);
  EXPECT_EQ(ao.node_congested_seconds, bo.node_congested_seconds);
  EXPECT_EQ(ao.queue_depth_high_water, bo.queue_depth_high_water);
  EXPECT_EQ(ao.overload_detect_time, bo.overload_detect_time);
  EXPECT_EQ(ao.control_consults, bo.control_consults);
  EXPECT_EQ(ao.shed_rate_applied, bo.shed_rate_applied);
  EXPECT_EQ(a.incident.has_value(), b.incident.has_value());
}

SimulationResult RunWith(const FanOutScenario& s,
                         const SimulationOptions& base, size_t batch,
                         double rate) {
  SimulationOptions options = base;
  options.batch_size = batch;
  auto r = SimulatePlacement(s.graph, s.plan, s.system,
                             {ConstantTrace(rate, base.duration)}, options);
  EXPECT_TRUE(r.ok());
  return std::move(*r);
}

TEST(EngineBatchTest, SweepIsBitExactAtModerateLoad) {
  const FanOutScenario s;
  SimulationOptions options;
  options.duration = 30.0;
  const SimulationResult baseline = RunWith(s, options, 1, 400.0);
  EXPECT_GT(baseline.output_tuples, 1000u);
  for (size_t batch : kBatchSweep) {
    if (batch == 1) continue;
    ExpectBitExact(baseline, RunWith(s, options, batch, 400.0), batch);
  }
}

TEST(EngineBatchTest, SweepIsBitExactUnderOverloadMachinery) {
  // Leaf node driven past saturation with every PR-6 mechanism live:
  // bounded queues, backpressure with source stalls, and the
  // sustained-overload detector. All of their accounting is
  // per-tuple inside a batch, so OverloadStats must not move either.
  const FanOutScenario s(/*src_cost=*/1e-4, /*leaf_cost=*/1.2e-3);
  SimulationOptions options;
  options.duration = 30.0;
  options.queue_bound.capacity = 256;
  options.queue_bound.policy = OverflowPolicy::kDropOldest;
  options.backpressure.enabled = true;
  options.backpressure.high_water = 96;
  const SimulationResult baseline = RunWith(s, options, 1, 1200.0);
  EXPECT_GT(baseline.overload.total_shed() +
                baseline.overload.backpressure_deferred,
            0u)
      << "scenario failed to engage the degradation machinery";
  for (size_t batch : kBatchSweep) {
    if (batch == 1) continue;
    ExpectBitExact(baseline, RunWith(s, options, batch, 1200.0), batch);
  }
}

TEST(EngineBatchTest, SweepIsBitExactAtHigherRate) {
  const FanOutScenario s;
  SimulationOptions options;
  options.duration = 15.0;
  const SimulationResult baseline = RunWith(s, options, 1, 500.0);
  for (size_t batch : kBatchSweep) {
    if (batch == 1) continue;
    ExpectBitExact(baseline, RunWith(s, options, batch, 500.0), batch);
  }
}

}  // namespace
}  // namespace rod::sim
