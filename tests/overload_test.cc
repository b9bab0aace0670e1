// Graceful-degradation tests: bounded ingress queues with overflow
// policies (including QoS-aware semantic shedding), backpressure
// propagation to upstream nodes and sources, per-stream load-spike
// faults, and the sustained-overload control loop (detector ->
// ControlAgent -> shed directive / re-placement).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "placement/rod.h"
#include "query/load_model.h"
#include "runtime/chaos.h"
#include "runtime/engine.h"
#include "runtime/supervisor.h"
#include "telemetry/telemetry.h"

namespace rod::sim {
namespace {

using place::Placement;
using place::SystemSpec;
using query::InputStreamId;
using query::OperatorKind;
using query::QueryGraph;
using query::StreamRef;

trace::RateTrace ConstantTrace(double rate, double duration) {
  trace::RateTrace t;
  t.window_sec = duration;
  t.rates = {rate};
  return t;
}

/// Graph: I -> map(cost, selectivity) -> sink.
QueryGraph OneOpGraph(double cost, double selectivity = 1.0) {
  QueryGraph g;
  const InputStreamId in = g.AddInputStream("I");
  EXPECT_TRUE(g.AddOperator({.name = "op", .kind = OperatorKind::kMap,
                             .cost = cost, .selectivity = selectivity},
                            {StreamRef::Input(in)})
                  .ok());
  return g;
}

/// Two consumers of one input on one node: a valuable full-selectivity
/// branch and a nearly-dead filter branch (the QoS shedding target).
QueryGraph TwoBranchGraph(double cost, double dead_selectivity) {
  QueryGraph g;
  const InputStreamId in = g.AddInputStream("I");
  EXPECT_TRUE(g.AddOperator({.name = "valuable", .kind = OperatorKind::kMap,
                             .cost = cost, .selectivity = 1.0},
                            {StreamRef::Input(in)})
                  .ok());
  EXPECT_TRUE(g.AddOperator({.name = "dead", .kind = OperatorKind::kFilter,
                             .cost = cost, .selectivity = dead_selectivity},
                            {StreamRef::Input(in)})
                  .ok());
  return g;
}

/// Chain across two nodes: I -> cheap(node 0) -> expensive(node 1).
struct ChainScenario {
  QueryGraph graph;
  SystemSpec system = SystemSpec::Homogeneous(2);
  Placement plan{2, {0, 1}};

  explicit ChainScenario(double cheap_cost = 1e-4, double heavy_cost = 2e-3) {
    const InputStreamId in = graph.AddInputStream("I");
    auto cheap =
        graph.AddOperator({.name = "cheap", .kind = OperatorKind::kMap,
                           .cost = cheap_cost, .selectivity = 1.0},
                          {StreamRef::Input(in)});
    EXPECT_TRUE(cheap.ok());
    EXPECT_TRUE(graph
                    .AddOperator({.name = "heavy", .kind = OperatorKind::kMap,
                                  .cost = heavy_cost, .selectivity = 1.0},
                                 {StreamRef::Op(*cheap)})
                    .ok());
  }
};

bool ResultsBitExact(const SimulationResult& a, const SimulationResult& b) {
  return a.input_tuples == b.input_tuples && a.shed_tuples == b.shed_tuples &&
         a.output_tuples == b.output_tuples &&
         a.mean_latency == b.mean_latency && a.p99_latency == b.p99_latency &&
         a.max_latency == b.max_latency &&
         a.processed_events == b.processed_events &&
         a.final_backlog == b.final_backlog;
}

TEST(BoundedQueueTest, DefaultsKeepLegacyUnboundedBehavior) {
  const QueryGraph g = OneOpGraph(1e-3);
  const SystemSpec system = SystemSpec::Homogeneous(1);
  SimulationOptions options;
  options.duration = 20.0;

  auto unbounded =
      SimulatePlacement(g, Placement(1, {0}), system,
                        {ConstantTrace(800.0, 20.0)}, options);
  ASSERT_TRUE(unbounded.ok());
  // All degradation machinery off: the stats are identically zero.
  EXPECT_EQ(unbounded->overload.total_shed(), 0u);
  EXPECT_EQ(unbounded->overload.backpressure_deferred, 0u);
  EXPECT_EQ(unbounded->overload.congestion_episodes, 0u);
  EXPECT_EQ(unbounded->overload.control_consults, 0u);

  // A bound that never binds is bit-exact with the unbounded default,
  // for every overflow policy (no RNG perturbation either).
  for (OverflowPolicy policy :
       {OverflowPolicy::kDropNewest, OverflowPolicy::kDropOldest,
        OverflowPolicy::kRandom, OverflowPolicy::kQosWeighted}) {
    SimulationOptions bounded_options = options;
    bounded_options.queue_bound.capacity = 1u << 20;
    bounded_options.queue_bound.policy = policy;
    auto bounded = SimulatePlacement(g, Placement(1, {0}), system,
                                     {ConstantTrace(800.0, 20.0)},
                                     bounded_options);
    ASSERT_TRUE(bounded.ok());
    EXPECT_TRUE(ResultsBitExact(*unbounded, *bounded))
        << "policy " << static_cast<int>(policy);
  }
}

TEST(BoundedQueueTest, CapacityBoundsDepthUnderOverload) {
  // rho = 3: unbounded queues would grow without limit.
  const QueryGraph g = OneOpGraph(1e-3);
  const SystemSpec system = SystemSpec::Homogeneous(1);

  for (OverflowPolicy policy :
       {OverflowPolicy::kDropNewest, OverflowPolicy::kDropOldest,
        OverflowPolicy::kRandom, OverflowPolicy::kQosWeighted}) {
    SimulationOptions options;
    options.duration = 20.0;
    options.queue_bound.capacity = 32;
    options.queue_bound.policy = policy;
    auto r = SimulatePlacement(g, Placement(1, {0}), system,
                               {ConstantTrace(3000.0, 20.0)}, options);
    ASSERT_TRUE(r.ok());
    EXPECT_LE(r->overload.queue_depth_high_water, 32u)
        << "policy " << static_cast<int>(policy);
    EXPECT_GT(r->overload.total_shed(), 0u);
    EXPECT_LE(r->final_backlog, 33u);  // bounded queue + in-service task
    // The node keeps producing at capacity throughout.
    EXPECT_GT(r->output_tuples, 0u);

    // Same seed, same result: overflow resolution is deterministic.
    auto again = SimulatePlacement(g, Placement(1, {0}), system,
                                   {ConstantTrace(3000.0, 20.0)}, options);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(ResultsBitExact(*r, *again))
        << "policy " << static_cast<int>(policy);
  }
}

TEST(BoundedQueueTest, SheddingConservesOfferedTuples) {
  // With deterministic evenly-spaced arrivals the offered volume is known
  // exactly: every offered tuple is either accepted or shed, never lost.
  const QueryGraph g = OneOpGraph(1e-3);
  const SystemSpec system = SystemSpec::Homogeneous(1);
  SimulationOptions options;
  options.duration = 20.0;
  options.poisson_arrivals = false;
  options.queue_bound.capacity = 40;
  options.queue_bound.policy = OverflowPolicy::kDropNewest;
  const double rate = 1800.0;  // rho = 1.8: well past the bound
  auto r = SimulatePlacement(g, Placement(1, {0}), system,
                             {ConstantTrace(rate, options.duration)}, options);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->shed_tuples, 0u);
  EXPECT_LE(r->final_backlog, options.queue_bound.capacity + 1);
  // Conservation: accepted + shed = offered (evenly spaced arrivals give
  // exactly rate * duration offered tuples, +/- the boundary arrival).
  const auto offered = static_cast<size_t>(rate * options.duration);
  EXPECT_NEAR(static_cast<double>(r->input_tuples + r->shed_tuples),
              static_cast<double>(offered), 1.0);
  // Drop-newest rejects at the edge and never evicts an accepted tuple, so
  // accepted tuples are all accounted for: emitted or still queued.
  EXPECT_EQ(r->overload.shed_overflow, 0u);
  EXPECT_EQ(r->input_tuples, r->output_tuples + r->final_backlog);
}

TEST(BoundedQueueTest, QosWeightedShedsDeadBranchFirst) {
  // Both branches cost the same, so the load is identical; only the
  // eviction choice differs. Dropping a "valuable" task forfeits a sink
  // output with probability 1, dropping a "dead" task with probability
  // 0.01 — QoS-aware eviction must therefore deliver more goodput.
  const QueryGraph g = TwoBranchGraph(1e-3, 0.01);
  const SystemSpec system = SystemSpec::Homogeneous(1);

  auto run_policy = [&](OverflowPolicy policy) {
    SimulationOptions options;
    options.duration = 30.0;
    options.queue_bound.capacity = 32;
    options.queue_bound.policy = policy;
    // 2x the single-node boundary: each arrival costs 2e-3 total.
    auto r = SimulatePlacement(g, Placement(1, {0, 0}), system,
                               {ConstantTrace(1000.0, 30.0)}, options);
    EXPECT_TRUE(r.ok());
    return *r;
  };

  const SimulationResult qos = run_policy(OverflowPolicy::kQosWeighted);
  const SimulationResult blind = run_policy(OverflowPolicy::kDropNewest);
  EXPECT_GT(qos.overload.total_shed(), 0u);
  EXPECT_GT(blind.overload.total_shed(), 0u);
  EXPECT_GE(qos.output_tuples, blind.output_tuples);
  // The separation is not marginal: the dead branch absorbs the drops.
  EXPECT_GT(qos.output_tuples, blind.output_tuples * 11 / 10);
}

TEST(BackpressureTest, CongestionParksDeliveriesAndStallsSources) {
  // The heavy downstream node saturates at 2x; its congestion must
  // propagate upstream rather than let node 1's queue grow unboundedly.
  ChainScenario s;
  SimulationOptions options;
  options.duration = 30.0;
  options.backpressure.enabled = true;
  options.backpressure.high_water = 16;

  auto r = SimulatePlacement(s.graph, s.plan, s.system,
                             {ConstantTrace(1000.0, 30.0)}, options);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->overload.congestion_episodes, 0u);
  EXPECT_GT(r->overload.backpressure_deferred, 0u);
  EXPECT_GT(r->overload.node_congested_seconds, 0.0);
  // Backpressure reaches the sources: node 0 blocks, fills, and stalls
  // the input stream.
  EXPECT_GT(r->overload.source_stalls, 0u);
  EXPECT_GT(r->overload.source_stall_seconds, 0.0);
  // Backpressure defers, it does not drop.
  EXPECT_EQ(r->shed_tuples, 0u);
  EXPECT_EQ(r->overload.total_shed(), 0u);
  EXPECT_FALSE(r->incident.has_value());

  auto again = SimulatePlacement(s.graph, s.plan, s.system,
                                 {ConstantTrace(1000.0, 30.0)}, options);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(ResultsBitExact(*r, *again));
}

TEST(BackpressureTest, FeasibleLoadIsUnaffected) {
  ChainScenario s;
  SimulationOptions options;
  options.duration = 30.0;

  auto baseline = SimulatePlacement(s.graph, s.plan, s.system,
                                    {ConstantTrace(200.0, 30.0)}, options);
  ASSERT_TRUE(baseline.ok());

  options.backpressure.enabled = true;
  options.backpressure.high_water = 64;
  auto bp = SimulatePlacement(s.graph, s.plan, s.system,
                              {ConstantTrace(200.0, 30.0)}, options);
  ASSERT_TRUE(bp.ok());
  // rho = 0.4 never reaches high water: identical results.
  EXPECT_EQ(bp->overload.congestion_episodes, 0u);
  EXPECT_TRUE(ResultsBitExact(*baseline, *bp));
}

TEST(LoadSpikeTest, MultiplierScalesArrivals) {
  const QueryGraph g = OneOpGraph(1e-4);
  const SystemSpec system = SystemSpec::Homogeneous(1);

  SimulationOptions options;
  options.duration = 30.0;

  auto calm = SimulatePlacement(g, Placement(1, {0}), system,
                                {ConstantTrace(500.0, 30.0)}, options);
  ASSERT_TRUE(calm.ok());

  FailureSchedule spike;
  spike.LoadSpikeAt(10.0, 0, 3.0).LoadSpikeAt(20.0, 0, 1.0);
  SimulationOptions spiked_options = options;
  spiked_options.failures = &spike;
  auto spiked = SimulatePlacement(g, Placement(1, {0}), system,
                                  {ConstantTrace(500.0, 30.0)},
                                  spiked_options);
  ASSERT_TRUE(spiked.ok());
  // A 3x flash crowd for a third of the run: noticeably more arrivals,
  // but far fewer than a run-long 3x would give.
  EXPECT_GT(spiked->input_tuples, calm->input_tuples * 5 / 4);
  EXPECT_LT(spiked->input_tuples, calm->input_tuples * 5 / 2);
  // Load spikes alone are not an incident (no crash).
  EXPECT_FALSE(spiked->incident.has_value());
}

TEST(LoadSpikeTest, ZeroFactorSilencesAndRestores) {
  const QueryGraph g = OneOpGraph(1e-4);
  const SystemSpec system = SystemSpec::Homogeneous(1);

  FailureSchedule lull;
  lull.LoadSpikeAt(10.0, 0, 0.0).LoadSpikeAt(20.0, 0, 1.0);
  SimulationOptions options;
  options.duration = 30.0;
  options.failures = &lull;
  auto r = SimulatePlacement(g, Placement(1, {0}), system,
                             {ConstantTrace(500.0, 30.0)}, options);
  ASSERT_TRUE(r.ok());

  SimulationOptions calm_options;
  calm_options.duration = 30.0;
  auto calm = SimulatePlacement(g, Placement(1, {0}), system,
                                {ConstantTrace(500.0, 30.0)}, calm_options);
  ASSERT_TRUE(calm.ok());
  // Silenced for a third of the run, then revived (the restore multiplier
  // must restart the dead arrival chain).
  EXPECT_LT(r->input_tuples, calm->input_tuples * 3 / 4);
  EXPECT_GT(r->input_tuples, calm->input_tuples * 1 / 2);
}

/// Scripted overload responder: records consultations and orders a fixed
/// shed fraction.
class SheddingAgent : public ControlAgent {
 public:
  explicit SheddingAgent(double shed_fraction)
      : shed_fraction_(shed_fraction) {}

  double detection_delay() const override { return 0.5; }

  std::optional<PlanUpdate> OnFailureDetected(
      double, uint32_t, const std::vector<bool>&, const Deployment&) override {
    return std::nullopt;
  }

  std::optional<OverloadDecision> OnOverload(const OverloadSignal& signal,
                                             const Deployment&) override {
    signals.push_back(signal);
    OverloadDecision d;
    d.shed_fraction = shed_fraction_;
    return d;
  }

  void OnOverloadCleared(double now) override { cleared.push_back(now); }

  std::vector<OverloadSignal> signals;
  std::vector<double> cleared;

 private:
  double shed_fraction_;
};

TEST(OverloadControlTest, SustainedBreachConsultsAgentAndShedRecovers) {
  // rho = 3 with no bound: the queue races past the detector threshold;
  // the agent orders a 0.8 shed (effective rho 0.6) and the queue drains,
  // which must fire OnOverloadCleared.
  const QueryGraph g = OneOpGraph(1e-3);
  const SystemSpec system = SystemSpec::Homogeneous(1);

  SheddingAgent agent(0.8);
  SimulationOptions options;
  options.duration = 40.0;
  options.overload.enabled = true;
  options.overload.queue_high_water = 64;
  options.overload.sustain = 0.5;
  options.recovery = &agent;

  auto r = SimulatePlacement(g, Placement(1, {0}), system,
                             {ConstantTrace(3000.0, 40.0)}, options);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->overload.overload_detect_time, 0.0);
  EXPECT_GE(r->overload.control_consults, 1u);
  EXPECT_EQ(r->overload.control_consults, agent.signals.size());
  EXPECT_GT(r->overload.shed_directive, 0u);
  EXPECT_GE(r->shed_tuples, r->overload.shed_directive);
  ASSERT_FALSE(agent.signals.empty());
  const OverloadSignal& first = agent.signals.front();
  EXPECT_EQ(first.hot_node, 0u);
  EXPECT_GE(first.queue_depth, 64u);
  EXPECT_GE(first.sustained_seconds, 0.5);
  ASSERT_EQ(first.observed_rates.size(), 1u);
  EXPECT_GT(first.observed_rates[0], 0.0);
  // The shed drained the queue below the clear threshold at least once.
  EXPECT_FALSE(agent.cleared.empty());
}

TEST(OverloadControlTest, ShedCountersMatchResultFields) {
  // The two telemetry shed counters name different quantities:
  // engine.inputs_shed is SimulationResult::shed_tuples (external tuples
  // dropped at every consumer) and engine.tuples_shed is
  // OverloadStats::total_shed() (edge + overflow + directive). Internal
  // dataflow dropped at the heavy node's full queue tells them apart.
  const ChainScenario s;
  SheddingAgent agent(0.3);  // rho 2 -> 1.4: the bound keeps overflowing
  telemetry::Telemetry tel;
  SimulationOptions options;
  options.duration = 20.0;
  options.queue_bound.capacity = 128;
  options.overload.enabled = true;
  options.overload.queue_high_water = 64;
  options.recovery = &agent;
  options.telemetry = &tel;

  auto r = SimulatePlacement(s.graph, s.plan, s.system,
                             {ConstantTrace(1000.0, 20.0)}, options);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->overload.shed_directive, 0u);
  EXPECT_GT(r->overload.shed_overflow, 0u);
  const auto counters = tel.Snapshot().counters;
  EXPECT_EQ(counters.at("engine.inputs_shed"), r->shed_tuples);
  EXPECT_EQ(counters.at("engine.tuples_shed"), r->overload.total_shed());
  EXPECT_GT(counters.at("engine.tuples_shed"),
            counters.at("engine.inputs_shed"));
}

TEST(OverloadControlTest, DetectorObservesOnlyWithoutAgent) {
  const QueryGraph g = OneOpGraph(1e-3);
  const SystemSpec system = SystemSpec::Homogeneous(1);

  SimulationOptions options;
  options.duration = 20.0;
  options.overload.enabled = true;
  options.overload.queue_high_water = 64;

  auto r = SimulatePlacement(g, Placement(1, {0}), system,
                             {ConstantTrace(3000.0, 20.0)}, options);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->overload.overload_detect_time, 0.0);
  EXPECT_EQ(r->overload.control_consults, 0u);
  EXPECT_EQ(r->overload.shed_directive, 0u);
}

TEST(OverloadControlTest, SupervisorCostModelPrefersCheaperAction) {
  // Unit-level cost model check on the production Supervisor: a pathological
  // all-on-one-node placement where a bounded rebalance helps.
  QueryGraph graph;
  const InputStreamId in = graph.AddInputStream("I");
  query::OperatorId prev = 0;
  for (int i = 0; i < 6; ++i) {
    auto id = graph.AddOperator(
        {.name = "op" + std::to_string(i), .kind = OperatorKind::kMap,
         .cost = 1e-3, .selectivity = 1.0},
        {i == 0 ? StreamRef::Input(in) : StreamRef::Op(prev)});
    ASSERT_TRUE(id.ok());
    prev = *id;
  }
  auto model = query::BuildLoadModel(graph);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(3);
  auto dep = CompileDeployment(graph, Placement(3, {0, 0, 0, 0, 0, 0}),
                               system);
  ASSERT_TRUE(dep.ok());

  OverloadSignal signal;
  signal.time = 10.0;
  signal.hot_node = 0;
  signal.queue_depth = 500;
  signal.queue_high_water = 128;
  signal.sustained_seconds = 2.0;
  signal.observed_rates = {300.0};
  signal.node_up = {true, true, true};

  {
    // Free migration: the re-placement wins the cost comparison.
    Supervisor::Options sup_options;
    sup_options.overload_rebalance_budget = 4;
    sup_options.migration_pause = 0.0;
    Supervisor sup(*model, sup_options);
    auto decision = sup.OnOverload(signal, *dep);
    ASSERT_TRUE(decision.has_value());
    EXPECT_TRUE(decision->plan.has_value());
    EXPECT_EQ(decision->shed_fraction, 0.0);
    EXPECT_EQ(sup.overload_rebalances(), 1u);
    EXPECT_EQ(sup.overload_consults(), 1u);
    // The plan actually spreads the pathological pile-up.
    size_t on_node0 = 0;
    for (size_t node : decision->plan->assignment) on_node0 += (node == 0);
    EXPECT_LT(on_node0, decision->plan->assignment.size());
  }
  {
    // Ruinously slow state transfer: shedding is cheaper.
    Supervisor::Options sup_options;
    sup_options.overload_rebalance_budget = 4;
    sup_options.migration_pause = 1e9;
    sup_options.overload_shed_fraction = 0.4;
    Supervisor sup(*model, sup_options);
    auto decision = sup.OnOverload(signal, *dep);
    ASSERT_TRUE(decision.has_value());
    EXPECT_FALSE(decision->plan.has_value());
    EXPECT_EQ(decision->shed_fraction, 0.4);
    EXPECT_EQ(sup.overload_sheds(), 1u);
    EXPECT_EQ(sup.last_shed_fraction(), 0.4);
  }
  {
    // Budget 0 disables re-placement outright.
    Supervisor::Options sup_options;
    sup_options.overload_rebalance_budget = 0;
    sup_options.migration_pause = 0.0;
    Supervisor sup(*model, sup_options);
    auto decision = sup.OnOverload(signal, *dep);
    ASSERT_TRUE(decision.has_value());
    EXPECT_FALSE(decision->plan.has_value());
    EXPECT_GT(decision->shed_fraction, 0.0);
  }
}

TEST(OverloadControlTest, EndToEndSupervisorShedsUnderSpike) {
  // Full loop on the production Supervisor: a mid-run 6x flash crowd
  // overloads the node; the detector escalates, the supervisor sheds,
  // and the run ends with bounded queues instead of a runaway backlog.
  const QueryGraph g = OneOpGraph(1e-3);
  const SystemSpec system = SystemSpec::Homogeneous(1);
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());

  FailureSchedule spike;
  spike.LoadSpikeAt(10.0, 0, 6.0);

  Supervisor::Options sup_options;
  sup_options.overload_shed_fraction = 0.9;
  Supervisor supervisor(*model, sup_options);

  SimulationOptions options;
  options.duration = 60.0;
  options.failures = &spike;
  options.recovery = &supervisor;
  options.overload.enabled = true;
  options.overload.queue_high_water = 64;
  options.queue_bound.capacity = 512;

  auto r = SimulatePlacement(g, Placement(1, {0}), system,
                             {ConstantTrace(500.0, 60.0)}, options);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->overload.overload_detect_time, 10.0);
  EXPECT_GE(supervisor.overload_consults(), 1u);
  EXPECT_GT(r->overload.shed_directive, 0u);
  EXPECT_LE(r->overload.queue_depth_high_water, 512u);
  EXPECT_LE(r->final_backlog, 513u);
}

}  // namespace
}  // namespace rod::sim
