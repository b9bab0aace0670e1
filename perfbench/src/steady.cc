// Copyright (c) the ROD reproduction authors.
//
// `steady`: the runtime hot loop — event queue, operator dispatch, node
// queues and metrics sinks — on ROD-placed forests of cheap operators at
// 0.8 of their analytic boundary, default engine options, unbounded
// queues. Geometry and the trace store are bypassed. A step is one
// Simulate of a deck entry: a forest with its own simulation seed.

#include <algorithm>

#include "harness.h"
#include "runtime/deployment.h"
#include "sim_common.h"

namespace perfbench {
namespace {

constexpr size_t kForests = 32;
constexpr size_t kInputs = 5;
constexpr size_t kOpsPerTree = 40;
constexpr size_t kNodes = 5;
constexpr double kLoad = 0.8;       // share of the analytic boundary
constexpr double kDuration = 0.25;  // simulated seconds per step

class SteadyWorkload final : public Workload {
 public:
  explicit SteadyWorkload(uint64_t seed)
      : seed_(seed), system_(rod::place::SystemSpec::Homogeneous(kNodes)) {}

  rod::Status Setup(Tracer& tracer) override {
    rod::query::GraphGenOptions options;
    options.num_input_streams = kInputs;
    options.ops_per_tree = kOpsPerTree;
    options.min_cost = 2e-6;
    options.max_cost = 20e-6;
    auto graphs = Call(tracer, "generate_deck", Layer::kQuery, [&] {
      return MakeForests(seed_, 0, kForests, options);
    });
    forests_.clear();
    deployments_.clear();
    inputs_.clear();
    for (auto& graph : graphs) {
      auto forest = PlanForest(std::move(graph), system_, tracer);
      ROD_RETURN_IF_ERROR(forest.status());
      const int64_t start = NowNs();
      auto dep = Call(tracer, "compile", Layer::kRuntime, [&] {
        return rod::sim::CompileDeployment(forest->graph, forest->plan,
                                           system_);
      });
      compile_ms_.push_back(1e3 * SecondsSince(start));
      ROD_RETURN_IF_ERROR(dep.status());
      rod::trace::RateTrace rate;
      rate.window_sec = kDuration;
      rate.rates = {kLoad * forest->boundary};
      inputs_.emplace_back(kInputs, rate);
      deployments_.push_back(std::move(*dep));
      forests_.push_back(std::move(*forest));
    }
    sim_seeds_ = DeckSeeds(seed_, 1, kForests);
    if (refs_.empty()) refs_.resize(sim_seeds_.size());
    return rod::Status::OK();
  }

  size_t deck_size() const override { return sim_seeds_.size(); }

  StepResult Step(size_t i, Tracer& tracer) override {
    rod::sim::SimulationOptions options;
    options.duration = kDuration;
    options.seed = sim_seeds_[i];
    const auto r = Call(tracer, "simulate", Layer::kRuntime, [&] {
      return rod::sim::Simulate(deployments_[i], inputs_[i], options);
    });
    StepResult out;
    if (!r.ok()) return out;
    if (tracer.enabled()) {
      traced_events_ += static_cast<double>(r->processed_events);
    }
    ScopedSpan span(tracer, "check", Layer::kHarness);
    out.work = static_cast<double>(r->input_tuples);
    // At 0.8 of the boundary no node may be pegged, and a deck seed re-run
    // must reproduce its first result exactly. The engine's `saturated`
    // flag is not the test: its backlog heuristic (> 50 + 2% of the input
    // tasks queued at the horizon) also fires on feasible short runs of
    // deep trees, e.g. 195 queued tasks at utilisation 0.794 in 0.5 s.
    // Those verdicts are counted in runtime.saturated_runs instead.
    out.ok = r->max_node_utilization < options.overload_threshold;
    if (!refs_[i]) {
      refs_[i] = *r;
    } else {
      out.ok = out.ok && SameResult(*refs_[i], *r);
    }
    return out;
  }

  double Quality() const override {
    // Simulated vs analytic max-node utilisation; the analytic value is
    // kLoad by construction of the input rates.
    double sum = 0.0;
    for (const auto& r : refs_) {
      const double sim = r ? r->max_node_utilization : 0.0;
      sum += std::min(sim, kLoad) / std::max(sim, kLoad);
    }
    return sum / static_cast<double>(refs_.size());
  }

  void LayerMetrics(const std::vector<SpanRecord>& spans,
                    MetricSet& out) const override {
    RuntimeLayerMetrics(refs_, spans, traced_events_, out);
    out.Set("runtime.compile_ms", Median(compile_ms_));
  }

 private:
  uint64_t seed_;
  rod::place::SystemSpec system_;
  std::vector<PlannedForest> forests_;
  std::vector<rod::sim::Deployment> deployments_;
  std::vector<std::vector<rod::trace::RateTrace>> inputs_;
  std::vector<uint64_t> sim_seeds_;
  std::vector<double> compile_ms_;
  std::vector<std::optional<rod::sim::SimulationResult>> refs_;
  double traced_events_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeSteadyWorkload(uint64_t seed) {
  return std::make_unique<SteadyWorkload>(seed);
}

}  // namespace perfbench
