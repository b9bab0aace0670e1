// Copyright (c) the ROD reproduction authors.
//
// `boundary`: the simulated feasibility-boundary search, the only
// parallel workload. A step is one SimulatedBoundaryScale of a small
// ROD-placed forest: a fixed 8-probe grid per round over the common
// thread pool, many short engine runs each paying its own set-up. The
// thread count is fixed (kThreads), never read from the machine.

#include <cmath>
#include <ctime>

#include "harness.h"
#include "runtime/sweep.h"
#include "sim_common.h"

namespace perfbench {
namespace {

constexpr size_t kForests = 32;
constexpr size_t kInputs = 3;
constexpr size_t kOpsPerTree = 10;
constexpr size_t kNodes = 3;
constexpr size_t kThreads = 4;
// Deck entries re-run on one thread after the timed loop.
constexpr size_t kSerialCheckEntries = 4;

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

class BoundaryWorkload final : public Workload {
 public:
  explicit BoundaryWorkload(uint64_t seed)
      : seed_(seed), system_(rod::place::SystemSpec::Homogeneous(kNodes)) {}

  size_t threads() const override { return kThreads; }

  rod::Status Setup(Tracer& tracer) override {
    rod::query::GraphGenOptions options;
    options.num_input_streams = kInputs;
    options.ops_per_tree = kOpsPerTree;
    options.min_cost = 20e-6;
    options.max_cost = 200e-6;
    auto graphs = Call(tracer, "generate_deck", Layer::kQuery, [&] {
      return MakeForests(seed_, 0, kForests, options);
    });
    forests_.clear();
    for (auto& graph : graphs) {
      auto forest = PlanForest(std::move(graph), system_, tracer);
      ROD_RETURN_IF_ERROR(forest.status());
      forests_.push_back(std::move(*forest));
    }
    sim_seeds_ = DeckSeeds(seed_, 1, kForests);
    if (refs_.empty()) refs_.resize(sim_seeds_.size());
    return rod::Status::OK();
  }

  size_t deck_size() const override { return sim_seeds_.size(); }

  StepResult Step(size_t i, Tracer& tracer) override {
    const double cpu = ProcessCpuSeconds();
    const int64_t start = NowNs();
    const auto scale = Call(tracer, "boundary_search", Layer::kSweep,
                            [&] { return Search(i, kThreads); });
    if (tracer.enabled()) {
      traced_cpu_ += ProcessCpuSeconds() - cpu;
      traced_wall_ += SecondsSince(start);
    }
    StepResult out;
    if (!scale.ok()) return out;
    ScopedSpan span(tracer, "check", Layer::kHarness);
    const double analytic = forests_[i].boundary;
    out.work = 1.0;
    out.ok = std::isfinite(*scale) && *scale >= 0.5 * analytic &&
             *scale <= 1.5 * analytic;
    if (!refs_[i]) {
      refs_[i] = *scale;
    } else {
      out.ok = out.ok && *refs_[i] == *scale;
    }
    return out;
  }

  // The first kSerialCheckEntries deck entries re-run on one thread must
  // return the identical scale; timing them on kThreads and on one thread
  // back to back gives the pool's speedup.
  size_t PostRunFailures() override {
    size_t failures = 0;
    double wall[2] = {0.0, 0.0};
    for (const size_t threads : {kThreads, size_t{1}}) {
      const int64_t start = NowNs();
      for (size_t i = 0; i < kSerialCheckEntries; ++i) {
        const auto scale = Search(i, threads);
        if (threads == 1 && (!scale.ok() || !refs_[i] || *scale != *refs_[i])) {
          ++failures;
        }
      }
      wall[threads == 1] = SecondsSince(start);
    }
    speedup_ = wall[1] / wall[0];
    return failures;
  }

  double Quality() const override {
    double sum = 0.0;
    for (size_t i = 0; i < refs_.size(); ++i) {
      sum += refs_[i] ? *refs_[i] / forests_[i].boundary : 0.0;
    }
    return sum / static_cast<double>(refs_.size());
  }

  void LayerMetrics(const std::vector<SpanRecord>& spans,
                    MetricSet& out) const override {
    out.Set("sweep.search_ms_p50",
            1e3 * Median(SpanSeconds(spans, "boundary_search", "step")));
    out.Set("sweep.cpu_util",
            Ratio(traced_cpu_, traced_wall_ * static_cast<double>(kThreads)));
    out.Set("sweep.speedup_vs_1", speedup_);
  }

 private:
  rod::Result<double> Search(size_t i, size_t threads) const {
    const PlannedForest& forest = forests_[i];
    rod::sim::SimulationOptions options;
    options.duration = 1.0;
    options.seed = sim_seeds_[i];
    rod::sim::BoundarySearchOptions search;
    search.lo = 0.5 * forest.boundary;
    search.hi = 1.5 * forest.boundary;
    search.rel_tol = 0.02;
    search.batch = 8;
    rod::sim::SweepOptions sweep;
    sweep.num_threads = threads;
    return rod::sim::SimulatedBoundaryScale(
        forest.graph, forest.plan, system_,
        rod::Vector(kInputs, 1.0), options, search, sweep);
  }

  uint64_t seed_;
  rod::place::SystemSpec system_;
  std::vector<PlannedForest> forests_;
  std::vector<uint64_t> sim_seeds_;
  std::vector<std::optional<double>> refs_;
  double traced_cpu_ = 0.0;
  double traced_wall_ = 0.0;
  double speedup_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeBoundaryWorkload(uint64_t seed) {
  return std::make_unique<BoundaryWorkload>(seed);
}

}  // namespace perfbench
