// Copyright (c) the ROD reproduction authors.
//
// `place`: the user's "give me a plan" path — query, placement and
// geometry; the runtime does no work. A step builds the load model of one
// §7.1 forest, places it with ROD (the paper's kCombined mode, 1 thread),
// scores the plan's feasible-set ratio (Halton samples, runtime SIMD
// dispatch) and repairs it after node 0 is dropped.

#include <optional>

#include "geometry/feasible_set.h"
#include "geometry/sample_cache.h"
#include "harness.h"
#include "placement/evaluator.h"
#include "placement/repair.h"
#include "placement/rod.h"
#include "query/load_model.h"

namespace perfbench {
namespace {

using rod::place::Placement;

constexpr size_t kForests = 48;
constexpr size_t kInputs = 10;
constexpr size_t kOpsPerTree = 100;
constexpr size_t kNodes = 32;
// Halton samples per RatioToIdeal, a quarter of the library default. The
// kernel's lanes then take 640 KiB and stay in a core's 2 MiB L2. At the
// default 32768 they take 2.5 MiB and stream from the socket-shared L3, and
// the step time swung with the load of other tenants on the host: back to
// back 3 s processes spread 5.8-7.3 ms at 32768 and 3.1-3.2 ms at 8192.
constexpr size_t kSamples = 8192;

rod::geom::VolumeOptions Volume() {
  rod::geom::VolumeOptions options;
  options.num_samples = kSamples;
  return options;
}

class PlaceWorkload final : public Workload {
 public:
  explicit PlaceWorkload(uint64_t seed)
      : seed_(seed),
        system_(rod::place::SystemSpec::Homogeneous(kNodes)),
        survivors_(rod::place::SystemSpec::Homogeneous(kNodes - 1)) {
    mapping_.push_back(rod::place::kUnassigned);
    for (size_t n = 0; n + 1 < kNodes; ++n) mapping_.push_back(n);
  }

  rod::Status Setup(Tracer& tracer) override {
    rod::query::GraphGenOptions options;
    options.num_input_streams = kInputs;
    options.ops_per_tree = kOpsPerTree;
    forests_ = Call(tracer, "generate_deck", Layer::kQuery, [&] {
      return MakeForests(seed_, 0, kForests, options);
    });
    // Cold sample-set build: the first RatioToIdeal of a process pays it.
    rod::geom::SimplexSampleCache::Global().Clear();
    const int64_t start = NowNs();
    Call(tracer, "sample_build", Layer::kGeometry, [] {
      return rod::geom::SimplexSampleCache::Global().Get(
          rod::geom::VolumeSampleKey(kInputs, Volume()));
    });
    sample_build_ms_.push_back(1e3 * SecondsSince(start));
    if (refs_.empty()) refs_.resize(kForests);
    return rod::Status::OK();
  }

  size_t deck_size() const override { return forests_.size(); }

  StepResult Step(size_t i, Tracer& tracer) override {
    StepResult out;
    const auto model = Call(tracer, "load_model", Layer::kQuery, [&] {
      return rod::query::BuildLoadModel(forests_[i]);
    });
    if (!model.ok()) return out;
    const auto plan = Call(tracer, "rod_place", Layer::kPlacement, [&] {
      return rod::place::RodPlace(*model, system_);
    });
    if (!plan.ok()) return out;
    const auto ratio = Call(tracer, "ratio_to_ideal", Layer::kGeometry, [&] {
      return rod::place::PlacementEvaluator(*model, system_)
          .RatioToIdeal(*plan, Volume());
    });
    if (!ratio.ok()) return out;
    const auto repair = Call(tracer, "repair", Layer::kPlacement, [&] {
      return rod::place::RepairPlacement(*model, *plan, survivors_, mapping_);
    });
    if (!repair.ok()) return out;

    ScopedSpan span(tracer, "check", Layer::kHarness);
    out.work = 1.0;
    out.ok = Check(i, *plan, *ratio, *repair);
    return out;
  }

  double Quality() const override {
    double sum = 0.0;
    for (const auto& r : refs_) sum += r ? r->ratio : 0.0;
    return sum / static_cast<double>(refs_.size());
  }

  void LayerMetrics(const std::vector<SpanRecord>& spans,
                    MetricSet& out) const override {
    out.Set("query.load_model_ms_p50",
            1e3 * Median(SpanSeconds(spans, "load_model", "step")));
    out.Set("placement.rod_place_ms_p50",
            1e3 * Median(SpanSeconds(spans, "rod_place", "step")));
    out.Set("placement.repair_ms_p50",
            1e3 * Median(SpanSeconds(spans, "repair", "step")));
    size_t moved = 0;
    for (const auto& r : refs_) moved += r ? r->ops_moved : 0;
    out.Set("placement.ops_moved", static_cast<double>(moved));
    const std::vector<double> ratio = SpanSeconds(spans, "ratio_to_ideal", "step");
    double total = 0.0;
    for (const double s : ratio) total += s;
    out.Set("geometry.ratio_ms_p50", 1e3 * Median(ratio));
    out.Set("geometry.samples_per_s",
            Ratio(static_cast<double>(kSamples * ratio.size()), total));
    out.Set("geometry.sample_build_ms", Median(sample_build_ms_));
  }

 private:
  struct Ref {
    Placement plan;
    double ratio = 0.0;
    size_t ops_moved = 0;
  };

  // Every operator assigned to a real node; the repair moved exactly the
  // operators of node 0 and left every other operator in place; the plan
  // and its ratio equal the deck entry's first execution.
  bool Check(size_t i, const Placement& plan, double ratio,
             const rod::place::RepairResult& repair) {
    const size_t m = forests_[i].num_operators();
    if (plan.num_operators() != m || repair.placement.num_operators() != m) {
      return false;
    }
    size_t orphans = 0;
    for (size_t j = 0; j < m; ++j) {
      const size_t home = plan.node_of(j);
      if (home >= kNodes) return false;
      if (home == 0) {
        ++orphans;
      } else if (repair.placement.node_of(j) != home - 1) {
        return false;
      }
    }
    if (repair.operators_moved != orphans) return false;
    if (!refs_[i]) {
      refs_[i] = Ref{plan, ratio, repair.operators_moved};
      return true;
    }
    return refs_[i]->plan == plan && refs_[i]->ratio == ratio;
  }

  uint64_t seed_;
  rod::place::SystemSpec system_;
  rod::place::SystemSpec survivors_;
  std::vector<size_t> mapping_;
  std::vector<rod::query::QueryGraph> forests_;
  std::vector<double> sample_build_ms_;
  std::vector<std::optional<Ref>> refs_;
};

}  // namespace

std::unique_ptr<Workload> MakePlaceWorkload(uint64_t seed) {
  return std::make_unique<PlaceWorkload>(seed);
}

}  // namespace perfbench
