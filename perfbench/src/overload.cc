// Copyright (c) the ROD reproduction authors.
//
// `overload`: the runtime's overflow path fed from the segmented trace
// store. Set-up records bursty arrivals (0.6x the analytic boundary, a
// 2.5-3x burst window) into one store file per input stream; a step
// rewinds the store and replays it into Simulate with bounded kQosWeighted
// queues, backpressure, the overload controller and a Supervisor repairing
// one mid-run node crash. Queues overflow, tuples are shed, sources stall
// and the store reader sits on the arrival path.

#include <cmath>
#include <cstdio>

#include "common/random.h"
#include "harness.h"
#include "runtime/chaos.h"
#include "runtime/deployment.h"
#include "runtime/supervisor.h"
#include "runtime/workload_driver.h"
#include "sim_common.h"
#include "trace/store/replay.h"
#include "trace/store/writer.h"

namespace perfbench {
namespace {

using rod::trace::store::ReplaySet;

constexpr size_t kForests = 48;
constexpr size_t kInputs = 4;
constexpr size_t kOpsPerTree = 50;
constexpr size_t kNodes = 5;
constexpr double kDuration = 1.0;      // simulated seconds per step
constexpr double kWindow = 0.05;       // rate-trace window (s)
constexpr double kBase = 0.6;          // base rate, share of the boundary
constexpr double kBurstBegin = 0.3;    // burst window, simulated seconds
constexpr double kBurstEnd = 0.6;
constexpr double kCrashTime = 0.45;
constexpr uint32_t kCrashNode = 1;
// Small segments, so each replay crosses several segment boundaries.
constexpr uint32_t kRecordsPerSegment = 1024;

// One deck forest with everything its steps replay.
struct Scenario {
  PlannedForest forest;
  rod::sim::Deployment deployment;
  std::vector<rod::trace::RateTrace> rates;
  std::vector<std::vector<double>> arrivals;  // the recorded arrivals
  std::optional<ReplaySet> store;
  std::unique_ptr<rod::sim::Supervisor> supervisor;
  double records = 0.0;
};

class OverloadWorkload final : public Workload {
 public:
  OverloadWorkload(uint64_t seed, std::string store_dir)
      : seed_(seed),
        store_dir_(std::move(store_dir)),
        system_(rod::place::SystemSpec::Homogeneous(kNodes)) {
    failures_.CrashAt(kCrashTime, kCrashNode);
  }
  // Removes the run's store files.
  ~OverloadWorkload() override {
    scenarios_.clear();
    for (size_t f = 0; f < kForests; ++f) {
      for (size_t k = 0; k < kInputs; ++k) std::remove(StorePath(f, k).c_str());
    }
  }
  OverloadWorkload(const OverloadWorkload&) = delete;
  OverloadWorkload& operator=(const OverloadWorkload&) = delete;

  rod::Status Setup(Tracer& tracer) override {
    // Drop the old stores before their files are rewritten.
    scenarios_.clear();
    rod::query::GraphGenOptions options;
    options.num_input_streams = kInputs;
    options.ops_per_tree = kOpsPerTree;
    options.min_cost = 2e-6;
    options.max_cost = 20e-6;
    auto graphs = Call(tracer, "generate_deck", Layer::kQuery, [&] {
      return MakeForests(seed_, 0, kForests, options);
    });
    const std::vector<uint64_t> trace_seeds = DeckSeeds(seed_, 2, kForests);
    for (size_t f = 0; f < kForests; ++f) {
      auto forest = PlanForest(std::move(graphs[f]), system_, tracer);
      ROD_RETURN_IF_ERROR(forest.status());
      const int64_t start = NowNs();
      auto dep = Call(tracer, "compile", Layer::kRuntime, [&] {
        return rod::sim::CompileDeployment(forest->graph, forest->plan,
                                           system_);
      });
      compile_ms_.push_back(1e3 * SecondsSince(start));
      ROD_RETURN_IF_ERROR(dep.status());
      auto s = std::make_unique<Scenario>(
          Scenario{std::move(*forest), std::move(*dep), {}, {}, {}, {}, 0.0});
      s->rates = BurstRates(s->forest.boundary, trace_seeds[f]);
      s->arrivals = Call(tracer, "materialize", Layer::kRuntime, [&] {
        return rod::sim::MaterializeArrivals(s->rates, true, trace_seeds[f],
                                             kDuration);
      });
      ROD_RETURN_IF_ERROR(WriteStore(f, *s, tracer));
      rod::sim::Supervisor::Options sup;
      sup.detection_delay = 0.05;
      sup.migration_pause = 0.01;
      s->supervisor =
          std::make_unique<rod::sim::Supervisor>(s->forest.model, sup);
      scenarios_.push_back(std::move(s));
    }
    sim_seeds_ = DeckSeeds(seed_, 1, kForests);
    if (refs_.empty()) refs_.resize(sim_seeds_.size());
    return rod::Status::OK();
  }

  size_t deck_size() const override { return sim_seeds_.size(); }

  StepResult Step(size_t i, Tracer& tracer) override {
    Scenario& s = *scenarios_[i];
    Call(tracer, "rewind", Layer::kTrace, [&] { s.store->Rewind(); });
    s.supervisor->Reset();
    const rod::sim::SimulationOptions options = Options(s, &*s.store, i);
    const auto r = Call(tracer, "simulate", Layer::kRuntime, [&] {
      return rod::sim::Simulate(s.deployment, s.rates, options);
    });
    StepResult out;
    if (!r.ok() || !s.store->status().ok()) return out;
    if (tracer.enabled()) {
      traced_events_ += static_cast<double>(r->processed_events);
      traced_records_ += s.records;
    }
    ScopedSpan span(tracer, "check", Layer::kHarness);
    out.work = s.records;
    out.ok = LossIdentityHolds(*r, s.records);
    if (!refs_[i]) {
      refs_[i] = *r;
    } else {
      out.ok = out.ok && SameResult(*refs_[i], *r);
    }
    return out;
  }

  // Replay from the store must equal replay of the same arrivals held in
  // memory (ReplaySet::FromVectors), checked on the deck's first entry.
  size_t PostRunFailures() override {
    Scenario& s = *scenarios_[0];
    ReplaySet memory = ReplaySet::FromVectors(s.arrivals);
    s.supervisor->Reset();
    const auto r = rod::sim::Simulate(s.deployment, s.rates,
                                      Options(s, &memory, 0));
    return r.ok() && refs_[0] && SameResult(*refs_[0], *r) ? 0 : 1;
  }

  double Quality() const override {
    double sum = 0.0;
    for (const auto& r : refs_) {
      sum += r && r->incident ? r->incident->availability : 0.0;
    }
    return sum / static_cast<double>(refs_.size());
  }

  void LayerMetrics(const std::vector<SpanRecord>& spans,
                    MetricSet& out) const override {
    RuntimeLayerMetrics(refs_, spans, traced_events_, out);
    out.Set("runtime.compile_ms", Median(compile_ms_));
    out.Set("trace.store_write_ms", Median(store_write_ms_));
    out.Set("trace.open_ms", Median(open_ms_));
    double replay_seconds = 0.0;
    for (const char* name : {"rewind", "simulate"}) {
      for (const double s : SpanSeconds(spans, name, "step")) {
        replay_seconds += s;
      }
    }
    out.Set("trace.replay_records_per_s",
            Ratio(traced_records_, replay_seconds));
  }

 private:
  // Base kBase x boundary on every stream, times a per-stream factor
  // drawn from U[2.5, 3] inside the burst window.
  static std::vector<rod::trace::RateTrace> BurstRates(double boundary,
                                                       uint64_t seed) {
    rod::Rng rng(seed);
    const size_t windows = static_cast<size_t>(std::lround(kDuration / kWindow));
    std::vector<rod::trace::RateTrace> rates(kInputs);
    for (auto& trace : rates) {
      const double burst = rng.Uniform(2.5, 3.0);
      trace.window_sec = kWindow;
      for (size_t w = 0; w < windows; ++w) {
        const double t = static_cast<double>(w) * kWindow;
        const bool in_burst = t >= kBurstBegin && t < kBurstEnd;
        trace.rates.push_back(kBase * boundary * (in_burst ? burst : 1.0));
      }
    }
    return rates;
  }

  std::string StorePath(size_t forest, size_t stream) const {
    return store_dir_ + "/overload-seed" + std::to_string(seed_) + "-f" +
           std::to_string(forest) + "-s" + std::to_string(stream) + ".rodstore";
  }

  rod::Status WriteStore(size_t f, Scenario& s, Tracer& tracer) {
    std::vector<std::string> paths;
    for (size_t k = 0; k < kInputs; ++k) {
      paths.push_back(StorePath(f, k));
      const int64_t start = NowNs();
      const rod::Status st = Call(tracer, "store_write", Layer::kTrace, [&] {
        return rod::trace::store::WriteTimestamps(
            s.arrivals[k], static_cast<uint32_t>(k), paths.back(),
            {.records_per_segment = kRecordsPerSegment});
      });
      store_write_ms_.push_back(1e3 * SecondsSince(start));
      ROD_RETURN_IF_ERROR(st);
      s.records += static_cast<double>(s.arrivals[k].size());
    }
    const int64_t start = NowNs();
    auto store = Call(tracer, "open", Layer::kTrace,
                      [&] { return ReplaySet::OpenStores(paths); });
    open_ms_.push_back(1e3 * SecondsSince(start));
    ROD_RETURN_IF_ERROR(store.status());
    s.store.emplace(std::move(*store));
    return rod::Status::OK();
  }

  rod::sim::SimulationOptions Options(Scenario& s, ReplaySet* replay,
                                      size_t i) const {
    rod::sim::SimulationOptions o;
    o.duration = kDuration;
    o.seed = sim_seeds_[i];
    o.replay = replay;
    o.failures = &failures_;
    o.recovery = s.supervisor.get();
    o.queue_bound.capacity = 128;
    o.queue_bound.policy = rod::sim::OverflowPolicy::kQosWeighted;
    o.backpressure.enabled = true;
    o.backpressure.high_water = 96;
    o.overload.enabled = true;
    o.overload.check_interval = 0.05;
    o.overload.queue_high_water = 64;
    o.overload.sustain = 0.1;
    o.overload.cooldown = 0.2;
    return o;
  }

  // IncidentReport's accounting identities: the lost total is the sum of
  // its mechanisms, availability is accepted over offered, and no more
  // tuples are offered than the store holds.
  static bool LossIdentityHolds(const rod::sim::SimulationResult& r,
                                double records) {
    if (!r.incident) return false;
    const rod::sim::IncidentReport& inc = *r.incident;
    const size_t offered = r.input_tuples + inc.rejected_inputs + r.shed_tuples;
    const double availability =
        offered > 0 ? static_cast<double>(r.input_tuples) /
                          static_cast<double>(offered)
                    : 1.0;
    return inc.lost_tuples == inc.lost_queued + inc.lost_inflight +
                                  inc.lost_network + inc.rejected_inputs &&
           inc.availability == availability &&
           inc.overload_shed == r.overload.total_shed() &&
           static_cast<double>(offered) <= records;
  }

  uint64_t seed_;
  std::string store_dir_;
  rod::place::SystemSpec system_;
  rod::sim::FailureSchedule failures_;
  std::vector<std::unique_ptr<Scenario>> scenarios_;
  std::vector<uint64_t> sim_seeds_;
  std::vector<double> compile_ms_;
  std::vector<double> store_write_ms_;
  std::vector<double> open_ms_;
  std::vector<std::optional<rod::sim::SimulationResult>> refs_;
  double traced_events_ = 0.0;
  double traced_records_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeOverloadWorkload(uint64_t seed,
                                               std::string store_dir) {
  return std::make_unique<OverloadWorkload>(seed, std::move(store_dir));
}

}  // namespace perfbench
