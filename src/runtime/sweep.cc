#include "runtime/sweep.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "runtime/deployment.h"

namespace rod::sim {
namespace {

/// Round cap of each SimulatedBoundaryScale phase (bracketing, refinement).
constexpr size_t kMaxBoundaryRounds = 32;

uint64_t SplitMix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Result<SimulationResult> RunCase(const SimulationCase& c) {
  if (c.inputs == nullptr) {
    return Status::InvalidArgument("sweep case has no input traces");
  }
  if (c.deployment != nullptr) {
    return Simulate(*c.deployment, *c.inputs, c.options);
  }
  if (c.graph != nullptr && c.placement != nullptr && c.system != nullptr) {
    return SimulatePlacement(*c.graph, *c.placement, *c.system, *c.inputs,
                             c.options);
  }
  return Status::InvalidArgument(
      "sweep case needs a deployment or a (graph, placement, system) triple");
}

}  // namespace

size_t ResolveSweepThreads(size_t num_threads) {
  return num_threads == 0 ? ThreadPool::Shared().num_threads() : num_threads;
}

std::vector<uint64_t> ForkSeeds(uint64_t base, size_t n) {
  std::vector<uint64_t> seeds;
  seeds.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    seeds.push_back(
        SplitMix64(base + 0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(i) + 1)));
  }
  return seeds;
}

std::vector<Result<SimulationResult>> SimulateSweep(
    std::span<const SimulationCase> cases, const SweepOptions& sweep) {
  // Result<T> is not default-constructible; seed every slot with a
  // placeholder status that a completed case overwrites.
  std::vector<Result<SimulationResult>> results(
      cases.size(), Result<SimulationResult>(Status::Internal("case not run")));
  ParallelFor(ResolveSweepThreads(sweep.num_threads), cases.size(),
              /*grain=*/1, [&](size_t, size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  telemetry::TraceSpan span(sweep.telemetry, "sweep", "case",
                                            static_cast<uint64_t>(i));
                  results[i] = RunCase(cases[i]);
                }
                if (sweep.telemetry != nullptr) {
                  sweep.telemetry->Count("sweep.cases", end - begin);
                }
              });
  return results;
}

std::vector<Result<bool>> ProbeFeasibleSweep(const query::QueryGraph& graph,
                                             const place::Placement& placement,
                                             const place::SystemSpec& system,
                                             std::span<const Vector> rate_points,
                                             const SimulationOptions& options,
                                             const SweepOptions& sweep) {
  std::vector<Result<bool>> results(
      rate_points.size(), Result<bool>(Status::Internal("point not run")));
  // Compile once; CompileDeployment is deterministic, so sharing the
  // read-only deployment across probes matches per-point ProbeFeasibleAt
  // bit for bit.
  auto deployment = CompileDeployment(graph, placement, system);
  if (!deployment.ok()) {
    std::fill(results.begin(), results.end(),
              Result<bool>(deployment.status()));
    return results;
  }
  const size_t num_streams = graph.num_input_streams();
  ParallelFor(
      ResolveSweepThreads(sweep.num_threads), rate_points.size(), /*grain=*/1,
      [&](size_t, size_t begin, size_t end) {
        std::vector<trace::RateTrace> traces;
        if (sweep.telemetry != nullptr) {
          sweep.telemetry->Count("sweep.probes", end - begin);
        }
        for (size_t i = begin; i < end; ++i) {
          telemetry::TraceSpan span(sweep.telemetry, "sweep", "probe",
                                    static_cast<uint64_t>(i));
          const Vector& rates = rate_points[i];
          if (rates.size() != num_streams) {
            results[i] = Result<bool>(Status::InvalidArgument(
                "one rate per input stream required"));
            continue;
          }
          traces.clear();
          traces.reserve(rates.size());
          for (double r : rates) {
            trace::RateTrace t;
            t.window_sec = options.duration;
            t.rates = {r};
            traces.push_back(std::move(t));
          }
          auto run = Simulate(*deployment, traces, options);
          results[i] = run.ok() ? Result<bool>(!run->saturated)
                                : Result<bool>(run.status());
        }
      });
  return results;
}

Result<double> SimulatedBoundaryScale(const query::QueryGraph& graph,
                                      const place::Placement& placement,
                                      const place::SystemSpec& system,
                                      const Vector& direction,
                                      const SimulationOptions& options,
                                      const BoundarySearchOptions& search,
                                      const SweepOptions& sweep) {
  if (direction.size() != graph.num_input_streams()) {
    return Status::InvalidArgument("one direction entry per input stream");
  }
  double max_dir = 0.0;
  for (double d : direction) {
    if (d < 0.0 || !std::isfinite(d)) {
      return Status::InvalidArgument("direction must be finite, >= 0");
    }
    max_dir = std::max(max_dir, d);
  }
  if (max_dir <= 0.0) {
    return Status::InvalidArgument("direction must have a positive entry");
  }
  const size_t batch = std::max<size_t>(1, search.batch);

  // Probes `scales` in one parallel round; fails on the first (lowest
  // scale) probe error so the outcome is deterministic.
  std::vector<Vector> points;
  auto probe = [&](std::span<const double> scales) -> Result<std::vector<bool>> {
    points.clear();
    points.reserve(scales.size());
    for (double s : scales) {
      Vector p(direction);
      for (size_t k = 0; k < p.size(); ++k) p[k] *= s;
      points.push_back(std::move(p));
    }
    auto probed = ProbeFeasibleSweep(graph, placement, system, points, options,
                                     sweep);
    std::vector<bool> feasible;
    feasible.reserve(probed.size());
    for (auto& r : probed) {
      if (!r.ok()) return r.status();
      feasible.push_back(*r);
    }
    return feasible;
  };

  double lo = std::max(0.0, search.lo);
  double hi = search.hi;
  std::vector<double> scales(batch);
  if (!(hi > lo)) {
    // Auto-bracket: geometric ladders of `batch` scales per round until
    // an infeasible one appears.
    double s0 = std::max(lo, 1.0);
    bool bracketed = false;
    for (size_t round = 0; round < kMaxBoundaryRounds && !bracketed; ++round) {
      for (size_t j = 0; j < batch; ++j) {
        scales[j] = s0 * std::pow(2.0, static_cast<double>(j));
      }
      auto feasible = probe(scales);
      if (!feasible.ok()) return feasible.status();
      for (size_t j = 0; j < batch; ++j) {
        if (!(*feasible)[j]) {
          hi = scales[j];
          bracketed = true;
          break;
        }
        lo = scales[j];
      }
      s0 = scales[batch - 1] * 2.0;
    }
    if (!bracketed) {
      return Status::FailedPrecondition(
          "no infeasible scale found while bracketing the boundary");
    }
  }

  for (size_t round = 0;
       round < kMaxBoundaryRounds && (hi - lo) > search.rel_tol * hi; ++round) {
    const double step = (hi - lo) / static_cast<double>(batch + 1);
    for (size_t j = 0; j < batch; ++j) {
      scales[j] = lo + step * static_cast<double>(j + 1);
    }
    auto feasible = probe(scales);
    if (!feasible.ok()) return feasible.status();
    // Longest feasible prefix: simulation noise past the first
    // infeasible grid point is ignored, keeping the bracket — and the
    // final answer — a pure function of the probed grid.
    size_t first_bad = batch;
    for (size_t j = 0; j < batch; ++j) {
      if (!(*feasible)[j]) {
        first_bad = j;
        break;
      }
    }
    if (first_bad > 0) lo = scales[first_bad - 1];
    if (first_bad < batch) hi = scales[first_bad];
  }
  return lo;
}

}  // namespace rod::sim
