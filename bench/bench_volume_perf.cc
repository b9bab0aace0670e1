// Copyright (c) the ROD reproduction authors.
//
// Perf baseline of the feasible-set volume engine. Sweeps dims x nodes x
// samples over ROD-placed weight matrices — once per membership kernel
// path (AVX2 and forced-scalar, when the build and CPU support both) —
// and measures kernel throughput (samples/sec) as a per-rep median with
// its min and max, the SIMD-over-scalar speedup per rep, bit-exact
// agreement between the SIMD and scalar estimates, and the sample-cache
// cold (generate) vs warm (reuse) cost. Emits a machine-readable JSON
// baseline (fields documented in docs/BENCH_VOLUME.md) so later PRs can
// regress against it.
//
//   bench_volume_perf [--smoke] [--json=PATH] [--min-simd-speedup=X]
//
// --smoke shrinks the sweep for CI; --json defaults to BENCH_volume.json.
// --min-simd-speedup=X exits non-zero unless the median per-rep SIMD
// speedup over the scalar path at the largest workload is at least X
// (skipped with a note when the SIMD path is unavailable, e.g. under
// ROD_DISABLE_SIMD).

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "geometry/feasible_set.h"
#include "geometry/hyperplane.h"
#include "geometry/sample_cache.h"
#include "geometry/simd_kernel.h"
#include "placement/plan.h"
#include "placement/rod.h"
#include "telemetry/json_writer.h"

namespace {

using namespace rod;

struct Workload {
  size_t dims = 0;
  size_t nodes = 0;
};

struct Measurement {
  size_t dims, nodes, samples, calls, reps;
  std::string simd_path;  ///< kernel path this row ran on: "avx2"/"scalar"
  double ratio = 0.0;
  bench::Spread samples_per_sec;  ///< Per rep: samples * calls / seconds.
  /// SIMD and scalar paths agree on the estimate (trivially true on the
  /// scalar rows; checked against the scalar run on the SIMD rows).
  bool bitexact_vs_scalar = false;
  /// Per rep: SIMD-path throughput over the scalar path at the same
  /// (dims, nodes, samples); zeros on scalar rows.
  bench::Spread simd_speedup_vs_scalar;
  double cache_cold_ms = 0.0;
  double cache_warm_ms = 0.0;
};

/// A representative evaluator input: random operator load coefficients
/// (each operator mostly loads one stream), ROD-placed on a homogeneous
/// cluster — the exact shape every bench sweep feeds the estimator.
geom::FeasibleSet MakeWorkload(const Workload& w, uint64_t seed) {
  const size_t m = 6 * w.nodes;
  Matrix op_coeffs(m, w.dims);
  Rng rng(seed);
  for (size_t j = 0; j < m; ++j) {
    op_coeffs(j, j % w.dims) = rng.Uniform(0.5, 2.0);
    for (size_t k = 0; k < w.dims; ++k) {
      if (k != j % w.dims && rng.Bernoulli(0.3)) {
        op_coeffs(j, k) = rng.Uniform(0.05, 0.4);
      }
    }
  }
  Vector totals(w.dims, 0.0);
  for (size_t j = 0; j < m; ++j) {
    for (size_t k = 0; k < w.dims; ++k) totals[k] += op_coeffs(j, k);
  }
  const place::SystemSpec system = place::SystemSpec::Homogeneous(w.nodes);
  auto placement = place::RodPlaceMatrix(op_coeffs, totals, system);
  ROD_CHECK_OK(placement.status());
  auto weights = geom::ComputeWeightMatrix(placement->NodeCoeffs(op_coeffs),
                                           totals, system.capacities);
  ROD_CHECK_OK(weights.status());
  return geom::FeasibleSet(std::move(*weights));
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void WriteJson(const std::string& path, const std::string& mode,
               bool simd_available, const std::vector<Measurement>& rows) {
  std::ofstream out(path);
  telemetry::JsonWriter w(out);
  w.BeginObject();
  w.Key("bench").String("bench_volume_perf");
  w.Key("mode").String(mode);
  bench::WriteBuildMetadata(w);
  w.Key("simd_available").Bool(simd_available);
  w.Key("hardware_concurrency")
      .Uint(std::max(1u, std::thread::hardware_concurrency()));
  w.Key("entries").BeginArray();
  for (const Measurement& m : rows) {
    w.BeginObjectInline();
    w.Key("dims").Uint(m.dims);
    w.Key("nodes").Uint(m.nodes);
    w.Key("samples").Uint(m.samples);
    w.Key("calls").Uint(m.calls);
    w.Key("reps").Uint(m.reps);
    w.Key("simd_path").String(m.simd_path);
    w.Key("ratio").Double(m.ratio);
    bench::WriteSpread(w, "samples_per_sec", m.samples_per_sec);
    w.Key("bitexact_vs_scalar").Bool(m.bitexact_vs_scalar);
    bench::WriteSpread(w, "simd_speedup_vs_scalar", m.simd_speedup_vs_scalar);
    w.Key("cache_cold_ms").Double(m.cache_cold_ms);
    w.Key("cache_warm_ms").Double(m.cache_warm_ms);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  out << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchFlags flags = bench::ParseBenchFlags(argc, argv);
  bool smoke = false;
  double min_simd_speedup = 0.0;
  std::string out_path = flags.json_path.empty()
                             ? std::string("BENCH_volume.json")
                             : flags.json_path;
  bool usage_error = !flags.trace_path.empty() || flags.serve ||
                     !flags.flightrecorder_path.empty();
  for (const std::string& arg : flags.rest) {
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--min-simd-speedup=", 0) == 0) {
      min_simd_speedup = std::stod(arg.substr(19));
    } else {
      usage_error = true;
    }
  }
  if (usage_error) {
    std::cerr << "usage: bench_volume_perf [--smoke] [--json=PATH] "
                 "[--min-simd-speedup=X]\n";
    return 2;
  }

  const std::vector<Workload> workloads =
      smoke ? std::vector<Workload>{{3, 5}, {6, 20}}
            : std::vector<Workload>{{3, 5}, {6, 20}, {10, 20}};
  const std::vector<size_t> sample_counts =
      smoke ? std::vector<size_t>{8192} : std::vector<size_t>{16384, 32768};
  // Samples evaluated per timed rep (calls = target / samples).
  const size_t target_evals = smoke ? (1u << 17) : (1u << 22);
  const size_t reps = smoke ? 5 : 7;

  // Kernel paths to time: the runtime-dispatched SIMD path (when compiled
  // in, supported by this CPU, and not vetoed by ROD_DISABLE_SIMD — the
  // env veto is respected, which is what the CI forced-scalar job relies
  // on), then forced-scalar for the comparison rows.
  const bool simd_available = geom::SimdKernelEnabled();
  std::vector<bool> simd_modes;
  if (simd_available) simd_modes.push_back(true);
  simd_modes.push_back(false);

  bench::Banner("volume-engine perf sweep (dims x nodes x samples)");
  bench::Table table({"path", "dims", "nodes", "samples",
                      "Msamples/s [min,max]", "vs scalar [min,max]",
                      "bitexact", "cold ms", "warm ms"});
  std::vector<Measurement> rows;
  bool all_bitexact = true;
  // Median per-rep SIMD-over-scalar speedup at the largest workload: the
  // gate metric.
  double gate_simd_speedup = 0.0;

  for (const Workload& w : workloads) {
    const geom::FeasibleSet fs = MakeWorkload(w, /*seed=*/42);
    for (size_t samples : sample_counts) {
      geom::VolumeOptions vol;
      vol.num_samples = samples;

      // Cold vs warm cache cost for this (dims, samples) key: generation
      // (miss) against a lookup returning the shared buffer (hit).
      geom::SimplexSampleCache fresh(4);
      geom::SimplexSampleKey key;
      key.dims = w.dims;
      key.num_samples = samples;
      auto t_cold = std::chrono::steady_clock::now();
      (void)fresh.Get(key);
      const double cold_ms = SecondsSince(t_cold) * 1e3;
      auto t_warm = std::chrono::steady_clock::now();
      (void)fresh.Get(key);
      const double warm_ms = SecondsSince(t_warm) * 1e3;

      // The paths are timed alternately within each rep, so the per-rep
      // speedup sees the same host drift on both sides.
      const size_t calls = std::max<size_t>(1, target_evals / samples);
      std::vector<std::vector<double>> sps(simd_modes.size());
      std::vector<double> ratios(simd_modes.size(), 0.0);
      for (size_t p = 0; p < simd_modes.size(); ++p) {
        geom::SetSimdKernelEnabled(simd_modes[p]);
        (void)fs.RatioToIdeal(vol);  // warm the global cache
      }
      for (size_t rep = 0; rep < reps; ++rep) {
        for (size_t p = 0; p < simd_modes.size(); ++p) {
          geom::SetSimdKernelEnabled(simd_modes[p]);
          const auto t0 = std::chrono::steady_clock::now();
          for (size_t c = 0; c < calls; ++c) ratios[p] = fs.RatioToIdeal(vol);
          sps[p].push_back(static_cast<double>(samples) *
                           static_cast<double>(calls) / SecondsSince(t0));
        }
      }
      const size_t scalar = simd_modes.size() - 1;
      for (size_t p = 0; p < simd_modes.size(); ++p) {
        geom::SetSimdKernelEnabled(simd_modes[p]);
        Measurement m;
        m.dims = w.dims;
        m.nodes = w.nodes;
        m.samples = samples;
        m.calls = calls;
        m.reps = reps;
        m.simd_path = geom::ActiveSimdIsa();
        m.ratio = ratios[p];
        m.samples_per_sec = bench::SpreadOf(sps[p]);
        m.bitexact_vs_scalar = ratios[p] == ratios[scalar];
        if (p != scalar) {
          std::vector<double> speedups;
          for (size_t rep = 0; rep < reps; ++rep) {
            speedups.push_back(sps[p][rep] / sps[scalar][rep]);
          }
          m.simd_speedup_vs_scalar = bench::SpreadOf(speedups);
          if (w.dims == workloads.back().dims &&
              w.nodes == workloads.back().nodes &&
              samples == sample_counts.back()) {
            gate_simd_speedup = m.simd_speedup_vs_scalar.median;
          }
        }
        m.cache_cold_ms = cold_ms;
        m.cache_warm_ms = warm_ms;
        all_bitexact = all_bitexact && m.bitexact_vs_scalar;
        rows.push_back(m);
        bench::Spread msps = m.samples_per_sec;
        msps.median /= 1e6;
        msps.min /= 1e6;
        msps.max /= 1e6;
        table.AddRow({m.simd_path, std::to_string(m.dims),
                      std::to_string(m.nodes), std::to_string(m.samples),
                      bench::FmtSpread(msps, 1),
                      p != scalar
                          ? bench::FmtSpread(m.simd_speedup_vs_scalar, 2)
                          : std::string("-"),
                      m.bitexact_vs_scalar ? "yes" : "NO",
                      bench::Fmt(m.cache_cold_ms, 2),
                      bench::Fmt(m.cache_warm_ms, 4)});
      }
    }
  }
  geom::SetSimdKernelEnabled(simd_available);  // restore dispatch state
  table.Print();
  std::cout << "\nsimd/scalar estimates bit-exact: "
            << (all_bitexact ? "yes" : "NO") << "\n";

  bool simd_ok = true;
  if (min_simd_speedup > 0.0) {
    if (!simd_available) {
      std::cout << "--min-simd-speedup skipped: SIMD path unavailable\n";
    } else {
      simd_ok = gate_simd_speedup >= min_simd_speedup;
      std::cout << "median simd speedup gate: "
                << bench::Fmt(gate_simd_speedup, 2)
                << (simd_ok ? " >= " : " BELOW FLOOR ")
                << bench::Fmt(min_simd_speedup, 2) << "\n";
    }
  }

  WriteJson(out_path, smoke ? "smoke" : "full", simd_available, rows);
  std::cout << "wrote " << out_path << " (" << rows.size() << " entries)\n";
  return all_bitexact && simd_ok ? 0 : 1;
}
