// Copyright (c) the ROD reproduction authors.
//
// Perf baseline of the feasible-set volume engine. Sweeps dims x nodes x
// samples x threads over ROD-placed weight matrices — once per membership
// kernel path (AVX2 and forced-scalar, when the build and CPU support
// both) — and measures kernel throughput (samples/sec), the speedup over
// 1 thread, bit-exact agreement between the parallel and sequential
// estimates and between the SIMD and scalar paths, and the sample-cache
// cold (generate) vs warm (reuse) cost. Emits a machine-readable JSON
// baseline (fields documented in docs/BENCH_VOLUME.md) so later PRs can
// regress against it.
//
//   bench_volume_perf [--smoke] [--json=PATH] [--trace=PATH]
//                     [--threads=1,2,4,8] [--min-simd-speedup=X]
//
// --smoke shrinks the sweep for CI; --json defaults to BENCH_volume.json.
// --min-simd-speedup=X exits non-zero unless the SIMD path beats the
// scalar path by at least X at the largest single-threaded workload
// (skipped with a note when the SIMD path is unavailable, e.g. under
// ROD_DISABLE_SIMD). --trace attaches a telemetry sink to the shared
// thread pool and exports a Chrome trace of the pool's task spans (note:
// the per-task spans add measurable overhead, so trace-enabled throughput
// numbers are not comparable to the committed baseline).

#include <chrono>
#include <fstream>
#include <iostream>
#include <cstdint>
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
  size_t dims, nodes, samples, threads, reps;
  std::string simd_path;  ///< kernel path this row ran on: "avx2"/"scalar"
  double ratio = 0.0;
  double seconds = 0.0;
  double samples_per_sec = 0.0;
  double speedup_vs_1 = 0.0;
  bool bitexact_vs_seq = false;
  /// SIMD and scalar paths agree on the estimate (trivially true on the
  /// scalar rows; checked against the scalar run on the SIMD rows).
  bool bitexact_vs_scalar = false;
  /// SIMD-path throughput over the scalar path at the same
  /// (dims, nodes, samples, threads); 0 on scalar rows.
  double simd_speedup_vs_scalar = 0.0;
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
    w.Key("threads").Uint(m.threads);
    w.Key("reps").Uint(m.reps);
    w.Key("simd_path").String(m.simd_path);
    w.Key("ratio").Double(m.ratio);
    w.Key("seconds").Double(m.seconds);
    w.Key("samples_per_sec").Double(m.samples_per_sec);
    w.Key("speedup_vs_1").Double(m.speedup_vs_1);
    w.Key("bitexact_vs_seq").Bool(m.bitexact_vs_seq);
    w.Key("bitexact_vs_scalar").Bool(m.bitexact_vs_scalar);
    w.Key("simd_speedup_vs_scalar").Double(m.simd_speedup_vs_scalar);
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
  // The results baseline owns --json; the session only exports --trace
  // (pool task spans — the volume kernel itself runs inside pool chunks).
  bench::TelemetrySession telemetry(flags, /*owns_json=*/false);
  bool smoke = false;
  double min_simd_speedup = 0.0;
  std::string out_path = flags.json_path.empty()
                             ? std::string("BENCH_volume.json")
                             : flags.json_path;
  std::vector<size_t> threads_list;
  for (const std::string& arg : flags.rest) {
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads_list = bench::ParseThreadList(arg.substr(10));
    } else if (arg.rfind("--min-simd-speedup=", 0) == 0) {
      min_simd_speedup = std::stod(arg.substr(19));
    } else {
      std::cerr << "usage: bench_volume_perf [--smoke] [--json=PATH] "
                   "[--trace=PATH] [--threads=1,2,4,8] "
                   "[--min-simd-speedup=X]\n";
      return 2;
    }
  }
  if (threads_list.empty()) {
    threads_list = smoke ? std::vector<size_t>{1, 2}
                         : std::vector<size_t>{1, 2, 4, 8};
  }

  const std::vector<Workload> workloads =
      smoke ? std::vector<Workload>{{3, 5}, {6, 20}}
            : std::vector<Workload>{{3, 5}, {6, 20}, {10, 20}};
  const std::vector<size_t> sample_counts =
      smoke ? std::vector<size_t>{8192} : std::vector<size_t>{16384, 32768};
  // Samples evaluated per timed measurement (reps = target / samples).
  const size_t target_evals = smoke ? (1u << 17) : (1u << 22);

  // Kernel paths to sweep: the runtime-dispatched SIMD path first (when
  // compiled in, supported by this CPU, and not vetoed by
  // ROD_DISABLE_SIMD — the env veto is respected, which is what the CI
  // forced-scalar job relies on), then forced-scalar for the comparison
  // rows.
  const bool simd_available = geom::SimdKernelEnabled();
  std::vector<bool> simd_modes;
  if (simd_available) simd_modes.push_back(true);
  simd_modes.push_back(false);

  bench::Banner("volume-engine perf sweep (dims x nodes x samples x threads)");
  bench::Table table({"path", "dims", "nodes", "samples", "threads",
                      "Msamples/s", "speedup", "vs scalar", "bitexact",
                      "cold ms", "warm ms"});
  std::vector<Measurement> rows;
  bool all_bitexact = true;
  // SIMD-vs-scalar throughput at the largest workload, threads_list[0]
  // (single-threaded when the default list is used): the gate metric.
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

      const size_t reps = std::max<size_t>(1, target_evals / samples);
      // Scalar-path results of this (samples) block, keyed by position in
      // threads_list, for the SIMD rows' vs-scalar columns. The scalar
      // pass runs last, so compare SIMD rows retroactively.
      std::vector<size_t> simd_rows(threads_list.size(), SIZE_MAX);
      for (bool use_simd : simd_modes) {
        geom::SetSimdKernelEnabled(use_simd);
        double base_sps = 0.0;
        double seq_ratio = 0.0;
        for (size_t ti = 0; ti < threads_list.size(); ++ti) {
          const size_t threads = threads_list[ti];
          vol.num_threads = threads;
          (void)fs.RatioToIdeal(vol);  // warm the global cache / pool
          double ratio = 0.0;
          const auto t0 = std::chrono::steady_clock::now();
          for (size_t r = 0; r < reps; ++r) ratio = fs.RatioToIdeal(vol);
          const double secs = SecondsSince(t0);
          Measurement m;
          m.dims = w.dims;
          m.nodes = w.nodes;
          m.samples = samples;
          m.threads = threads;
          m.reps = reps;
          m.simd_path = geom::ActiveSimdIsa();
          m.ratio = ratio;
          m.seconds = secs;
          m.samples_per_sec =
              static_cast<double>(samples) * static_cast<double>(reps) / secs;
          if (ti == 0) {
            base_sps = m.samples_per_sec;
            seq_ratio = ratio;
          }
          m.speedup_vs_1 = m.samples_per_sec / base_sps;
          m.bitexact_vs_seq = (ratio == seq_ratio);
          m.bitexact_vs_scalar = !use_simd;  // SIMD rows fixed below
          m.cache_cold_ms = cold_ms;
          m.cache_warm_ms = warm_ms;
          rows.push_back(m);
          if (use_simd) {
            simd_rows[ti] = rows.size() - 1;
          } else if (simd_rows[ti] != SIZE_MAX) {
            Measurement& sm = rows[simd_rows[ti]];
            sm.bitexact_vs_scalar = (sm.ratio == m.ratio);
            sm.simd_speedup_vs_scalar = sm.samples_per_sec / m.samples_per_sec;
            if (ti == 0 && w.dims == workloads.back().dims &&
                w.nodes == workloads.back().nodes &&
                samples == sample_counts.back()) {
              gate_simd_speedup = sm.simd_speedup_vs_scalar;
            }
          }
          all_bitexact = all_bitexact && m.bitexact_vs_seq;
        }
      }
      for (const Measurement& m : rows) {
        if (m.dims != w.dims || m.nodes != w.nodes || m.samples != samples) {
          continue;
        }
        all_bitexact = all_bitexact && m.bitexact_vs_scalar;
        table.AddRow({m.simd_path, std::to_string(m.dims),
                      std::to_string(m.nodes), std::to_string(m.samples),
                      std::to_string(m.threads),
                      bench::Fmt(m.samples_per_sec / 1e6, 1),
                      bench::Fmt(m.speedup_vs_1, 2),
                      m.simd_speedup_vs_scalar > 0.0
                          ? bench::Fmt(m.simd_speedup_vs_scalar, 2)
                          : std::string("-"),
                      m.bitexact_vs_seq && m.bitexact_vs_scalar ? "yes" : "NO",
                      bench::Fmt(m.cache_cold_ms, 2),
                      bench::Fmt(m.cache_warm_ms, 4)});
      }
    }
  }
  geom::SetSimdKernelEnabled(simd_available);  // restore dispatch state
  table.Print();
  std::cout << "\nparallel/sequential and simd/scalar estimates bit-exact: "
            << (all_bitexact ? "yes" : "NO") << "\n";

  bool simd_ok = true;
  if (min_simd_speedup > 0.0) {
    if (!simd_available) {
      std::cout << "--min-simd-speedup skipped: SIMD path unavailable\n";
    } else {
      simd_ok = gate_simd_speedup >= min_simd_speedup;
      std::cout << "simd speedup gate: " << bench::Fmt(gate_simd_speedup, 2)
                << (simd_ok ? " >= " : " BELOW FLOOR ")
                << bench::Fmt(min_simd_speedup, 2) << "\n";
    }
  }

  WriteJson(out_path, smoke ? "smoke" : "full", simd_available, rows);
  std::cout << "wrote " << out_path << " (" << rows.size() << " entries)\n";
  return all_bitexact && simd_ok ? 0 : 1;
}
