// Copyright (c) the ROD reproduction authors.
//
// Shared main() for the google-benchmark micro benches: strips the
// repo-standard flags (--json/--trace/--serve/--flightrecorder, wired
// through a TelemetrySession like every other bench binary) and hands
// whatever remains to the benchmark library's own parser, so
// --benchmark_filter and friends keep working:
//
//   bench_micro_rod --json=m1.json --benchmark_filter=BM_RodPlace
//
// The session attaches its sink to the shared thread pool, so pool tasks
// run by a benchmark (e.g. a sweep) show up in the exported trace; export
// happens after RunSpecifiedBenchmarks returns, satisfying the exporters'
// quiescence requirement.

#ifndef ROD_BENCH_BENCH_MICRO_MAIN_H_
#define ROD_BENCH_BENCH_MICRO_MAIN_H_

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_util.h"

namespace rod::bench {

inline int MicroBenchMain(int argc, char** argv) {
  BenchFlags flags = ParseBenchFlags(argc, argv);
  TelemetrySession session(flags);
  session.set_ready(true);

  // Rebuild an argv holding only the flags we did not consume;
  // flags.rest owns the storage for the remainder of main.
  std::vector<char*> bench_argv;
  bench_argv.push_back(argv[0]);
  for (std::string& arg : flags.rest) bench_argv.push_back(arg.data());
  int bench_argc = static_cast<int>(bench_argv.size());

  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace rod::bench

#define ROD_MICRO_BENCH_MAIN()                              \
  int main(int argc, char** argv) {                         \
    return ::rod::bench::MicroBenchMain(argc, argv);        \
  }

#endif  // ROD_BENCH_BENCH_MICRO_MAIN_H_
