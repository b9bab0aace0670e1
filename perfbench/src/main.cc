// Copyright (c) the ROD reproduction authors.
//
// perfbench --workload <place|steady|overload|boundary> --seed <n>
//           --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Runs one process's share of a benchmark run and prints two lines on
// stdout: provenance, then the process report (raw step and set-up
// samples, the deterministic fingerprint, per-layer metrics).
// perfbench/run.py pools the reports of several processes into the result
// line. Exit code 0 on a completed run, 1 on an error (nothing printed on
// stdout), 2 on bad arguments.

#include <iostream>
#include <string>

#include "harness.h"

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (a + 1 >= argc) {
      std::cerr << "perfbench: missing value for " << arg << "\n";
      return 2;
    }
    const std::string value = argv[++a];
    try {
      if (arg == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
      } else if (arg == "--trace") {
        config.trace = std::stoi(value) != 0;
      } else if (arg == "--out-dir") {
        config.out_dir = value;
      } else {
        std::cerr << "perfbench: unknown argument " << arg << "\n";
        return 2;
      }
    } catch (const std::exception&) {
      std::cerr << "perfbench: bad value for " << arg << ": " << value << "\n";
      return 2;
    }
  }
  if (!have_workload) {
    std::cerr << "perfbench: --workload is required\n";
    return 2;
  }
  const auto report = perfbench::Run(config);
  if (!report.ok()) {
    std::cerr << "perfbench: " << report.status().ToString() << "\n";
    return 1;
  }
  perfbench::PrintReport(config, *report, std::cout);
  return 0;
}
