// Step G -- threshold estimation.
//
// For each application, in isolation (paper §3.1):
//   1. measure the total execution time in the two migration scenarios,
//      x86-to-ARM and x86-to-FPGA, *with* all communication overhead
//      ("in locus"), and the plain-x86 time -- Table 1;
//   2. re-run the application on x86 while increasing the CPU load
//      (by launching additional instances of the same application)
//      until its execution time exceeds each recorded scenario time;
//   3. record those crossing loads as FPGA_THR and ARM_THR -- Table 2.
//
// A threshold of 0 means the scenario beats plain x86 even on an idle
// machine (the FPGA-favoured applications); a threshold equal to
// `max_load` means the scenario never won within the sweep.
#pragma once

#include <string>
#include <vector>

#include "apps/benchmark_spec.hpp"
#include "common/time.hpp"
#include "runtime/threshold_table.hpp"

namespace xartrek::exp {

/// Per-application estimation record (one Table 1 + Table 2 row).
struct EstimationRow {
  std::string app;
  std::string kernel;
  Duration x86_exec = Duration::zero();   // Table 1 "Vanilla Linux"
  Duration fpga_exec = Duration::zero();  // Table 1 "Xar-Trek x86/FPGA"
  Duration arm_exec = Duration::zero();   // Table 1 "Xar-Trek x86/ARM"
  int fpga_threshold = 0;                 // Table 2 FPGA_THR
  int arm_threshold = 0;                  // Table 2 ARM_THR
};

/// The estimation output: the seed table the run-time consumes plus the
/// per-application rows the paper tabulates.
struct EstimationResult {
  runtime::ThresholdTable table;
  std::vector<EstimationRow> rows;
};

/// The estimator.
class ThresholdEstimator {
 public:
  struct Options {
    int max_load = 128;  ///< sweep ceiling (processes)
  };

  ThresholdEstimator() : ThresholdEstimator(Options()) {}
  explicit ThresholdEstimator(Options opts) : opts_(opts) {}

  /// Run scenarios + sweeps for every benchmark, compiling the suite
  /// once.  Deterministic.
  [[nodiscard]] EstimationResult estimate(
      const std::vector<apps::BenchmarkSpec>& specs) const;

  /// Measure one scenario time in isolation (exposed for tests; compiles
  /// the suite per call).
  [[nodiscard]] Duration scenario_time(
      const std::vector<apps::BenchmarkSpec>& specs, const std::string& app,
      runtime::Target target) const;

  /// Measure the app's x86 time with `load` total resident processes
  /// (itself + load-1 instances of the same application).
  [[nodiscard]] Duration x86_time_under_load(
      const std::vector<apps::BenchmarkSpec>& specs, const std::string& app,
      int load) const;

 private:
  Options opts_;
};

}  // namespace xartrek::exp
