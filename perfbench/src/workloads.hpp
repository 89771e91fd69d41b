// The benchmark's workloads.  Each returns its metrics and its job
// counts, or throws CheckFailed when an output check fails.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/benchmark_spec.hpp"
#include "common.hpp"
#include "exp/threshold_estimator.hpp"

namespace xbench {

struct Outcome {
  std::uint64_t attempted = 0;  ///< jobs submitted over the measured phase
  std::uint64_t failed = 0;     ///< ...not completed within the horizon
  /// Determinism digest of the outputs (event counts, completion times,
  /// figure results): equal across runs of one seed and mode.
  std::uint64_t digest = 0;
  Metrics metrics;
};

/// `paper_figs`: the exp/figures.hpp runners at the bench/fig* configs.
Outcome run_paper_figs(const Options& opts);

/// `cluster_churn` (gray = false) and `cluster_gray` (gray = true).
Outcome run_cluster(const Options& opts, bool gray);

// --- shared between workloads -----------------------------------------

/// The five paper benchmarks.
const std::vector<xartrek::apps::BenchmarkSpec>& suite();

/// One step-G estimation over suite().
xartrek::exp::EstimationResult estimate_thresholds();

/// Run the paper-figure sweeps of `seed` (one per harness seed split
/// from it), untimed, and emit their mean fidelity values (figN.*,
/// table2.*, claim.*).  The cluster workloads call it so every workload
/// reports the model's paper fidelity.
void emit_fidelity(std::uint64_t seed, bool smoke,
                   const xartrek::exp::EstimationResult& estimation,
                   Metrics& m);

/// Repeated host timings of XarCompiler::compile and exp::Experiment
/// construction on suite() (traced runs), each call under a host span.
void emit_build_timings(const xartrek::exp::EstimationResult& estimation,
                        bool smoke, HostTracer& tracer, Metrics& m);

}  // namespace xbench
