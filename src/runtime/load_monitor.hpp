// x86 CPU-load monitor.
//
// Algorithm 2 line 3: "Start timer to read x86LOAD".  The scheduler
// server does not inspect the run queue at decision time; it uses the
// last timer sample, exactly like the real implementation reads a
// periodically-refreshed load figure.  Load is the paper's metric: the
// number of resident processes on the x86 server (Table 3).  The timer
// is the simulation's sampler lane, so its ticks cost no event-heap
// traffic.
#pragma once

#include "common/time.hpp"
#include "hw/cpu_cluster.hpp"
#include "sim/simulation.hpp"

namespace xartrek::runtime {

/// Periodic sampler of an x86 cluster's process count.
class LoadMonitor {
 public:
  /// Starts sampling immediately and then every `period`.  The default
  /// is fine enough that a just-launched application is visible to the
  /// very next placement decision (the paper counts every running
  /// application instantly in its load figure).
  LoadMonitor(sim::Simulation& sim, const hw::CpuCluster& x86,
              Duration period = Duration::ms(10.0));
  LoadMonitor(const LoadMonitor&) = delete;
  LoadMonitor& operator=(const LoadMonitor&) = delete;

  /// The last sampled x86 load.
  [[nodiscard]] int x86_load() const { return last_sample_; }

  /// Samples taken so far (tests).
  [[nodiscard]] std::uint64_t samples() const { return samples_; }

  [[nodiscard]] Duration period() const { return period_; }

 private:
  /// Record the load for `ticks` consecutive timer ticks.
  void sample(std::uint64_t ticks);

  const hw::CpuCluster& x86_;
  Duration period_;
  int last_sample_ = 0;
  std::uint64_t samples_ = 0;
  sim::Simulation::SamplerHandle timer_;
};

}  // namespace xartrek::runtime
