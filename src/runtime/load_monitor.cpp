#include "runtime/load_monitor.hpp"

namespace xartrek::runtime {

LoadMonitor::LoadMonitor(sim::Simulation& sim, const hw::CpuCluster& x86,
                         Duration period)
    : x86_(x86), period_(period) {
  XAR_EXPECTS(period > Duration::zero());
  sample(1);
  timer_ = sim.start_sampler(
      period, [this](std::uint64_t ticks) { sample(ticks); });
}

void LoadMonitor::sample(std::uint64_t ticks) {
  last_sample_ = x86_.load();
  samples_ += ticks;
}

}  // namespace xartrek::runtime
