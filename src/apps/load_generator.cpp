#include "apps/load_generator.hpp"

#include <limits>

#include "common/assert.hpp"

namespace xartrek::apps {

LoadGenerator::LoadGenerator(platform::Testbed& testbed, int processes,
                             Options opts)
    : testbed_(testbed), processes_(processes), opts_(opts) {
  XAR_EXPECTS(processes >= 0);
  XAR_EXPECTS(opts_.run_demand > Duration::zero());
  XAR_EXPECTS(opts_.demand_jitter >= 0.0);
  // Batched bookkeeping: ONE process-table update (and, for cluster
  // sweeps, one job-pool reservation) for the whole cohort, then one
  // O(log n) submit per job -- nothing else scales with the count.  The
  // runs are processor-sharing jobs, which hold no event-heap slot.
  testbed_.x86().attach_processes(processes);
  if (opts_.reserve) {
    testbed_.x86().reserve_jobs(static_cast<std::size_t>(processes) + 16);
  }
  lanes_.resize(static_cast<std::size_t>(processes));
  for (std::uint32_t lane = 0;
       lane < static_cast<std::uint32_t>(processes); ++lane) {
    spawn(lane);
  }
}

Duration LoadGenerator::lane_demand(std::uint32_t lane) const {
  if (opts_.demand_jitter == 0.0) return opts_.run_demand;
  return opts_.run_demand * (1.0 + opts_.demand_jitter *
                                       static_cast<double>(lane % 8191) /
                                       8191.0);
}

void LoadGenerator::spawn(std::uint32_t lane) {
  // Each completed MG-B run immediately starts the next (the paper keeps
  // the n background instances alive throughout the measurement).  The
  // callback carries its spawn generation; after stop() bumps it, a
  // straggler that somehow survived the cancel sweep reads as inert
  // instead of resurrecting the loop.  {this, lane, gen} is trivially
  // copyable and fits the engine's inline buffer: no allocation.
  const std::uint32_t gen = generation_;
  lanes_[lane] = testbed_.x86().run(lane_demand(lane), [this, lane, gen] {
    if (gen != generation_) return;
    spawn(lane);
  });
}

void LoadGenerator::stop() {
  if (!running_) return;
  running_ = false;
  ++generation_;  // invalidate every parked respawn token
  for (auto id : lanes_) {
    testbed_.x86().cancel(id);  // false for a just-finished run: its
                                // respawn token is stale anyway
  }
  lanes_.clear();
  testbed_.x86().detach_processes(processes_);
}

// --- ShardedLoadGenerator ---------------------------------------------------

ShardedLoadGenerator::ShardedLoadGenerator(
    std::vector<platform::Testbed*> cells, std::uint64_t total_jobs,
    Options opts)
    : total_(total_jobs) {
  XAR_EXPECTS(!cells.empty());
  LoadGenerator::Options cell_opts;
  cell_opts.run_demand = opts.run_demand;
  cell_opts.demand_jitter = opts.demand_jitter;
  cell_opts.reserve = opts.reserve;
  const std::uint64_t n = cells.size();
  cells_.reserve(n);
  for (std::uint64_t c = 0; c < n; ++c) {
    const std::uint64_t jobs = total_jobs / n + (c < total_jobs % n ? 1 : 0);
    XAR_EXPECTS(jobs <= std::numeric_limits<int>::max());
    cells_.push_back(std::make_unique<LoadGenerator>(
        *cells[c], static_cast<int>(jobs), cell_opts));
  }
}

void ShardedLoadGenerator::stop() {
  for (auto& cell : cells_) cell->stop();
}

}  // namespace xartrek::apps
