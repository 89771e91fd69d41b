// Golden trace digests for the cluster's fault paths, each folded into
// one FNV-1a digest.
//
//   * The cross-cell storm: a fixed 4-cell gray storm (a cell kill, a
//     degraded and corrupting ring link, a partition) plus periodic
//     handoff pumps, over executed events, per-job completion instants,
//     handoff arrivals and the recovery counters.
//   * The health storm: two slowed cells under background load -- one
//     goes gray but never dies, the other loses every heartbeat race,
//     is evicted, then reinstated and healed -- over executed events,
//     per-job completion instants and every cell's health and
//     placement counters.  It pins the FPGA health state machine's
//     gray, probing and reinstatement paths and what Algorithm 2
//     placed around them.
//
// Refactors of the transport, drain, fault or health layers must keep
// these constants; a change that moves the trace on purpose records the
// new value here and says why.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "apps/benchmark_spec.hpp"
#include "common/hash.hpp"
#include "exp/cluster.hpp"
#include "exp/threshold_estimator.hpp"
#include "sim/fault.hpp"

namespace xartrek {
namespace {

constexpr std::size_t kCells = 4;

/// storm_digest's value; see the header before changing it.
constexpr std::uint64_t kGoldenDigest = 0x871e4d1280557b5bull;

/// health_storm_digest's value; see the header before changing it.
constexpr std::uint64_t kHealthDigest = 0x33ca2ee2e8c5126aull;

const runtime::ThresholdTable& shared_table() {
  static const exp::EstimationResult result =
      exp::ThresholdEstimator().estimate(apps::paper_benchmarks());
  return result.table;
}

/// Ships a 64 KiB image to the ring neighbor every 5 ms until `stop`;
/// each arrival is logged on the neighbor's shard, in that shard's
/// own vector, so parallel runs touch no shared state.
struct Pump {
  exp::ClusterExperiment* cluster = nullptr;
  std::size_t cell = 0;
  TimePoint stop;
  std::vector<std::vector<double>>* arrivals = nullptr;
  void fire() {
    const std::size_t dst = cluster->handoff_target(cell);
    cluster->handoff(cell, 64 * 1024, [this, dst] {
      (*arrivals)[dst].push_back(cluster->cell(dst).simulation().now().to_ms());
    });
    sim::Simulation& sim = cluster->cell(cell).simulation();
    if (sim.now() + Duration::ms(5.0) < stop) {
      sim.schedule_in(Duration::ms(5.0), [this] { fire(); });
    }
  }
};

std::uint64_t storm_digest(bool parallel) {
  exp::ClusterSpec spec;
  spec.cells = kCells;
  spec.parallel = parallel;
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::ClusterExperiment cluster(apps::paper_benchmarks(), shared_table(),
                                 spec, options);
  for (std::size_t c = 0; c < kCells; ++c) {
    cluster.submit(c, "facedet320");
    cluster.submit(c, "digit500");
  }
  cluster.submit(1, "facedet320");
  cluster.submit(1, "facedet320");
  cluster.submit(1, "digit500");

  // Cell 1 dies with its drain path (ring link 1) lossy and corrupting;
  // ring link 2 partitions while its pump is running.  The pumps keep
  // off link 1, so the storm's drains and the handoffs never meet.
  using K = sim::FaultEvent::Kind;
  sim::FaultPlan plan;
  plan.add({K::kLinkDegraded, TimePoint::at_ms(20.0), 1, 0.3,
            TimePoint::at_ms(300.0)});
  plan.add({K::kDsmCorrupt, TimePoint::at_ms(20.0), 1, 0.5,
            TimePoint::at_ms(300.0)});
  plan.add({K::kLinkDown, TimePoint::at_ms(30.0), 2, 0.0, TimePoint{}});
  plan.add({K::kCellKill, TimePoint::at_ms(50.0), 1, 0.0, TimePoint{}});
  plan.add({K::kLinkUp, TimePoint::at_ms(80.0), 2, 0.0, TimePoint{}});
  cluster.apply_fault_plan(plan);

  std::vector<std::vector<double>> arrivals(kCells);
  std::vector<Pump> pumps;
  pumps.reserve(kCells);
  for (const std::size_t c : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    pumps.push_back(Pump{&cluster, c, TimePoint::at_ms(300.0), &arrivals});
    Pump* pump = &pumps.back();
    cluster.cell(c).simulation().schedule_at(TimePoint::at_ms(5.0),
                                             [pump] { pump->fire(); });
  }

  EXPECT_TRUE(cluster.run_until_jobs_complete());
  EXPECT_EQ(cluster.completed_jobs(), cluster.submitted_jobs());
  const auto stats = cluster.job_stats();
  EXPECT_GE(stats.drained, 1u);

  std::uint64_t h = kFnvOffset;
  h = fnv_mix(h, cluster.engine().engine().executed_events());
  for (const double t : cluster.job_completion_times_ms()) {
    h = fnv_mix(h, std::bit_cast<std::uint64_t>(t));
  }
  for (const auto& cell : arrivals) {
    h = fnv_mix(h, cell.size());
    for (const double t : cell) h = fnv_mix(h, std::bit_cast<std::uint64_t>(t));
  }
  for (const std::uint64_t v :
       {stats.drained, stats.retries, stats.channel_retries,
        stats.corrupt_recovered, stats.duplicates_suppressed,
        stats.link_drops}) {
    h = fnv_mix(h, v);
  }
  return h;
}

TEST(TraceDigestTest, StormWithHandoffPumpsMatchesGolden) {
  const std::uint64_t serial = storm_digest(false);
  EXPECT_EQ(serial, kGoldenDigest) << std::hex << "digest 0x" << serial;
  EXPECT_EQ(storm_digest(true), serial);
}

std::uint64_t health_storm_digest(bool parallel) {
  exp::ClusterSpec spec;
  spec.cells = kCells;
  spec.parallel = parallel;
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  exp::ClusterExperiment cluster(apps::paper_benchmarks(), shared_table(),
                                 spec, options);
  cluster.set_background_load(160);

  // Cell 0 at quarter speed: its 0.8 ms heartbeat replies beat the
  // timeout but fail the slow-reply bar -- gray, never dead.  Cell 2 at
  // a twentieth: its 4 ms replies lose every race with the 2 ms
  // timeout, so it is evicted, and reinstated and healed once the
  // window closes.
  using K = sim::FaultEvent::Kind;
  sim::FaultPlan plan;
  plan.add({K::kCellSlow, TimePoint::at_ms(10.0), 0, 0.25,
            TimePoint::at_ms(200.0)});
  plan.add({K::kCellSlow, TimePoint::at_ms(10.0), 2, 0.05,
            TimePoint::at_ms(200.0)});
  cluster.apply_fault_plan(plan);

  constexpr const char* kApps[] = {"facedet320", "digit500", "digit2000"};
  for (std::size_t wave = 0; wave < 12; ++wave) {
    for (std::size_t c = 0; c < kCells; ++c) {
      cluster.submit(c, kApps[(wave + c) % 3]);
    }
    cluster.run_for(Duration::ms(25.0));
  }
  EXPECT_TRUE(cluster.run_until_jobs_complete());
  EXPECT_EQ(cluster.completed_jobs(), cluster.submitted_jobs());

  const auto& gray = cluster.cell(0).server().stats();
  EXPECT_GE(gray.breaker_trips, 1u);
  EXPECT_GE(gray.breaker_closes, 1u);
  EXPECT_EQ(gray.evictions, 0u);
  const auto& evicted = cluster.cell(2).server().stats();
  EXPECT_GE(evicted.evictions, 1u);
  EXPECT_GE(evicted.reinstatements, 1u);
  EXPECT_GE(evicted.breaker_closes, 1u);

  std::uint64_t h = kFnvOffset;
  h = fnv_mix(h, cluster.engine().engine().executed_events());
  for (const double t : cluster.job_completion_times_ms()) {
    h = fnv_mix(h, std::bit_cast<std::uint64_t>(t));
  }
  for (std::size_t c = 0; c < kCells; ++c) {
    const auto& s = cluster.cell(c).server().stats();
    for (const std::uint64_t v :
         {s.heartbeats_sent, s.heartbeats_missed, s.late_replies,
          s.evictions, s.reinstatements, s.slow_replies, s.breaker_trips,
          s.breaker_closes, s.requests, s.to_x86, s.to_arm, s.to_fpga,
          s.reconfigurations_started}) {
      h = fnv_mix(h, v);
    }
  }
  return h;
}

TEST(TraceDigestTest, HealthStormMatchesGolden) {
  const std::uint64_t serial = health_storm_digest(false);
  EXPECT_EQ(serial, kHealthDigest) << std::hex << "digest 0x" << serial;
  EXPECT_EQ(health_storm_digest(true), serial);
}

}  // namespace
}  // namespace xartrek
