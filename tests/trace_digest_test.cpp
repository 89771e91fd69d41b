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
//   * The paper figures: smoke-size runs of every single-cell figure
//     runner (Figures 3-9, with an ablation and a cold table) plus the
//     step-G estimation, over the bit pattern of every result value
//     and the Table 1/2 rows.  It pins the single-cell Experiment
//     path the paper harnesses drive.
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
#include "exp/figures.hpp"
#include "exp/threshold_estimator.hpp"
#include "sim/fault.hpp"

namespace xartrek {
namespace {

constexpr std::size_t kCells = 4;

/// storm_digest's value; see the header before changing it.
constexpr std::uint64_t kGoldenDigest = 0x871e4d1280557b5bull;

/// health_storm_digest's value; see the header before changing it.
constexpr std::uint64_t kHealthDigest = 0x33ca2ee2e8c5126aull;

/// paper_figures_digest's value; see the header before changing it.
constexpr std::uint64_t kPaperFiguresDigest = 0xf43ff80af32895e6ull;

const exp::EstimationResult& shared_estimation() {
  static const exp::EstimationResult result =
      exp::ThresholdEstimator().estimate(apps::paper_benchmarks());
  return result;
}

const runtime::ThresholdTable& shared_table() {
  return shared_estimation().table;
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
  cluster.open_handoffs();
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

std::uint64_t fnv_mix_double(std::uint64_t h, double v) {
  return fnv_mix(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t paper_figures_digest() {
  using apps::SystemMode;
  const std::vector<apps::BenchmarkSpec> specs = apps::paper_benchmarks();
  const std::vector<SystemMode> systems = {
      SystemMode::kVanillaX86, SystemMode::kAlwaysFpga, SystemMode::kXarTrek};
  const runtime::ThresholdTable& table = shared_table();

  std::uint64_t h = kFnvOffset;
  // Step G: Table 1 times and Table 2 thresholds.
  for (const auto& row : shared_estimation().rows) {
    h = fnv_mix_double(h, row.x86_exec.to_ms());
    h = fnv_mix_double(h, row.fpga_exec.to_ms());
    h = fnv_mix_double(h, row.arm_exec.to_ms());
    h = fnv_mix(h, static_cast<std::uint64_t>(row.fpga_threshold));
    h = fnv_mix(h, static_cast<std::uint64_t>(row.arm_threshold));
  }

  // Figures 3 and 5: low and high load.
  for (const int total : {0, 120}) {
    exp::AvgExecConfig config;
    config.set_sizes = {2, 5};
    config.total_processes = total;
    config.systems = systems;
    config.runs = 2;
    config.seed = 7;
    const exp::AvgExecResult result =
        exp::run_avg_exec_experiment(specs, table, config);
    for (const auto& c : result.cells) {
      h = fnv_mix_double(h, c.mean_ms);
      h = fnv_mix_double(h, c.stddev_ms);
    }
  }

  // Figure 6: eager, then lazy configuration.
  for (const bool eager : {true, false}) {
    exp::ThroughputConfig config;
    config.background_loads = {0, 50};
    config.systems = eager ? systems
                           : std::vector<SystemMode>{SystemMode::kXarTrek};
    config.runs = 1;
    config.base_options.eager_configure = eager;
    for (const auto& c :
         exp::run_throughput_experiment(specs, table, config).cells) {
      h = fnv_mix_double(h, c.mean_images);
      h = fnv_mix_double(h, c.images_per_second);
    }
  }

  // Figure 7: every system, one ablation, and a cold table.
  const auto fold_periodic = [&h, &specs](
                                 const exp::PeriodicExecConfig& config,
                                 const runtime::ThresholdTable& seed_table) {
    for (const auto& c :
         exp::run_periodic_exec_experiment(specs, seed_table, config)) {
      h = fnv_mix_double(h, c.mean_ms);
      h = fnv_mix_double(h, c.stddev_ms);
      h = fnv_mix(h, c.completed);
      h = fnv_mix_double(h, c.makespan_minutes);
      h = fnv_mix_double(h, c.load_min);
      h = fnv_mix_double(h, c.load_mean);
      h = fnv_mix_double(h, c.load_max);
    }
  };
  exp::PeriodicExecConfig periodic;
  periodic.waves = 3;
  periodic.apps_per_wave = 6;
  periodic.systems = systems;
  periodic.seed = 7;
  fold_periodic(periodic, table);
  periodic.systems = {SystemMode::kXarTrek};
  fold_periodic(periodic, runtime::ThresholdTable{});
  periodic.base_options.dynamic_thresholds = false;
  fold_periodic(periodic, table);

  // Figure 8: periodic load under face detection.
  exp::PeriodicTputConfig tput;
  tput.app_runs = 2;
  tput.systems = systems;
  for (const auto& c :
       exp::run_periodic_throughput_experiment(specs, table, tput)) {
    h = fnv_mix_double(h, c.mean_images_per_second);
    h = fnv_mix_double(h, c.stddev);
  }

  // Figure 9: three workload mixes.
  exp::ProfitabilityConfig mix;
  mix.cg_counts = {0, 5, 10};
  mix.systems = systems;
  mix.runs = 1;
  for (const auto& c :
       exp::run_profitability_experiment(specs, table, mix).cells) {
    h = fnv_mix_double(h, c.mean_ms);
  }
  return h;
}

TEST(TraceDigestTest, PaperFiguresMatchGolden) {
  const std::uint64_t digest = paper_figures_digest();
  EXPECT_EQ(digest, kPaperFiguresDigest) << std::hex << "digest 0x" << digest;
}

}  // namespace
}  // namespace xartrek
