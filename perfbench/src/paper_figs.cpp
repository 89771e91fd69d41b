// `paper_figs`: the single-cell exp::Experiment path.
//
// One sweep runs the exp/figures.hpp runners at the bench/fig*
// harness configurations (Figs 3/4/5 average execution time, Fig 6
// throughput plus its lazy-configuration variant, Fig 7 periodic plus
// its ablations, Fig 8 periodic throughput, Fig 9 profitability), with
// a seed split from the workload seed in place of the harnesses' 2021.
// Each runner is a closed loop: it launches its application set and
// waits for it.  The measured phase makes passes over the run's sweep
// seeds until the time budget is spent (at least two passes); every
// repetition of a sweep must reproduce its first result digest.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "common/rng.hpp"
#include "compiler/xar_compiler.hpp"
#include "exp/experiment.hpp"
#include "exp/figures.hpp"
#include "workloads.hpp"

namespace xbench {

using namespace xartrek;

const std::vector<apps::BenchmarkSpec>& suite() {
  static const std::vector<apps::BenchmarkSpec> specs =
      apps::paper_benchmarks();
  return specs;
}

exp::EstimationResult estimate_thresholds() {
  return exp::ThresholdEstimator().estimate(suite());
}

namespace {

/// Step-G estimations per run; setup_s is their median.
constexpr std::size_t kSetups = 40;
/// Harness sweeps per run (see sweep_seed).
constexpr std::size_t kSweeps = 16;

/// Digest of an estimation's table (Table 1 times and Table 2
/// thresholds), so repeated estimations can be checked for identity.
std::uint64_t estimation_digest(const exp::EstimationResult& r) {
  Digest d;
  for (const exp::EstimationRow& row : r.rows) {
    d.add(row.x86_exec.to_ms());
    d.add(row.fpga_exec.to_ms());
    d.add(row.arm_exec.to_ms());
    d.add(static_cast<std::uint64_t>(row.fpga_threshold));
    d.add(static_cast<std::uint64_t>(row.arm_threshold));
  }
  return d.value();
}

constexpr apps::SystemMode kX86 = apps::SystemMode::kVanillaX86;
constexpr apps::SystemMode kArm = apps::SystemMode::kVanillaArm;
constexpr apps::SystemMode kFpga = apps::SystemMode::kAlwaysFpga;
constexpr apps::SystemMode kXar = apps::SystemMode::kXarTrek;

double gain_pct(double baseline, double ours) {
  return 100.0 * (baseline - ours) / baseline;
}

/// The harness configurations (bench/fig*.cpp), seeded by the workload
/// seed.  Smoke size keeps every runner but shrinks runs and sets.
struct SweepConfig {
  exp::AvgExecConfig fig3, fig4, fig5;
  exp::ThroughputConfig fig6, fig6_lazy;
  exp::PeriodicExecConfig fig7;
  std::vector<exp::ExperimentOptions> fig7_ablations;  // Xar-Trek only
  exp::PeriodicTputConfig fig8;
  exp::ProfitabilityConfig fig9;
};

SweepConfig sweep_config(std::uint64_t seed, bool smoke) {
  SweepConfig c;
  const int runs = smoke ? 1 : 10;
  const auto avg = [&](std::vector<int> sizes, int total) {
    exp::AvgExecConfig a;
    a.set_sizes = std::move(sizes);
    a.total_processes = total;
    a.systems = {kX86, kArm, kFpga, kXar};
    a.runs = runs;
    a.seed = seed;
    return a;
  };
  c.fig3 = avg(smoke ? std::vector<int>{1, 5} : std::vector<int>{1, 2, 3, 4, 5},
               0);
  const std::vector<int> big =
      smoke ? std::vector<int>{5, 25} : std::vector<int>{5, 10, 15, 20, 25};
  c.fig4 = avg(big, 60);
  c.fig5 = avg(big, 120);

  c.fig6.background_loads =
      smoke ? std::vector<int>{0, 50} : std::vector<int>{0, 25, 50, 75, 100};
  c.fig6.systems = {kX86, kFpga, kXar};
  c.fig6.runs = runs;
  c.fig6.seed = seed;
  c.fig6_lazy = c.fig6;
  c.fig6_lazy.systems = {kXar};
  c.fig6_lazy.base_options.eager_configure = false;

  c.fig7.waves = smoke ? 3 : 30;
  c.fig7.apps_per_wave = smoke ? 5 : 20;
  c.fig7.wave_interval = Duration::seconds(30);
  c.fig7.systems = {kX86, kFpga, kXar};
  c.fig7.seed = seed;
  exp::ExperimentOptions alg1_off;
  alg1_off.dynamic_thresholds = false;
  exp::ExperimentOptions blocking;
  blocking.hide_reconfiguration = false;
  exp::ExperimentOptions lazy;
  lazy.eager_configure = false;
  c.fig7_ablations = {alg1_off, blocking, lazy};

  c.fig8.min_load = 10;
  c.fig8.max_load = 120;
  c.fig8.load_period = Duration::minutes(7);
  c.fig8.app_runs = smoke ? 2 : 10;
  c.fig8.systems = {kX86, kFpga, kXar};
  c.fig8.seed = seed;

  c.fig9.cg_counts = smoke ? std::vector<int>{0, 8, 10}
                           : std::vector<int>{0, 2, 4, 5, 6, 8, 10};
  c.fig9.set_size = 10;
  c.fig9.total_processes = 120;
  c.fig9.systems = {kX86, kXar};
  c.fig9.runs = runs;
  c.fig9.seed = seed;
  return c;
}

/// One sweep's results plus what the benchmark counts around it.
struct Sweep {
  exp::AvgExecResult fig3, fig4, fig5;
  exp::ThroughputResult fig6, fig6_lazy;
  std::vector<exp::PeriodicExecCell> fig7;
  /// Mean execution time of each Fig 7 ablation, then the cold table.
  std::vector<double> fig7_ablation_ms;
  std::vector<exp::PeriodicTputCell> fig8;
  exp::ProfitabilityResult fig9;

  std::uint64_t jobs = 0;         ///< app runs the runners launched
  std::uint64_t failed = 0;       ///< ...that a runner reports unfinished
  std::uint64_t experiments = 0;  ///< exp::Experiment constructions
  double wall_s = 0.0;
  std::uint64_t digest = 0;
};

std::uint64_t avg_jobs(const exp::AvgExecConfig& c) {
  std::uint64_t sum = 0;
  for (int s : c.set_sizes) sum += static_cast<std::uint64_t>(s);
  return sum * static_cast<std::uint64_t>(c.runs) * c.systems.size();
}

std::uint64_t avg_experiments(const exp::AvgExecConfig& c) {
  return c.set_sizes.size() * static_cast<std::uint64_t>(c.runs) *
         c.systems.size();
}

Sweep run_sweep(const SweepConfig& c, const runtime::ThresholdTable& table,
                HostTracer& tracer) {
  Sweep s;
  const auto& specs = suite();
  const auto start = Clock::now();
  {
    HostTracer::Scope span(tracer, "exp.fig3");
    s.fig3 = exp::run_avg_exec_experiment(specs, table, c.fig3);
  }
  {
    HostTracer::Scope span(tracer, "exp.fig4");
    s.fig4 = exp::run_avg_exec_experiment(specs, table, c.fig4);
  }
  {
    HostTracer::Scope span(tracer, "exp.fig5");
    s.fig5 = exp::run_avg_exec_experiment(specs, table, c.fig5);
  }
  {
    HostTracer::Scope span(tracer, "exp.fig6");
    s.fig6 = exp::run_throughput_experiment(specs, table, c.fig6);
    s.fig6_lazy = exp::run_throughput_experiment(specs, table, c.fig6_lazy);
  }
  std::size_t fig7_completed = 0;
  {
    HostTracer::Scope span(tracer, "exp.fig7");
    s.fig7 = exp::run_periodic_exec_experiment(specs, table, c.fig7);
    for (const auto& cell : s.fig7) fig7_completed += cell.completed;
    exp::PeriodicExecConfig ab = c.fig7;
    ab.systems = {kXar};
    for (const exp::ExperimentOptions& o : c.fig7_ablations) {
      ab.base_options = o;
      const auto cells = exp::run_periodic_exec_experiment(specs, table, ab);
      s.fig7_ablation_ms.push_back(cells.at(0).mean_ms);
      fig7_completed += cells.at(0).completed;
    }
    ab.base_options = {};
    const auto cold = exp::run_periodic_exec_experiment(
        specs, runtime::ThresholdTable{}, ab);
    s.fig7_ablation_ms.push_back(cold.at(0).mean_ms);
    fig7_completed += cold.at(0).completed;
  }
  {
    HostTracer::Scope span(tracer, "exp.fig8");
    s.fig8 = exp::run_periodic_throughput_experiment(specs, table, c.fig8);
  }
  {
    HostTracer::Scope span(tracer, "exp.fig9");
    s.fig9 = exp::run_profitability_experiment(specs, table, c.fig9);
  }
  s.wall_s = seconds_since(start);

  // Job and construction counts follow from the configs (the runners
  // construct their experiments internally).  Only Fig 7 reports its
  // completions; every other runner aborts unless its set completes.
  // Fig 7: one run per system, per ablation, and the cold table.
  const std::uint64_t fig7_runs =
      c.fig7.systems.size() + c.fig7_ablations.size() + 1;
  const std::uint64_t per_fig7 =
      static_cast<std::uint64_t>(c.fig7.waves) *
      static_cast<std::uint64_t>(c.fig7.apps_per_wave);
  const std::uint64_t fig7_jobs = fig7_runs * per_fig7;
  s.jobs = avg_jobs(c.fig3) + avg_jobs(c.fig4) + avg_jobs(c.fig5) +
           (c.fig6.background_loads.size() *
            (c.fig6.systems.size() + c.fig6_lazy.systems.size()) *
            static_cast<std::uint64_t>(c.fig6.runs)) +
           fig7_jobs +
           c.fig8.systems.size() * static_cast<std::uint64_t>(c.fig8.app_runs) +
           c.fig9.cg_counts.size() * c.fig9.systems.size() *
               static_cast<std::uint64_t>(c.fig9.runs) *
               static_cast<std::uint64_t>(c.fig9.set_size);
  s.failed = fig7_jobs - std::min<std::uint64_t>(fig7_jobs, fig7_completed);
  s.experiments = avg_experiments(c.fig3) + avg_experiments(c.fig4) +
                  avg_experiments(c.fig5) +
                  c.fig6.background_loads.size() *
                      (c.fig6.systems.size() + c.fig6_lazy.systems.size()) *
                      static_cast<std::uint64_t>(c.fig6.runs) +
                  fig7_runs + c.fig8.systems.size() +
                  c.fig9.cg_counts.size() * c.fig9.systems.size() *
                      static_cast<std::uint64_t>(c.fig9.runs);

  Digest d;
  for (const auto* r : {&s.fig3, &s.fig4, &s.fig5}) {
    for (const auto& cell : r->cells) {
      d.add(cell.mean_ms);
      d.add(cell.stddev_ms);
    }
  }
  for (const auto* r : {&s.fig6, &s.fig6_lazy}) {
    for (const auto& cell : r->cells) d.add(cell.mean_images);
  }
  for (const auto& cell : s.fig7) {
    d.add(cell.mean_ms);
    d.add(static_cast<std::uint64_t>(cell.completed));
    d.add(cell.makespan_minutes);
  }
  for (double v : s.fig7_ablation_ms) d.add(v);
  for (const auto& cell : s.fig8) d.add(cell.mean_images_per_second);
  for (const auto& cell : s.fig9.cells) d.add(cell.mean_ms);
  s.digest = d.value();
  return s;
}

/// Output checks every sweep must pass: every figure value a finite,
/// positive number (a zero or NaN time means a runner measured nothing).
void check_sweep(const Sweep& s) {
  const auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  for (const auto* r : {&s.fig3, &s.fig4, &s.fig5}) {
    for (const auto& cell : r->cells) {
      check(positive(cell.mean_ms), "avg-exec cell has no execution time");
    }
  }
  for (const auto* r : {&s.fig6, &s.fig6_lazy}) {
    for (const auto& cell : r->cells) {
      check(positive(cell.mean_images), "throughput cell processed nothing");
    }
  }
  for (const auto& cell : s.fig7) {
    check(positive(cell.mean_ms), "periodic cell has no execution time");
  }
  for (double v : s.fig7_ablation_ms) {
    check(positive(v), "Fig 7 ablation has no execution time");
  }
  for (const auto& cell : s.fig8) {
    check(positive(cell.mean_images_per_second),
          "periodic-throughput cell processed nothing");
  }
  for (const auto& cell : s.fig9.cells) {
    check(positive(cell.mean_ms), "profitability cell has no time");
  }
}

/// Figure values behind the paper's claims (figN.*), the step-G
/// thresholds (table2.*), and the qualitative figure claims as 1 or 0
/// (claim.*).  run.py scores them against the paper's values declared
/// in claims.json: fidelity_gap_pp, paper_claims_met and the Table 2
/// comparisons.
void emit_sweep_fidelity(const SweepConfig& c, const Sweep& s,
                         const exp::EstimationResult& est, Metrics& m) {
  // Fig 3: gain over always-FPGA, mean over set sizes; ARM slowest.
  std::vector<double> g3;
  bool arm_slowest = true;
  for (int size : c.fig3.set_sizes) {
    const double x86 = s.fig3.cell(kX86, size).mean_ms;
    const double arm = s.fig3.cell(kArm, size).mean_ms;
    const double fpga = s.fig3.cell(kFpga, size).mean_ms;
    const double xar = s.fig3.cell(kXar, size).mean_ms;
    g3.push_back(gain_pct(fpga, xar));
    arm_slowest = arm_slowest && arm > std::max({x86, fpga, xar});
  }
  m.set("fig3.gain_vs_fpga_pct", mean(g3), "%");
  m.set("claim.fig3_arm_slowest", arm_slowest ? 1 : 0, "ratio");

  // Fig 5: gain over vanilla x86 at high load.
  std::vector<double> g5;
  bool beats_x86 = true;
  for (int size : c.fig5.set_sizes) {
    const double x86 = s.fig5.cell(kX86, size).mean_ms;
    const double xar = s.fig5.cell(kXar, size).mean_ms;
    g5.push_back(gain_pct(x86, xar));
    beats_x86 = beats_x86 && xar < x86;
  }
  m.set("fig5.gain_vs_x86_pct", mean(g5), "%");
  m.set("claim.fig5_xar_beats_x86", beats_x86 ? 1 : 0, "ratio");

  // Fig 6: throughput ratio over x86 above 25 background processes;
  // eager configuration keeps Xar-Trek at or above always-FPGA there.
  std::vector<double> r6;
  bool beats_fpga = true;
  for (int load : c.fig6.background_loads) {
    if (load <= 25) continue;
    const double x86 = s.fig6.cell(kX86, load).mean_images;
    const double fpga = s.fig6.cell(kFpga, load).mean_images;
    const double xar = s.fig6.cell(kXar, load).mean_images;
    r6.push_back(xar / x86);
    beats_fpga = beats_fpga && xar >= fpga;
  }
  m.set("fig6.gain_vs_x86_x", mean(r6), "x");
  m.set("claim.fig6_xar_at_least_fpga", beats_fpga ? 1 : 0, "ratio");

  // Fig 7: periodic gains; Algorithm 1 off must be slower.
  double x7 = 0, f7 = 0, a7 = 0;
  for (const auto& cell : s.fig7) {
    if (cell.system == kX86) x7 = cell.mean_ms;
    if (cell.system == kFpga) f7 = cell.mean_ms;
    if (cell.system == kXar) a7 = cell.mean_ms;
  }
  const double alg1_off = s.fig7_ablation_ms.at(0);
  m.set("fig7.gain_vs_x86_pct", gain_pct(x7, a7), "%");
  m.set("fig7.gain_vs_fpga_pct", gain_pct(f7, a7), "%");
  m.set("fig7.alg1_off_delta_pct", 100.0 * (alg1_off - a7) / a7, "%");
  m.set("claim.fig7_alg1_off_slower", alg1_off > a7 ? 1 : 0, "ratio");
  m.set("claim.fig7_xar_beats_both", a7 < x7 && a7 < f7 ? 1 : 0, "ratio");

  // Fig 8: periodic throughput gains (higher is better).
  double x8 = 0, f8 = 0, a8 = 0;
  for (const auto& cell : s.fig8) {
    if (cell.system == kX86) x8 = cell.mean_images_per_second;
    if (cell.system == kFpga) f8 = cell.mean_images_per_second;
    if (cell.system == kXar) a8 = cell.mean_images_per_second;
  }
  m.set("fig8.gain_vs_x86_pct", 100.0 * (a8 - x8) / x8, "%");
  m.set("fig8.gain_vs_fpga_pct", 100.0 * (a8 - f8) / f8, "%");
  m.set("claim.fig8_xar_beats_both", a8 > x8 && a8 > f8 ? 1 : 0, "ratio");

  // Fig 9: gains while compute-intensive apps dominate (up to 80% CG-A)
  // and the all-CG-A extreme, where vanilla x86 should win.
  std::vector<double> g9;
  double g9_100 = 0.0;
  for (int cg : c.fig9.cg_counts) {
    const double x86 = s.fig9.cell(kX86, cg).mean_ms;
    const double xar = s.fig9.cell(kXar, cg).mean_ms;
    if (cg * 10 <= 8 * c.fig9.set_size) g9.push_back(gain_pct(x86, xar));
    if (cg == c.fig9.set_size) g9_100 = gain_pct(x86, xar);
  }
  m.set("fig9.gain_pct_80cg", mean(g9), "%");
  m.set("fig9.gain_pct_100cg", g9_100, "%");
  m.set("claim.fig9_vanilla_at_100cg", g9_100 < 0.0 ? 1 : 0, "ratio");

  // Table 2: the step-G thresholds.
  check(est.rows.size() == suite().size(),
        "step G did not estimate every paper benchmark");
  for (const exp::EstimationRow& row : est.rows) {
    m.set("table2." + row.app + ".fpga_thr", row.fpga_threshold, "procs");
    m.set("table2." + row.app + ".arm_thr", row.arm_threshold, "procs");
  }
}

/// Runtime and FPGA counters of one representative high-load run (Fig 5
/// shape: 25 random apps among 120 processes, Xar-Trek).  The runners
/// own their experiments, so the benchmark builds this one itself to
/// read the scheduler's public stats.
void emit_representative_run(std::uint64_t seed,
                             const runtime::ThresholdTable& table,
                             Metrics& m) {
  exp::Experiment e(suite(), table);
  e.add_background_load(120 - 25);
  Rng rng(seed);
  const auto set = exp::random_app_set(rng, suite(), 25);
  for (const auto& app : set) e.launch(app);
  check(e.run_until_complete(set.size()),
        "representative Fig 5 run did not complete");
  const runtime::SchedulerServer::Stats& st = e.server().stats();
  const double req = std::max<double>(1.0, static_cast<double>(st.requests));
  m.set("runtime.requests", static_cast<double>(st.requests), "count");
  m.set("runtime.requests_per_batch",
        st.batches > 0 ? static_cast<double>(st.requests) / st.batches : 0.0,
        "ratio");
  m.set("runtime.to_x86_frac", st.to_x86 / req, "ratio");
  m.set("runtime.to_arm_frac", st.to_arm / req, "ratio");
  m.set("runtime.to_fpga_frac", st.to_fpga / req, "ratio");
  m.set("runtime.reconfigurations",
        static_cast<double>(st.reconfigurations_started), "count");
  m.set("runtime.probes_per_request", st.residency_probes / req, "ratio");
  m.set("runtime.heartbeats_sent", static_cast<double>(st.heartbeats_sent),
        "count");
  m.set("runtime.heartbeats_missed",
        static_cast<double>(st.heartbeats_missed), "count");
  m.set("runtime.breaker_trips", static_cast<double>(st.breaker_trips),
        "count");
  std::vector<double> lat;
  for (const auto& r : e.results()) lat.push_back(r.elapsed().to_ms());
  m.set("model.job_p50_ms", quantile(lat, 0.5), "ms");
  m.set("model.job_p99_ms", quantile(lat, 0.99), "ms");
  m.set("model.sim_s",
        (e.simulation().now() - TimePoint::origin()).to_seconds(), "s");
}

/// Metrics of layers this workload does not reach read 0: the
/// single-queue path has no shards, links, slots, drains or tracer.
void zero_unreached(Metrics& m) {
  for (const char* name :
       {"sim.events", "sim.windows", "sim.events_per_window",
        "sim.ns_per_event", "sim.busy_share", "sim.step_ms_p50",
        "sim.step_ms_p90", "sim.posts", "sim.mailbox_hwm",
        "sim.parallel_speedup", "sim.parallel_wall_spread",
        "sim.parallel_efficiency", "exp.cluster_ctor_ms",
        "apps.cohort_attach_ms", "apps.cohort_size", "fpga.slot_programs",
        "fpga.slot_evictions", "fpga.denied_no_fit", "fpga.program_failed",
        "fpga.program_success_ratio", "fpga.quarantined",
        "hw.link_transfers", "hw.link_drops", "hw.link_corrupted",
        "hw.drain_sends", "hw.drain_retries", "hw.drain_delivered_ratio",
        "hw.duplicates_suppressed", "hw.drain_abandoned", "popcorn.drains",
        "popcorn.backoff_retries", "obs.spans", "model.leg_run_ms",
        "model.leg_decide_ms", "model.leg_slot_program_ms",
        "model.leg_drain_ms", "model.leg_backoff_ms"}) {
    m.set(name, 0.0, "-");
  }
}

/// Seed of the k-th harness sweep of a run.  The workload seed replaces
/// the harnesses' 2021; a run sweeps several streams split from it, so
/// the fidelity metrics average over harness seeds instead of resting on
/// one draw of the random application sets.
std::uint64_t sweep_seed(std::uint64_t seed, std::size_t k) {
  return Rng(seed).split(k).seed();
}

std::vector<SweepConfig> sweep_configs(std::uint64_t seed, bool smoke) {
  std::vector<SweepConfig> out;
  for (std::size_t k = 0; k < (smoke ? 2 : kSweeps); ++k) {
    out.push_back(sweep_config(sweep_seed(seed, k), smoke));
  }
  return out;
}

/// Fidelity values averaged over sweeps: figN.* are means, claim.* the
/// fraction of sweeps in which the claim holds.
void emit_mean_fidelity(const std::vector<SweepConfig>& configs,
                        const std::vector<Sweep>& sweeps,
                        const exp::EstimationResult& est, Metrics& m) {
  std::vector<Metrics> per;
  for (std::size_t k = 0; k < sweeps.size(); ++k) {
    per.emplace_back();
    emit_sweep_fidelity(configs[k], sweeps[k], est, per.back());
  }
  const auto& names = per.front().entries();
  for (std::size_t i = 0; i < names.size(); ++i) {
    double sum = 0.0;
    for (const Metrics& one : per) sum += one.entries()[i].value;
    m.set(names[i].name, sum / static_cast<double>(per.size()),
          names[i].unit);
  }
}

}  // namespace

void emit_fidelity(std::uint64_t seed, bool smoke,
                   const exp::EstimationResult& estimation, Metrics& m) {
  const std::vector<SweepConfig> configs = sweep_configs(seed, smoke);
  HostTracer off(false, 0);
  std::vector<Sweep> sweeps;
  for (const SweepConfig& c : configs) {
    sweeps.push_back(run_sweep(c, estimation.table, off));
    check_sweep(sweeps.back());
  }
  emit_mean_fidelity(configs, sweeps, estimation, m);
}

void emit_build_timings(const exp::EstimationResult& estimation, bool smoke,
                        HostTracer& tracer, Metrics& m) {
  const int reps = smoke ? 3 : 40;
  const compiler::XarCompiler xar_compiler;
  const auto profile = apps::make_profile_spec(suite());
  const auto irs = apps::make_irs(suite());
  const auto kernels = apps::make_kernel_profiles(suite());
  std::vector<double> compile_ms;
  std::vector<double> ctor_ms;
  for (int i = 0; i < reps; ++i) {
    {
      HostTracer::Scope span(tracer, "compiler.compile");
      const auto start = Clock::now();
      const compiler::CompiledSuite compiled =
          xar_compiler.compile(profile, irs, kernels);
      compile_ms.push_back(seconds_since(start) * 1e3);
      check(!compiled.xclbins.empty(), "compiler produced no XCLBIN");
    }
    HostTracer::Scope span(tracer, "exp.experiment_ctor");
    const auto start = Clock::now();
    const exp::Experiment e(suite(), estimation.table);
    ctor_ms.push_back(seconds_since(start) * 1e3);
  }
  m.set("compiler.compile_ms_p50", median(compile_ms), "ms");
  m.set("exp.experiment_ctor_ms_p50", median(ctor_ms), "ms");
}

Outcome run_paper_figs(const Options& opts) {
  Outcome out;
  Metrics& m = out.metrics;
  HostTracer tracer(opts.trace, opts.seed + 1);
  HostTracer::Scope root(tracer, "workload.paper_figs");

  // Set-up: step-G estimation.  Set-up time is a median over kSetups
  // estimations: the first before the measured phase, the rest paced
  // between its sweeps.  Every estimation must produce the identical
  // table.
  const std::size_t setup_target = opts.smoke ? 2 : kSetups;
  std::vector<double> setup_s;
  exp::EstimationResult est;
  std::uint64_t est_digest = 0;
  const auto estimate_to = [&](std::size_t n) {
    while (setup_s.size() < n) {
      HostTracer::Scope span(tracer, "exp.estimate");
      const auto start = Clock::now();
      exp::EstimationResult r = estimate_thresholds();
      setup_s.push_back(seconds_since(start));
      const std::uint64_t d = estimation_digest(r);
      if (setup_s.size() == 1) {
        est = std::move(r);
        est_digest = d;
      }
      check(d == est_digest, "step-G estimation is not deterministic");
    }
  };
  estimate_to(1);

  // Measured phase: passes over the run's sweep seeds until the budget
  // is spent, at least two; every repetition of a sweep must reproduce
  // its first digest.  A traced run makes one untraced sweep.
  const std::vector<SweepConfig> configs = sweep_configs(opts.seed, opts.smoke);
  std::vector<Sweep> firsts;
  std::vector<std::vector<double>> rates(configs.size());
  HostTracer off(false, 0);
  const auto run_one = [&](std::size_t k) {
    Sweep s = run_sweep(configs[k], est.table, off);
    check_sweep(s);
    if (rates[k].empty()) {
      firsts.push_back(s);
    } else {
      check(s.digest == firsts[k].digest,
            "figure results differ between sweeps of one seed");
    }
    rates[k].push_back(static_cast<double>(s.jobs) / s.wall_s);
    out.attempted += s.jobs;
    out.failed += s.failed;
  };
  const auto measure_start = Clock::now();
  if (opts.trace) {
    run_one(0);
  } else {
    std::size_t passes = 0;
    do {
      for (std::size_t k = 0; k < configs.size(); ++k) {
        run_one(k);
        estimate_to(paced(setup_target, seconds_since(measure_start),
                          opts.seconds));
      }
      ++passes;
    } while (passes < 2 || seconds_since(measure_start) < opts.seconds);
  }
  estimate_to(setup_target);
  Digest digest;
  digest.add(est_digest);
  for (const Sweep& s : firsts) digest.add(s.digest);
  out.digest = digest.value();

  if (!opts.trace) {
    // Each sweep's rate is its fastest repetition: repetitions of one
    // sweep do identical work, and the shared host only ever slows one
    // down, so the fastest is the least disturbed.
    std::vector<double> sweep_rates;
    std::uint64_t jobs = 0, failed = 0;
    for (std::size_t k = 0; k < configs.size(); ++k) {
      sweep_rates.push_back(fastest(rates[k]));
      jobs += firsts[k].jobs;
      failed += firsts[k].failed;
    }
    m.set("jobs_per_s", median(sweep_rates), "1/s");
    m.set("setup_s", median(setup_s), "s");
    m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    // Add-one smoothing keeps the fraction above 0, where a relative
    // bound is defined; with no failures it reads 1 / (jobs + 1).
    m.set("jobs_failed_frac",
          static_cast<double>(failed + 1) / static_cast<double>(jobs + 1),
          "ratio");
    emit_mean_fidelity(configs, firsts, est, m);
    return out;
  }

  // Traced run: the first sweep again with host spans around each
  // runner; its results must match the untraced sweep exactly.
  const Sweep& base = firsts.front();
  const Sweep traced = run_sweep(configs.front(), est.table, tracer);
  check(traced.digest == base.digest,
        "traced sweep differs from the untraced sweep");
  for (const char* f : {"exp.fig3", "exp.fig4", "exp.fig5", "exp.fig6",
                        "exp.fig7", "exp.fig8", "exp.fig9"}) {
    m.set(std::string(f) + "_s", mean(tracer.durations_ms(f)) / 1e3, "s");
  }
  m.set("exp.estimate_ms", median(setup_s) * 1e3, "ms");
  m.set("exp.experiments_built", static_cast<double>(base.experiments),
        "count");
  double ctor_ms = 0.0;
  {
    Metrics timings;
    emit_build_timings(est, opts.smoke, tracer, timings);
    for (const auto& e : timings.entries()) {
      m.set(e.name, e.value, e.unit);
      if (e.name == "exp.experiment_ctor_ms_p50") ctor_ms = e.value;
    }
  }
  m.set("exp.ctor_share",
        static_cast<double>(base.experiments) * ctor_ms / 1e3 / base.wall_s,
        "ratio");
  m.set("obs.trace_overhead", traced.wall_s / base.wall_s, "ratio");
  {
    HostTracer::Scope span(tracer, "exp.representative_run");
    emit_representative_run(opts.seed, est.table, m);
  }
  emit_fidelity(opts.seed, opts.smoke, est, m);
  m.set("host.parallel_capacity",
        host_parallel_capacity(std::min(4u, host_threads())), "threads");
  zero_unreached(m);
  check(write_text(std::string(kTraceDir) + "/paper_figs-" +
                       std::to_string(opts.seed) + "-host.json",
                   tracer.chrome_json()),
        "could not write the host trace");
  return out;
}

}  // namespace xbench
