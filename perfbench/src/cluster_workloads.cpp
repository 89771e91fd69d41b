// `cluster_churn` and `cluster_gray`: exp::ClusterExperiment with four
// slot-mode Xar-Trek cells and step-G thresholds, fed an open-loop
// stream of tracked jobs in simulated time.
//
//   cluster_churn  60 churn processes per cell (2 ms +-50% loops, the
//                  datacenter_spike chaos-phase cohort), 1 job per 2 s
//                  per cell, no faults.
//   cluster_gray   no cohort, 1 job per 400 ms per cell, and a gray
//                  storm drawn by sim::FaultPlan::generate from the
//                  seed over the whole arrival window.
//
// The seed draws the stream's apps (uniform over the five paper
// benchmarks) and the fault plan; the library only sees the generated
// inputs.  Jobs are submitted between run_for steps, each step
// advancing to the next arrival instant.  The gated runs leave the
// ClusterSpec execution options at their defaults (serial shards on one
// thread) and keep tracing off.
#include <algorithm>
#include <map>
#include <string>

#include "apps/load_generator.hpp"
#include "common/rng.hpp"
#include "exp/cluster.hpp"
#include "obs/export.hpp"
#include "sim/fault.hpp"
#include "workloads.hpp"

namespace xbench {

using namespace xartrek;

namespace {

constexpr std::size_t kCells = 4;
constexpr std::size_t kStorms = 32;
/// Cluster set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 40;
/// How long after the last arrival jobs may take to complete.  A storm
/// can queue CG-A behind a slowed cell's FPGA for minutes after the
/// arrivals stop (one storm drawn with twice these probabilities finished
/// its last job 786 s after the window); a job still unfinished after
/// this counts as failed.
const Duration kHorizon = Duration::minutes(30);

struct Shape {
  std::uint64_t churn_per_cell = 0;
  double interval_ms = 1000.0;  ///< one tracked job per cell per interval
  std::uint32_t jobs_per_cell = 0;
  /// Jobs per cell in the parallel-replay prefix (traced runs): the
  /// parallel engine runs this workload far slower than serial, so the
  /// replay covers the stream's first jobs, not all of it.
  std::uint32_t replay_jobs_per_cell = 0;
  [[nodiscard]] double window_ms() const {
    return interval_ms * jobs_per_cell;
  }
};

Shape shape_of(bool gray, bool smoke) {
  Shape s;
  if (gray) {
    s.interval_ms = 400.0;
    s.jobs_per_cell = smoke ? 25 : 1000;
    s.replay_jobs_per_cell = smoke ? 10 : 100;
  } else {
    s.churn_per_cell = 60;
    s.interval_ms = 2000.0;
    s.jobs_per_cell = smoke ? 5 : 125;
    s.replay_jobs_per_cell = smoke ? 2 : 5;
  }
  return s;
}

struct Arrival {
  double at_ms = 0.0;
  std::uint32_t cell = 0;
  std::uint32_t app = 0;
};

/// Every interval each cell receives one job.  Each cell's apps are a
/// shuffled deck holding the five paper benchmarks equally often, so a
/// seed changes the order of the work, not its amount.
std::vector<Arrival> make_stream(const Shape& shape, Rng rng) {
  std::vector<std::vector<std::uint32_t>> decks(kCells);
  for (auto& deck : decks) {
    for (std::uint32_t j = 0; j < shape.jobs_per_cell; ++j) {
      deck.push_back(static_cast<std::uint32_t>(j % suite().size()));
    }
    rng.shuffle(deck);
  }
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(shape.jobs_per_cell) * kCells);
  for (std::uint32_t k = 0; k < shape.jobs_per_cell; ++k) {
    for (std::uint32_t c = 0; c < kCells; ++c) {
      out.push_back(Arrival{shape.interval_ms * (k + 1), c, decks[c][k]});
    }
  }
  return out;
}

/// One gray storm over the arrival window: each victim draws each
/// degraded kind with probability 1/4 (one slowed cell, one lossy or
/// corrupting ring link, one flaky reconfiguration port and one corrupt
/// drain path on average), windows averaging a quarter of the arrival
/// window, and at most one cell kill.
sim::FaultPlan make_storm(const Shape& shape, Rng rng) {
  sim::ChaosProfile p;
  p.cells = kCells;
  p.links = kCells;
  p.window_begin = TimePoint::at_ms(1.0);
  p.window_end = TimePoint::at_ms(shape.window_ms());
  p.cell_kill_probability = 0.25;
  p.max_cell_kills = 1;
  p.link_flap_probability = 0.0;
  p.reconfigure_fail_probability = 0.0;
  p.cell_slow_probability = 0.25;
  p.link_degrade_probability = 0.25;
  p.port_flaky_probability = 0.25;
  p.dsm_corrupt_probability = 0.25;
  p.mean_degradation = Duration::ms(shape.window_ms() / 4.0);
  return sim::FaultPlan::generate(p, rng);
}

enum class Mode { kSerial, kSerialTraced, kParallel };

/// Host time a repetition spends before its first simulated event.
struct SetupTimes {
  double total_s = 0.0;
  double estimate_ms = 0.0;  ///< step-G estimation
  double ctor_ms = 0.0;      ///< ClusterExperiment construction
  double attach_ms = 0.0;    ///< churn cohort attach
};

/// Everything one repetition measures.  Counters come from the
/// library's public views; wall times from the benchmark's own clock.
struct Rep {
  SetupTimes setup;
  double wall_s = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t digest = 0;
  std::vector<double> completion_ms;
  std::vector<double> latency_ms;  ///< completed jobs only
  std::vector<double> step_ms;
  double busy_s = 0.0;
  std::uint64_t posts = 0;
  std::uint64_t mailbox_hwm = 0;
  std::map<std::string, double> scalars;  ///< registry snapshot
  exp::ClusterExperiment::JobStats jobs;
  std::map<std::string, std::vector<double>> leg_ms;  ///< traced only
  std::size_t spans = 0;
  std::string perfetto;  ///< traced only
};

/// What a repetition sets up before its first simulated event: step-G
/// estimation, cluster construction, cohort attach, fault-plan apply.
struct Setup {
  std::unique_ptr<exp::ClusterExperiment> cluster;
  SetupTimes times;
};

Setup set_up(const sim::FaultPlan& plan, const Shape& shape, Mode mode,
             HostTracer& tracer) {
  Setup s;
  const auto setup_start = Clock::now();
  exp::EstimationResult est;
  {
    HostTracer::Scope span(tracer, "exp.estimate");
    const auto start = Clock::now();
    est = estimate_thresholds();
    s.times.estimate_ms = seconds_since(start) * 1e3;
  }
  exp::ClusterSpec spec;
  spec.cells = kCells;
  spec.cell_config.fpga_slots = fpga::SlotConfig{};
  if (mode == Mode::kParallel) {
    spec.parallel = true;
    spec.exec.workers = std::min<std::size_t>(kCells, host_threads());
  }
  exp::ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  {
    HostTracer::Scope span(tracer, "exp.cluster_ctor");
    const auto start = Clock::now();
    s.cluster = std::make_unique<exp::ClusterExperiment>(suite(), est.table,
                                                         spec, options);
    s.times.ctor_ms = seconds_since(start) * 1e3;
  }
  if (shape.churn_per_cell > 0) {
    HostTracer::Scope span(tracer, "apps.set_background_load");
    apps::ShardedLoadGenerator::Options churn;
    churn.run_demand = Duration::ms(2.0);
    churn.demand_jitter = 0.5;
    const auto start = Clock::now();
    s.cluster->set_background_load(kCells * shape.churn_per_cell, churn);
    s.times.attach_ms = seconds_since(start) * 1e3;
  }
  if (!plan.empty()) {
    HostTracer::Scope span(tracer, "exp.apply_fault_plan");
    s.cluster->apply_fault_plan(plan);
  }
  if (mode == Mode::kSerialTraced) s.cluster->enable_tracing();
  s.times.total_s = seconds_since(setup_start);
  return s;
}

Rep run_rep(const std::vector<Arrival>& stream, const sim::FaultPlan& plan,
            const Shape& shape, Mode mode, HostTracer& tracer) {
  const Setup setup = set_up(plan, shape, mode, tracer);
  exp::ClusterExperiment* cluster = setup.cluster.get();
  Rep r;
  r.setup = setup.times;

  sim::ShardedSimulation& engine = cluster->engine().engine();
  const std::uint64_t events0 = engine.executed_events();
  const std::uint64_t windows0 = engine.windows();
  std::vector<double> submitted_at;
  submitted_at.reserve(stream.size());
  r.step_ms.reserve(stream.size());
  const auto measure_start = Clock::now();
  for (const Arrival& a : stream) {
    const double gap = a.at_ms - cluster->now().to_ms();
    if (gap > 0.0) {
      HostTracer::Scope span(tracer, "sim.run_for");
      const auto start = Clock::now();
      cluster->run_for(Duration::ms(gap));
      r.step_ms.push_back(seconds_since(start) * 1e3);
    }
    HostTracer::Scope span(tracer, "exp.submit");
    submitted_at.push_back(cluster->now().to_ms());
    cluster->submit(a.cell, suite()[a.app].name);
  }
  {
    HostTracer::Scope span(tracer, "exp.run_until_jobs_complete");
    cluster->run_until_jobs_complete(kHorizon);
  }
  r.wall_s = seconds_since(measure_start);

  r.submitted = cluster->submitted_jobs();
  r.completed = cluster->completed_jobs();
  r.events = engine.executed_events() - events0;
  r.windows = engine.windows() - windows0;
  r.completion_ms = cluster->job_completion_times_ms();
  check(r.submitted == stream.size(), "cluster lost submissions");
  check(r.completion_ms.size() == r.submitted,
        "completion vector does not cover every job");
  std::uint64_t done = 0;
  for (std::size_t j = 0; j < r.completion_ms.size(); ++j) {
    if (r.completion_ms[j] < 0.0) continue;
    ++done;
    check(r.completion_ms[j] >= submitted_at[j],
          "a job completed before it was submitted");
    r.latency_ms.push_back(r.completion_ms[j] - submitted_at[j]);
  }
  check(done == r.completed, "completed-job count disagrees with the "
                             "per-job completion times");
  for (std::size_t s = 0; s < kCells; ++s) {
    const sim::ShardStats& st = engine.stats(static_cast<sim::ShardId>(s));
    r.busy_s += st.busy_seconds;
    r.posts += st.posts;
    r.mailbox_hwm = std::max(r.mailbox_hwm, st.mailbox_hwm);
  }

  obs::Snapshot snap;
  {
    HostTracer::Scope span(tracer, "obs.registry_snapshot");
    snap = cluster->registry().snapshot();
  }
  for (const auto& s : snap.scalars) r.scalars[s.name] = s.value;
  // Exactly once: the latency histogram records one sample per
  // completion, so a duplicate completion shows as an extra sample.
  std::uint64_t recorded = 0;
  for (const auto& h : snap.hists) {
    if (h.name == "cluster.job.latency_ms") recorded = h.count;
  }
  check(recorded == r.completed,
        "a tracked job completed more than once (latency samples " +
            std::to_string(recorded) + " vs " + std::to_string(r.completed) +
            " completed jobs)");
  r.jobs = cluster->job_stats();

  Digest d;
  d.add(r.events);
  for (double t : r.completion_ms) d.add(t);
  r.digest = d.value();

  if (mode == Mode::kSerialTraced) {
    const obs::Tracer& t = *cluster->tracer();
    r.spans = t.span_count();
    for (const obs::Span& s : t.sorted_spans()) {
      r.leg_ms[s.name].push_back(s.end_ms - s.start_ms);
    }
    r.perfetto = obs::perfetto_trace_json(t);
  }
  return r;
}

double sum_suffix(const Rep& r, const std::string& suffix) {
  double total = 0.0;
  for (const auto& [name, value] : r.scalars) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += value;
    }
  }
  return total;
}

double ratio_or(double num, double den, double fallback) {
  return den > 0.0 ? num / den : fallback;
}

void emit_layers(const Rep& r, Metrics& m) {
  const double events = static_cast<double>(r.events);
  m.set("sim.events", events, "count");
  m.set("sim.windows", static_cast<double>(r.windows), "count");
  m.set("sim.events_per_window",
        ratio_or(events, static_cast<double>(r.windows), 0.0), "ratio");
  m.set("sim.ns_per_event", ratio_or(r.wall_s * 1e9, events, 0.0), "ns");
  m.set("sim.busy_share", r.busy_s / r.wall_s, "ratio");
  m.set("sim.step_ms_p50", quantile(r.step_ms, 0.5), "ms");
  m.set("sim.step_ms_p90", quantile(r.step_ms, 0.9), "ms");
  m.set("sim.posts", static_cast<double>(r.posts), "count");
  m.set("sim.mailbox_hwm", static_cast<double>(r.mailbox_hwm), "count");

  m.set("exp.estimate_ms", r.setup.estimate_ms, "ms");
  m.set("exp.cluster_ctor_ms", r.setup.ctor_ms, "ms");
  m.set("apps.cohort_attach_ms", r.setup.attach_ms, "ms");

  const double req = sum_suffix(r, ".sched.requests");
  m.set("runtime.requests", req, "count");
  m.set("runtime.requests_per_batch",
        ratio_or(req, sum_suffix(r, ".sched.batches"), 0.0), "ratio");
  m.set("runtime.to_x86_frac", ratio_or(sum_suffix(r, ".sched.to_x86"), req, 0),
        "ratio");
  m.set("runtime.to_arm_frac", ratio_or(sum_suffix(r, ".sched.to_arm"), req, 0),
        "ratio");
  m.set("runtime.to_fpga_frac",
        ratio_or(sum_suffix(r, ".sched.to_fpga"), req, 0), "ratio");
  m.set("runtime.reconfigurations",
        sum_suffix(r, ".sched.reconfigurations_started"), "count");
  m.set("runtime.probes_per_request",
        ratio_or(sum_suffix(r, ".sched.residency_probes"), req, 0), "ratio");
  m.set("runtime.heartbeats_sent", sum_suffix(r, ".sched.heartbeats_sent"),
        "count");
  m.set("runtime.heartbeats_missed",
        sum_suffix(r, ".sched.heartbeats_missed"), "count");
  m.set("runtime.breaker_trips", sum_suffix(r, ".sched.breaker_trips"),
        "count");

  const double programs = sum_suffix(r, ".slots.programs");
  const double failed = sum_suffix(r, ".slots.failed");
  m.set("fpga.slot_programs", programs, "count");
  m.set("fpga.slot_evictions", sum_suffix(r, ".slots.evictions"), "count");
  m.set("fpga.denied_no_fit", sum_suffix(r, ".slots.denied_no_fit"), "count");
  m.set("fpga.program_failed", failed, "count");
  m.set("fpga.program_success_ratio", ratio_or(programs - failed, programs, 1),
        "ratio");
  m.set("fpga.quarantined", sum_suffix(r, ".slots.quarantined"), "count");

  const double sends = sum_suffix(r, ".drain.sends");
  m.set("hw.link_transfers", sum_suffix(r, ".link.transfers"), "count");
  m.set("hw.link_drops", sum_suffix(r, ".link.dropped_transfers"), "count");
  m.set("hw.link_corrupted", sum_suffix(r, ".link.corrupted_transfers"),
        "count");
  m.set("hw.drain_sends", sends, "count");
  m.set("hw.drain_retries", sum_suffix(r, ".drain.retries"), "count");
  m.set("hw.drain_delivered_ratio",
        ratio_or(sum_suffix(r, ".drain.delivered"), sends, 1), "ratio");
  m.set("hw.duplicates_suppressed",
        sum_suffix(r, ".drain.duplicates_suppressed"), "count");
  m.set("hw.drain_abandoned", sum_suffix(r, ".drain.abandoned"), "count");

  m.set("popcorn.drains", static_cast<double>(r.jobs.drained), "count");
  m.set("popcorn.backoff_retries", static_cast<double>(r.jobs.retries),
        "count");

  m.set("model.job_p50_ms", quantile(r.latency_ms, 0.5), "ms");
  m.set("model.job_p99_ms", quantile(r.latency_ms, 0.99), "ms");
}

void emit_legs(const Rep& traced, Metrics& m) {
  const auto leg = [&](const char* span) {
    const auto it = traced.leg_ms.find(span);
    return it == traced.leg_ms.end() ? 0.0 : mean(it->second);
  };
  m.set("model.leg_run_ms", leg("job.run"), "ms");
  m.set("model.leg_decide_ms", leg("sched.batch"), "ms");
  m.set("model.leg_slot_program_ms", leg("fpga.slot_program"), "ms");
  m.set("model.leg_drain_ms", leg("drain.transfer"), "ms");
  m.set("model.leg_backoff_ms", leg("job.backoff"), "ms");
  m.set("obs.spans", static_cast<double>(traced.spans), "count");
}

}  // namespace

Outcome run_cluster(const Options& opts, bool gray) {
  Outcome out;
  Metrics& m = out.metrics;
  const Shape shape = shape_of(gray, opts.smoke);
  const Rng root(opts.seed);
  const std::vector<Arrival> stream = make_stream(shape, root.split(1));
  // cluster_gray draws kStorms storms from the seed: one storm's cost
  // is heavy-tailed (a few draws double the event count), so a run
  // reports the median storm.  cluster_churn runs no faults.
  std::vector<sim::FaultPlan> plans;
  for (std::size_t k = 0; k < (gray ? kStorms : 1); ++k) {
    plans.push_back(gray ? make_storm(shape, root.split(2 + k))
                         : sim::FaultPlan{});
  }
  const sim::FaultPlan& plan = plans.front();
  check(!stream.empty(), "the seed drew an empty job stream");
  HostTracer off(false, 0);

  // Gated phase: passes over the plans until the budget is spent, at
  // least two; every repetition of a plan must reproduce its first
  // digest.  A traced run makes one repetition.  Only each plan's first
  // repetition is kept whole (later ones keep their rate), so the
  // memory a run holds does not grow with the repetitions the host fits
  // in.  Set-up time is a median over kSetups set-ups: each repetition's
  // own, plus clusters set up and discarded between repetitions, paced
  // so the samples spread over the whole phase.
  std::vector<Rep> firsts;
  std::vector<std::vector<double>> rates(plans.size());
  std::vector<double> setups;
  const std::size_t setup_target = opts.smoke ? 2 : kSetups;
  const auto set_up_to = [&](std::size_t n) {
    while (setups.size() < n) {
      setups.push_back(
          set_up(plans[0], shape, Mode::kSerial, off).times.total_s);
    }
  };
  const auto budget_start = Clock::now();
  const auto run_plan = [&](std::size_t k) {
    Rep r = run_rep(stream, plans[k], shape, Mode::kSerial, off);
    check(rates[k].empty() || r.digest == firsts[k].digest,
          "repetitions of one seed diverged (events or completion times)");
    out.attempted += r.submitted;
    out.failed += r.submitted - r.completed;
    setups.push_back(r.setup.total_s);
    rates[k].push_back(static_cast<double>(r.completed) / r.wall_s);
    if (rates[k].size() == 1) firsts.push_back(std::move(r));
  };
  if (opts.trace) {
    run_plan(0);
  } else {
    std::size_t passes = 0;
    do {
      for (std::size_t k = 0; k < plans.size(); ++k) {
        run_plan(k);
        set_up_to(paced(setup_target, seconds_since(budget_start),
                        opts.seconds));
      }
      ++passes;
    } while (passes < 2 || seconds_since(budget_start) < opts.seconds);
    set_up_to(setup_target);
  }
  const Rep& base = firsts.front();
  Digest digest;
  for (const Rep& first : firsts) digest.add(first.digest);
  out.digest = digest.value();
  const auto est = estimate_thresholds();

  if (!opts.trace) {
    // Each plan's rate is its fastest repetition: repetitions of one
    // plan do identical work, and the shared host only ever slows one
    // down, so the fastest is the least disturbed.
    std::vector<double> plan_rates;
    std::uint64_t submitted = 0, unfinished = 0;
    for (std::size_t k = 0; k < plans.size(); ++k) {
      plan_rates.push_back(fastest(rates[k]));
      submitted += firsts[k].submitted;
      unfinished += firsts[k].submitted - firsts[k].completed;
    }
    m.set("jobs_per_s", median(plan_rates), "1/s");
    m.set("setup_s", median(setups), "s");
    m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    // Add-one smoothing keeps the fraction above 0, where a relative
    // bound is defined; with no failures it reads 1 / (jobs + 1).
    m.set("jobs_failed_frac",
          static_cast<double>(unfinished + 1) /
              static_cast<double>(submitted + 1),
          "ratio");
    emit_fidelity(opts.seed, opts.smoke, est, m);
    return out;
  }

  // Traced run: the same seed with host spans and simulated-time legs
  // (must match the untraced digest); then a serial and parallel replay
  // of the stream's prefix (must match each other), host calibration,
  // and repeated build timings.
  HostTracer tracer(true, opts.seed + 1);
  Rep traced;
  {
    HostTracer::Scope root_span(tracer, gray ? "workload.cluster_gray"
                                             : "workload.cluster_churn");
    traced = run_rep(stream, plan, shape, Mode::kSerialTraced, tracer);
  }
  check(traced.digest == base.digest,
        "tracing changed the event trace or completion times");

  const std::vector<Arrival> prefix(
      stream.begin(),
      stream.begin() + static_cast<std::ptrdiff_t>(
                           shape.replay_jobs_per_cell * kCells));
  const Rep serial = run_rep(prefix, plan, shape, Mode::kSerial, off);
  std::vector<double> parallel_walls;
  const auto par_start = Clock::now();
  do {
    const Rep p = run_rep(prefix, plan, shape, Mode::kParallel, off);
    check(p.events == serial.events,
          "parallel replay executed a different number of events");
    check(p.completion_ms == serial.completion_ms && p.digest == serial.digest,
          "parallel replay completion times differ from serial");
    parallel_walls.push_back(p.wall_s);
  } while (parallel_walls.size() < 3 && seconds_since(par_start) < 20.0);
  const double parallel_wall = median(parallel_walls);
  const double speedup = serial.wall_s / parallel_wall;
  const double capacity =
      host_parallel_capacity(std::min<unsigned>(kCells, host_threads()));
  m.set("sim.parallel_speedup", speedup, "x");
  m.set("sim.parallel_wall_spread",
        (*std::max_element(parallel_walls.begin(), parallel_walls.end()) -
         *std::min_element(parallel_walls.begin(), parallel_walls.end())) /
            parallel_wall,
        "ratio");
  m.set("host.parallel_capacity", capacity, "threads");
  m.set("sim.parallel_efficiency", speedup / capacity, "ratio");

  emit_layers(base, m);
  emit_legs(traced, m);
  m.set("model.sim_s",
        *std::max_element(base.completion_ms.begin(),
                          base.completion_ms.end()) /
            1e3,
        "s");
  m.set("apps.cohort_size",
        static_cast<double>(kCells * shape.churn_per_cell), "count");
  m.set("obs.trace_overhead", traced.wall_s / base.wall_s, "ratio");

  emit_build_timings(est, opts.smoke, tracer, m);
  m.set("exp.experiments_built", static_cast<double>(kCells), "count");
  m.set("exp.ctor_share",
        base.setup.ctor_ms / (base.setup.total_s * 1e3 + base.wall_s * 1e3),
        "ratio");
  emit_fidelity(opts.seed, opts.smoke, est, m);
  for (const char* f : {"exp.fig3_s", "exp.fig4_s", "exp.fig5_s", "exp.fig6_s",
                        "exp.fig7_s", "exp.fig8_s", "exp.fig9_s"}) {
    m.set(f, 0.0, "-");
  }

  const std::string stem = std::string(kTraceDir) + "/" +
                           (gray ? std::string("cluster_gray")
                                 : std::string("cluster_churn")) +
                           "-" + std::to_string(opts.seed);
  check(write_text(stem + "-host.json", tracer.chrome_json()),
        "could not write the host trace");
  check(write_text(stem + "-sim.json", traced.perfetto),
        "could not write the simulated-time trace");
  return out;
}

}  // namespace xbench
