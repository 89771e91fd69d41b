// Experiment context: one system under test on one fresh testbed.
//
// Owns the whole stack an experiment run needs -- the simulated
// platform, the threshold table, the load monitor, the scheduler
// server and client, and the migration executor -- with construction
// order and lifetimes in one place.  It shares the compiled suite
// (pipeline steps A-F) read-only: as in Xar-Trek, the compiler runs
// once and every run migrates functions of the same binaries and
// XCLBINs, so a caller that builds many Experiments compiles once
// with compile_suite() and hands each of them the result.  Every
// paper figure boils down to: build an Experiment per (system, run),
// launch applications and background load, step the simulation until
// the measured set completes, and collect times.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/application.hpp"
#include "apps/benchmark_spec.hpp"
#include "apps/load_generator.hpp"
#include "common/log.hpp"
#include "compiler/xar_compiler.hpp"
#include "platform/testbed.hpp"
#include "runtime/load_monitor.hpp"
#include "runtime/migration_executor.hpp"
#include "runtime/scheduler_client.hpp"
#include "runtime/scheduler_server.hpp"
#include "runtime/threshold_table.hpp"

namespace xartrek::exp {

/// Ablation and policy switches for one experiment.
struct ExperimentOptions {
  apps::SystemMode mode = apps::SystemMode::kXarTrek;
  bool eager_configure = true;          ///< ablation 1 (Figure 6 driver)
  bool dynamic_thresholds = true;       ///< ablation 2 (Algorithm 1 on/off)
  bool hide_reconfiguration = true;     ///< ablation 3 (Algorithm 2 overlap)
  /// Platform description for the testbed this experiment builds.  A
  /// ClusterExperiment cell sets `testbed.external_sim` to its shard's
  /// engine; the default stays the paper's self-contained testbed.
  platform::TestbedConfig testbed = {};
  Logger log = {};
};

/// Pipeline steps A-F over `specs`.  The result is immutable; share it
/// across every Experiment built from the same specs.
[[nodiscard]] std::shared_ptr<const compiler::CompiledSuite> compile_suite(
    const std::vector<apps::BenchmarkSpec>& specs);

/// One system-under-test instance.
class Experiment {
 public:
  /// Compiles `specs` through the pipeline (A-F) onto a fresh testbed.
  /// `seed_table` carries step-G thresholds; pass an empty table for a
  /// cold start (ablation 4).
  Experiment(std::vector<apps::BenchmarkSpec> specs,
             const runtime::ThresholdTable& seed_table,
             ExperimentOptions options = {});

  /// Builds a fresh testbed around `suite`, which must be
  /// compile_suite(specs) or an equivalent: every spec needs its
  /// compiled application.
  Experiment(std::vector<apps::BenchmarkSpec> specs,
             std::shared_ptr<const compiler::CompiledSuite> suite,
             const runtime::ThresholdTable& seed_table,
             ExperimentOptions options = {});

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  [[nodiscard]] platform::Testbed& testbed() { return *testbed_; }
  [[nodiscard]] sim::Simulation& simulation() {
    return testbed_->simulation();
  }
  [[nodiscard]] runtime::ThresholdTable& table() { return table_; }
  [[nodiscard]] const compiler::CompiledSuite& suite() const {
    return *suite_;
  }
  [[nodiscard]] runtime::SchedulerServer& server() { return *server_; }
  [[nodiscard]] runtime::MigrationExecutor& executor() { return *executor_; }
  [[nodiscard]] const ExperimentOptions& options() const { return options_; }
  [[nodiscard]] const std::vector<apps::BenchmarkSpec>& specs() const {
    return specs_;
  }
  [[nodiscard]] const apps::BenchmarkSpec& spec(const std::string& name) const {
    return apps::benchmark_by_name(specs_, name);
  }

  /// The environment handed to application processes.
  [[nodiscard]] apps::RuntimeEnv env();

  /// Launch one run of `app_name` now; its result is appended to
  /// `results()` and counted toward `completed_apps()`.
  void launch(const std::string& app_name);

  /// Launch a forced-target run (pre/post on x86, function on `target`)
  /// -- the step-G measurement scenarios.
  void launch_forced(const std::string& app_name, runtime::Target target);

  /// Block (in simulated time) until the XCLBIN holding `app_name`'s
  /// kernel is live on the FPGA.  Step-G's forced-FPGA scenario measures
  /// offload cost with a warm image, as the instrumented binary's eager
  /// main-start configuration would provide.
  void warm_fpga_for(const std::string& app_name);

  /// Start `n` background MG-B load processes (kept until teardown).
  void add_background_load(int n);

  /// Adjust background load to exactly `n` processes (periodic
  /// experiments ramp load up and down).
  void set_background_load(int n);

  /// Step the simulation until `expected` launched apps have exited or
  /// the horizon passes.  Returns true if the count was reached.
  bool run_until_complete(std::size_t expected,
                          Duration horizon = Duration::minutes(120));

  [[nodiscard]] std::size_t completed_apps() const { return results_.size(); }
  [[nodiscard]] const std::vector<apps::AppResult>& results() const {
    return results_;
  }

 private:
  std::vector<apps::BenchmarkSpec> specs_;
  ExperimentOptions options_;
  std::unique_ptr<platform::Testbed> testbed_;
  std::shared_ptr<const compiler::CompiledSuite> suite_;
  runtime::ThresholdTable table_;
  std::unique_ptr<runtime::LoadMonitor> monitor_;
  std::unique_ptr<runtime::SchedulerServer> server_;
  std::unique_ptr<runtime::SchedulerClient> client_;
  std::unique_ptr<runtime::MigrationExecutor> executor_;
  std::vector<std::unique_ptr<apps::LoadGenerator>> load_;
  std::vector<apps::AppResult> results_;
};

}  // namespace xartrek::exp
