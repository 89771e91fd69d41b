#include "exp/experiment.hpp"

#include <utility>

#include "common/assert.hpp"

namespace xartrek::exp {

std::shared_ptr<const compiler::CompiledSuite> compile_suite(
    const std::vector<apps::BenchmarkSpec>& specs) {
  const compiler::XarCompiler xar_compiler;
  return std::make_shared<const compiler::CompiledSuite>(
      xar_compiler.compile(apps::make_profile_spec(specs),
                           apps::make_irs(specs),
                           apps::make_kernel_profiles(specs)));
}

Experiment::Experiment(std::vector<apps::BenchmarkSpec> specs,
                       const runtime::ThresholdTable& seed_table,
                       ExperimentOptions options)
    : Experiment(specs, compile_suite(specs), seed_table,
                 std::move(options)) {}

Experiment::Experiment(std::vector<apps::BenchmarkSpec> specs,
                       std::shared_ptr<const compiler::CompiledSuite> suite,
                       const runtime::ThresholdTable& seed_table,
                       ExperimentOptions options)
    : specs_(std::move(specs)),
      options_(std::move(options)),
      suite_(std::move(suite)) {
  XAR_EXPECTS(!specs_.empty());
  XAR_EXPECTS(suite_ != nullptr);
  for (const auto& spec : specs_) {
    XAR_EXPECTS(suite_->find_app(spec.name) != nullptr);
  }

  platform::TestbedConfig tb_cfg = options_.testbed;
  tb_cfg.log = options_.log;
  testbed_ = std::make_unique<platform::Testbed>(tb_cfg);

  // Threshold table: seeded rows where step G provided them, otherwise
  // cold (zero-threshold) rows that Algorithm 1 will refine.
  for (const auto& spec : specs_) {
    if (seed_table.contains(spec.name)) {
      table_.upsert(seed_table.at(spec.name));
    } else {
      runtime::ThresholdEntry entry;
      entry.app = spec.name;
      entry.kernel_name = spec.kernel_name;
      table_.upsert(entry);
    }
  }

  monitor_ = std::make_unique<runtime::LoadMonitor>(testbed_->simulation(),
                                                    testbed_->x86());
  runtime::SchedulerServer::Options server_opts;
  server_opts.hide_reconfiguration = options_.hide_reconfiguration;
  server_ = std::make_unique<runtime::SchedulerServer>(
      testbed_->simulation(), *monitor_, testbed_->fpga(), table_,
      suite_->xclbins, server_opts, options_.log);

  runtime::SchedulerClient::Options client_opts;
  client_opts.refinement_enabled = options_.dynamic_thresholds;
  client_ = std::make_unique<runtime::SchedulerClient>(table_, client_opts,
                                                       options_.log);
  executor_ = std::make_unique<runtime::MigrationExecutor>(*testbed_,
                                                           options_.log);
}

apps::RuntimeEnv Experiment::env() {
  apps::RuntimeEnv e;
  e.testbed = testbed_.get();
  e.executor = executor_.get();
  e.table = &table_;
  e.server = server_.get();
  e.client = client_.get();
  e.eager_configure = options_.eager_configure;
  e.log = options_.log;
  return e;
}

void Experiment::launch(const std::string& app_name) {
  apps::AppProcess::launch(env(), spec(app_name), options_.mode,
                           [this](const apps::AppResult& r) {
                             results_.push_back(r);
                           });
}

void Experiment::launch_forced(const std::string& app_name,
                               runtime::Target target) {
  const apps::BenchmarkSpec& s = spec(app_name);
  struct ForcedRun {
    apps::AppResult result;
  };
  auto run = std::make_shared<ForcedRun>();
  run->result.app = s.name;
  run->result.started = simulation().now();
  run->result.func_target = target;

  testbed_->x86().attach_process();
  auto finish = [this, run] {
    testbed_->x86().detach_process();
    run->result.finished = simulation().now();
    results_.push_back(run->result);
  };
  auto post = [this, &s, finish] {
    testbed_->x86().run(s.post, finish);
  };
  // A forced-FPGA scenario measures the *offload* cost, not
  // configuration: warm the image up front if it is absent (the
  // instrumented binary would have configured it at main start).
  if (target == runtime::Target::kFpga) {
    server_->ensure_resident(s.kernel_name);
  }
  testbed_->x86().run(s.pre, [this, &s, target, post] {
    executor_->execute(target, s.function_costs(),
                       [post](Duration) { post(); },
                       /*wait_for_fpga=*/target == runtime::Target::kFpga);
  });
}

void Experiment::warm_fpga_for(const std::string& app_name) {
  const apps::BenchmarkSpec& s = spec(app_name);
  auto& device = testbed_->fpga();
  if (device.has_kernel(s.kernel_name)) return;
  server_->ensure_resident(s.kernel_name);
  const TimePoint horizon = simulation().now() + Duration::minutes(5);
  while (!device.has_kernel(s.kernel_name) && simulation().step_one(horizon)) {
  }
  XAR_ENSURES(device.has_kernel(s.kernel_name));
}

void Experiment::add_background_load(int n) {
  if (n <= 0) return;
  load_.push_back(std::make_unique<apps::LoadGenerator>(*testbed_, n));
}

void Experiment::set_background_load(int n) {
  XAR_EXPECTS(n >= 0);
  load_.clear();  // generators stop themselves on destruction
  if (n > 0) add_background_load(n);
}

bool Experiment::run_until_complete(std::size_t expected, Duration horizon) {
  const TimePoint h = simulation().now() + horizon;
  while (results_.size() < expected && simulation().step_one(h)) {
  }
  return results_.size() >= expected;
}

}  // namespace xartrek::exp
