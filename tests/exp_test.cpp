// Tests for the experiment layer: the step-G threshold estimator
// (Table 2), load classification (Table 3), workload generation, small
// end-to-end figure experiments, and the compiled suite Experiments
// share.
#include <gtest/gtest.h>

#include <set>

#include "exp/cluster.hpp"
#include "exp/experiment.hpp"
#include "exp/figures.hpp"
#include "exp/threshold_estimator.hpp"

namespace xartrek::exp {
namespace {

const runtime::ThresholdTable& shared_estimate_table() {
  static const EstimationResult result =
      ThresholdEstimator().estimate(apps::paper_benchmarks());
  return result.table;
}

const EstimationResult& shared_estimate() {
  static const EstimationResult result =
      ThresholdEstimator().estimate(apps::paper_benchmarks());
  return result;
}

TEST(ThresholdEstimatorTest, Table2Shape) {
  const auto& result = shared_estimate();
  ASSERT_EQ(result.rows.size(), 5u);

  auto row = [&](const std::string& app) -> const EstimationRow& {
    for (const auto& r : result.rows) {
      if (r.app == app) return r;
    }
    throw Error("missing row " + app);
  };

  // FPGA-favoured apps: threshold exactly 0 (paper Table 2 rows 3-5).
  EXPECT_EQ(row("facedet640").fpga_threshold, 0);
  EXPECT_EQ(row("digit500").fpga_threshold, 0);
  EXPECT_EQ(row("digit2000").fpga_threshold, 0);

  // CG-A: paper reports FPGA_THR 31, ARM_THR 25; the processor-sharing
  // model derives the crossing load from Table 1 isolation times
  // (10597/2182*6 ~ 29, 8406/2182*6 ~ 23) -- within a few processes.
  EXPECT_NEAR(row("cg_a").fpga_threshold, 31, 3);
  EXPECT_NEAR(row("cg_a").arm_threshold, 25, 3);

  // FaceDet320: paper 16/31; the derived crossings are 332/175*6 ~ 11
  // and 642/175*6 ~ 21 -- same ordering and regime, looser tolerance
  // (the paper's measured thresholds include effects our substrate
  // cannot see, e.g. frequency scaling).
  EXPECT_NEAR(row("facedet320").fpga_threshold, 16, 6);
  EXPECT_NEAR(row("facedet320").arm_threshold, 31, 10);

  // Digit ARM thresholds: paper 18/17, derived ~15.
  EXPECT_NEAR(row("digit500").arm_threshold, 18, 4);
  EXPECT_NEAR(row("digit2000").arm_threshold, 17, 4);

  // Ordering invariants the scheduler relies on: for FPGA-favoured apps
  // FPGA_THR < ARM_THR (Algorithm 2 then picks the FPGA); for CG-A the
  // ARM threshold is the smaller one (ARM is its better escape).
  EXPECT_LT(row("digit2000").fpga_threshold,
            row("digit2000").arm_threshold);
  EXPECT_LT(row("cg_a").arm_threshold, row("cg_a").fpga_threshold);
}

TEST(ThresholdEstimatorTest, TableMatchesRows) {
  const auto& result = shared_estimate();
  for (const auto& row : result.rows) {
    const auto& entry = result.table.at(row.app);
    EXPECT_EQ(entry.fpga_threshold, row.fpga_threshold);
    EXPECT_EQ(entry.arm_threshold, row.arm_threshold);
    EXPECT_EQ(entry.kernel_name, row.kernel);
    EXPECT_DOUBLE_EQ(entry.x86_exec.to_ms(), row.x86_exec.to_ms());
  }
}

TEST(ThresholdEstimatorTest, LoadSweepIsMonotone) {
  const ThresholdEstimator estimator;
  const auto specs = apps::paper_benchmarks();
  double prev = 0.0;
  for (int load : {1, 6, 12, 24}) {
    const double t =
        estimator.x86_time_under_load(specs, "facedet320", load).to_ms();
    EXPECT_GE(t, prev);
    prev = t;
  }
  // Beyond the core count, time scales ~linearly with load.
  const double t12 =
      estimator.x86_time_under_load(specs, "facedet320", 12).to_ms();
  const double t24 =
      estimator.x86_time_under_load(specs, "facedet320", 24).to_ms();
  EXPECT_NEAR(t24 / t12, 2.0, 0.2);
}

// --- Table 3 ---------------------------------------------------------------

TEST(LoadClassTest, PaperBoundaries) {
  // 6 x86 cores, 102 total.
  EXPECT_EQ(classify_load(1, 6, 102), LoadClass::kLow);
  EXPECT_EQ(classify_load(5, 6, 102), LoadClass::kLow);
  EXPECT_EQ(classify_load(60, 6, 102), LoadClass::kMedium);
  EXPECT_EQ(classify_load(101, 6, 102), LoadClass::kMedium);
  EXPECT_EQ(classify_load(120, 6, 102), LoadClass::kHigh);
}

// --- Workload generation ------------------------------------------------------

TEST(RandomSetTest, DeterministicAndInRange) {
  const auto specs = apps::paper_benchmarks();
  Rng a(99);
  Rng b(99);
  const auto set1 = random_app_set(a, specs, 20);
  const auto set2 = random_app_set(b, specs, 20);
  EXPECT_EQ(set1, set2);
  std::set<std::string> valid;
  for (const auto& s : specs) valid.insert(s.name);
  for (const auto& app : set1) EXPECT_TRUE(valid.contains(app));
}

TEST(RandomSetTest, UniformishCoverage) {
  const auto specs = apps::paper_benchmarks();
  Rng rng(7);
  std::map<std::string, int> counts;
  for (const auto& app : random_app_set(rng, specs, 2000)) ++counts[app];
  for (const auto& s : specs) {
    EXPECT_GT(counts[s.name], 300) << s.name;  // ~400 expected
  }
}

// --- Small end-to-end experiments -----------------------------------------

TEST(FigureExperimentTest, MediumLoadXarTrekBeatsVanilla) {
  // A scaled-down Figure 4 point: one set of 5 apps at 60 processes.
  AvgExecConfig config;
  config.set_sizes = {5};
  config.total_processes = 60;
  config.systems = {apps::SystemMode::kVanillaX86,
                    apps::SystemMode::kXarTrek};
  config.runs = 2;
  const auto result = run_avg_exec_experiment(
      apps::paper_benchmarks(), shared_estimate_table(), config);
  const double vanilla =
      result.cell(apps::SystemMode::kVanillaX86, 5).mean_ms;
  const double xartrek = result.cell(apps::SystemMode::kXarTrek, 5).mean_ms;
  EXPECT_LT(xartrek, vanilla);
}

TEST(FigureExperimentTest, LowLoadXarTrekCompetitiveWithVanilla) {
  // Figure 3 regime: no background load; Xar-Trek must not lose badly
  // anywhere (it mostly does not migrate, paper §4.1).
  AvgExecConfig config;
  config.set_sizes = {2};
  config.total_processes = 0;
  config.systems = {apps::SystemMode::kVanillaX86,
                    apps::SystemMode::kXarTrek};
  config.runs = 3;
  const auto result = run_avg_exec_experiment(
      apps::paper_benchmarks(), shared_estimate_table(), config);
  const double vanilla =
      result.cell(apps::SystemMode::kVanillaX86, 2).mean_ms;
  const double xartrek = result.cell(apps::SystemMode::kXarTrek, 2).mean_ms;
  EXPECT_LT(xartrek, vanilla * 1.3);
}

TEST(FigureExperimentTest, ProfitabilityMixMonotoneForVanilla) {
  // Scaled-down Figure 9: more CG-A (cheaper per run on x86) lowers the
  // vanilla mean; Xar-Trek beats vanilla on the all-Digit2000 mix.
  ProfitabilityConfig config;
  config.cg_counts = {0, 10};
  config.runs = 1;
  config.total_processes = 120;
  config.systems = {apps::SystemMode::kVanillaX86,
                    apps::SystemMode::kXarTrek};
  const auto result = run_profitability_experiment(
      apps::paper_benchmarks(), shared_estimate_table(), config);
  const double vanilla_digits =
      result.cell(apps::SystemMode::kVanillaX86, 0).mean_ms;
  const double xartrek_digits =
      result.cell(apps::SystemMode::kXarTrek, 0).mean_ms;
  EXPECT_LT(xartrek_digits, vanilla_digits / 2.0);
}

TEST(ExperimentTest, ColdStartStillCompletes) {
  // Ablation 4: no step-G seeding.  Zero thresholds route everything
  // with a resident kernel to the FPGA; runs must still complete.
  ExperimentOptions options;
  options.mode = apps::SystemMode::kXarTrek;
  Experiment exp(apps::paper_benchmarks(), runtime::ThresholdTable{},
                 options);
  exp.launch("facedet320");
  EXPECT_TRUE(exp.run_until_complete(1));
}

TEST(ExperimentTest, BackgroundLoadAdjustable) {
  ExperimentOptions options;
  options.mode = apps::SystemMode::kVanillaX86;
  Experiment exp(apps::paper_benchmarks(), runtime::ThresholdTable{},
                 options);
  exp.set_background_load(40);
  EXPECT_EQ(exp.testbed().x86().load(), 40);
  exp.set_background_load(10);
  EXPECT_EQ(exp.testbed().x86().load(), 10);
  exp.set_background_load(0);
  EXPECT_EQ(exp.testbed().x86().load(), 0);
}

// --- One compiled suite, many Experiments ---------------------------------

TEST(SharedSuiteTest, ExperimentsBuiltFromOneSuiteShareIt) {
  const auto specs = apps::paper_benchmarks();
  const auto suite = compile_suite(specs);
  const Experiment a(specs, suite, runtime::ThresholdTable{});
  const Experiment b(specs, suite, runtime::ThresholdTable{});
  EXPECT_EQ(&a.suite(), suite.get());
  EXPECT_EQ(&a.suite(), &b.suite());
}

TEST(SharedSuiteTest, CompilingConstructorYieldsTheSameContent) {
  const auto specs = apps::paper_benchmarks();
  const auto shared = compile_suite(specs);
  const Experiment own(specs, runtime::ThresholdTable{});
  const compiler::CompiledSuite& mine = own.suite();
  EXPECT_NE(&mine, shared.get());

  ASSERT_EQ(mine.xclbins.size(), shared->xclbins.size());
  for (std::size_t i = 0; i < mine.xclbins.size(); ++i) {
    EXPECT_EQ(mine.xclbins[i].id, shared->xclbins[i].id);
    EXPECT_EQ(mine.xclbins[i].size_bytes, shared->xclbins[i].size_bytes);
    ASSERT_EQ(mine.xclbins[i].kernels.size(),
              shared->xclbins[i].kernels.size());
    for (std::size_t k = 0; k < mine.xclbins[i].kernels.size(); ++k) {
      EXPECT_EQ(mine.xclbins[i].kernels[k].name,
                shared->xclbins[i].kernels[k].name);
    }
  }
  ASSERT_EQ(mine.apps.size(), shared->apps.size());
  for (std::size_t i = 0; i < mine.apps.size(); ++i) {
    EXPECT_EQ(mine.apps[i].name, shared->apps[i].name);
    EXPECT_EQ(mine.apps[i].binary.file_bytes(),
              shared->apps[i].binary.file_bytes());
    EXPECT_EQ(mine.apps[i].x86_only_binary.file_bytes(),
              shared->apps[i].x86_only_binary.file_bytes());
  }
}

TEST(SharedSuiteTest, ClusterCellsShareOneSuite) {
  ClusterSpec spec;
  spec.cells = 4;
  ClusterExperiment cluster(apps::paper_benchmarks(),
                            runtime::ThresholdTable{}, spec);
  EXPECT_EQ(&cluster.cell(0).suite(), &cluster.cell(3).suite());
}

TEST(SharedSuiteTest, SuiteOfOtherSpecsIsRejected) {
  const auto specs = apps::paper_benchmarks();
  const std::vector<apps::BenchmarkSpec> first_only = {specs.front()};
  const auto partial = compile_suite(first_only);
  EXPECT_THROW(Experiment(specs, partial, runtime::ThresholdTable{}),
               ContractViolation);
  EXPECT_THROW(Experiment(specs, nullptr, runtime::ThresholdTable{}),
               ContractViolation);
  // A superset is fine: every spec finds its application.
  EXPECT_NO_THROW(
      Experiment(first_only, compile_suite(specs), runtime::ThresholdTable{}));
}

}  // namespace
}  // namespace xartrek::exp
