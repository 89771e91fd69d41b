// Tests for the hardware models: CPU clusters, links, the FPGA device.
#include <gtest/gtest.h>

#include "fpga/device.hpp"
#include "fpga/resources.hpp"
#include "hw/cpu_cluster.hpp"
#include "hw/link.hpp"
#include "platform/testbed.hpp"
#include "sim/simulation.hpp"

namespace xartrek {
namespace {

TEST(CpuClusterTest, SpecsMatchPaperTestbed) {
  EXPECT_EQ(hw::xeon_bronze_3104().cores, 6);
  EXPECT_EQ(hw::cavium_thunderx().cores, 96);
  EXPECT_DOUBLE_EQ(hw::xeon_bronze_3104().ghz, 1.7);
  EXPECT_DOUBLE_EQ(hw::cavium_thunderx().ghz, 2.0);
}

TEST(CpuClusterTest, LoadCountsResidentProcessesNotJobs) {
  sim::Simulation sim;
  hw::CpuCluster x86(sim, hw::xeon_bronze_3104());
  EXPECT_EQ(x86.load(), 0);
  // Load is process residency: jobs alone do not raise it, and an
  // attached process with no running burst still counts (it may be
  // blocked on an FPGA offload -- paper Table 3 counts processes).
  for (int i = 0; i < 10; ++i) x86.attach_process();
  EXPECT_EQ(x86.load(), 10);
  x86.run(Duration::ms(50), [] {});
  EXPECT_EQ(x86.load(), 10);
  EXPECT_EQ(x86.active_jobs(), 1);
  sim.run();
  EXPECT_EQ(x86.load(), 10);
  for (int i = 0; i < 10; ++i) x86.detach_process();
  EXPECT_EQ(x86.load(), 0);
  // Detaching below zero is a contract violation.
  EXPECT_THROW(x86.detach_process(), ContractViolation);
}

TEST(CpuClusterTest, ContentionBeyondCores) {
  sim::Simulation sim;
  hw::CpuCluster x86(sim, hw::xeon_bronze_3104());
  int done = 0;
  for (int i = 0; i < 12; ++i) {
    x86.run(Duration::ms(60), [&] { ++done; });
  }
  sim.run();
  EXPECT_EQ(done, 12);
  // 12 jobs on 6 cores -> 2x slowdown.
  EXPECT_NEAR(sim.now().to_ms(), 120.0, 1e-6);
}

TEST(LinkTest, TransferTimeIsLatencyPlusBandwidth) {
  sim::Simulation sim;
  hw::Link eth(sim, hw::ethernet_1gbps());
  double done_at = 0;
  // 1 MiB at 0.125 MB/ms = 8 ms + 0.12 ms latency.
  eth.transfer(1024 * 1024, [&] { done_at = sim.now().to_ms(); });
  sim.run();
  EXPECT_NEAR(done_at, 8.12, 1e-6);
}

TEST(LinkTest, ConcurrentTransfersShareBandwidth) {
  sim::Simulation sim;
  hw::Link eth(sim, hw::ethernet_1gbps());
  std::vector<double> done;
  for (int i = 0; i < 2; ++i) {
    eth.transfer(1024 * 1024, [&] { done.push_back(sim.now().to_ms()); });
  }
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  // Two 8ms payloads sharing the link -> 16ms + latency each.
  EXPECT_NEAR(done[0], 16.12, 1e-6);
  EXPECT_NEAR(done[1], 16.12, 1e-6);
}

TEST(LinkTest, InFlightCountsTheLatencyPhase) {
  sim::Simulation sim;
  hw::Link eth(sim, hw::ethernet_1gbps());
  eth.transfer(1024 * 1024, [] {});
  // Before its 0.12 ms latency elapses the transfer shares no
  // bandwidth yet, but it has left the sender.
  EXPECT_EQ(eth.in_flight(), 1u);
  sim.run_until(TimePoint::at_ms(0.06));
  EXPECT_EQ(eth.in_flight(), 1u);
  sim.run_until(TimePoint::at_ms(1.0));  // bandwidth phase
  EXPECT_EQ(eth.in_flight(), 1u);
  sim.run();
  EXPECT_EQ(eth.in_flight(), 0u);
  EXPECT_EQ(eth.stats().max_in_flight, 1u);
}

TEST(LinkTest, PcieIsFasterThanEthernet) {
  sim::Simulation sim;
  hw::Link eth(sim, hw::ethernet_1gbps());
  hw::Link pcie(sim, hw::pcie_gen3());
  double eth_done = 0;
  double pcie_done = 0;
  eth.transfer(10 * 1024 * 1024, [&] { eth_done = sim.now().to_ms(); });
  pcie.transfer(10 * 1024 * 1024, [&] { pcie_done = sim.now().to_ms(); });
  sim.run();
  EXPECT_LT(pcie_done, eth_done / 50.0);
}

// --- FPGA resources ----------------------------------------------------

TEST(FpgaResourcesTest, ArithmeticAndFits) {
  const fpga::FpgaResources a{100, 200, 10, 2, 5};
  const fpga::FpgaResources b{50, 100, 5, 1, 2};
  const auto sum = a + b;
  EXPECT_EQ(sum.luts, 150u);
  EXPECT_EQ(sum.dsps, 7u);
  EXPECT_TRUE(fpga::FpgaResources::fits_within(b, a));
  EXPECT_FALSE(fpga::FpgaResources::fits_within(a, b));
  const auto diff = a - b;
  EXPECT_EQ(diff.ffs, 100u);
  EXPECT_THROW(b - a, ContractViolation);
}

TEST(FpgaResourcesTest, DominantFraction) {
  const fpga::FpgaResources cap{1000, 1000, 100, 10, 10};
  const fpga::FpgaResources r{100, 200, 90, 0, 1};
  EXPECT_DOUBLE_EQ(r.dominant_fraction(cap), 0.9);  // BRAM-bound
}

TEST(FpgaResourcesTest, U50ShellLeavesUsableArea) {
  const auto spec = fpga::alveo_u50_spec();
  const auto usable = spec.usable();
  EXPECT_GT(usable.luts, 600'000u);
  EXPECT_GT(usable.brams, 1000u);
}

// --- Kernel latency ----------------------------------------------------

TEST(KernelLatencyTest, FixedPlusPerItem) {
  fpga::HwKernelConfig k;
  k.clock_mhz = 300.0;
  k.fixed_cycles = 3'000'000;   // 10 ms at 300 MHz
  k.cycles_per_item = 300'000;  // 1 ms per item
  EXPECT_NEAR(kernel_latency(k, 0).to_ms(), 10.0, 1e-9);
  EXPECT_NEAR(kernel_latency(k, 5).to_ms(), 15.0, 1e-9);
}

// --- FPGA device -------------------------------------------------------

fpga::XclbinImage test_image(const std::string& id,
                             std::vector<std::string> kernels) {
  fpga::XclbinImage image;
  image.id = id;
  image.size_bytes = 4 * 1024 * 1024;
  for (const auto& name : kernels) {
    fpga::HwKernelConfig k;
    k.name = name;
    k.resources = {10'000, 15'000, 20, 0, 8};
    k.clock_mhz = 300.0;
    k.fixed_cycles = 300'000;    // 1 ms
    k.cycles_per_item = 300'000;  // 1 ms/item
    image.kernels.push_back(k);
  }
  return image;
}

struct DeviceFixture : ::testing::Test {
  sim::Simulation sim;
  hw::Link pcie{sim, hw::pcie_gen3()};
  fpga::FpgaDevice device{sim, pcie, fpga::alveo_u50_spec()};
};

TEST_F(DeviceFixture, ReconfigurationLifecycle) {
  EXPECT_FALSE(device.has_kernel("k0"));
  EXPECT_EQ(device.loaded_image(), std::nullopt);
  bool configured = false;
  device.reconfigure(test_image("img0", {"k0", "k1"}),
                     [&](fpga::ReconfigureResult r) { configured = succeeded(r); });
  EXPECT_TRUE(device.reconfiguring());
  sim.run();
  EXPECT_TRUE(configured);
  EXPECT_FALSE(device.reconfiguring());
  EXPECT_TRUE(device.has_kernel("k0"));
  EXPECT_TRUE(device.has_kernel("k1"));
  EXPECT_EQ(device.loaded_image(), std::optional<std::string>("img0"));
  EXPECT_EQ(device.reconfigurations(), 1u);
}

TEST_F(DeviceFixture, ReconfigurationTakesTransferPlusProgramming) {
  double done_at = 0;
  device.reconfigure(test_image("img0", {"k0"}),
                     [&](fpga::ReconfigureResult) { done_at = sim.now().to_ms(); });
  sim.run();
  // 4 MiB over PCIe (0.125 ms) + 0.005 latency + 300 ms programming.
  EXPECT_NEAR(done_at, 300.13, 0.01);
}

TEST_F(DeviceFixture, ReplacementEvictsOldKernels) {
  device.reconfigure(test_image("img0", {"k0"}), [](fpga::ReconfigureResult) {});
  sim.run();
  device.reconfigure(test_image("img1", {"k9"}), [](fpga::ReconfigureResult) {});
  EXPECT_FALSE(device.has_kernel("k0"));  // torn down immediately
  sim.run();
  EXPECT_TRUE(device.has_kernel("k9"));
  EXPECT_FALSE(device.has_kernel("k0"));
}

TEST_F(DeviceFixture, QueuedReconfigurationsSerialize) {
  int completions = 0;
  device.reconfigure(test_image("a", {"ka"}), [&](fpga::ReconfigureResult) { ++completions; });
  device.reconfigure(test_image("b", {"kb"}), [&](fpga::ReconfigureResult) { ++completions; });
  EXPECT_TRUE(device.reconfiguring());
  sim.run();
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(device.loaded_image(), std::optional<std::string>("b"));
  EXPECT_EQ(device.reconfigurations(), 2u);
}

TEST_F(DeviceFixture, KernelExecutionFifoPerCu) {
  device.reconfigure(test_image("img", {"k"}), [](fpga::ReconfigureResult) {});
  sim.run();
  const double t0 = sim.now().to_ms();
  std::vector<double> done;
  device.execute("k", 1, [&] { done.push_back(sim.now().to_ms() - t0); });
  device.execute("k", 1, [&] { done.push_back(sim.now().to_ms() - t0); });
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.0, 1e-9);  // 1 fixed + 1 per-item
  EXPECT_NEAR(done[1], 4.0, 1e-9);  // queued behind the first
  EXPECT_EQ(device.kernel_invocations(), 2u);
}

TEST_F(DeviceFixture, ExecuteUnknownKernelThrows) {
  device.reconfigure(test_image("img", {"k"}), [](fpga::ReconfigureResult) {});
  sim.run();
  EXPECT_THROW(device.execute("nope", 1, [] {}), ContractViolation);
}

TEST_F(DeviceFixture, OversizedImageRejected) {
  fpga::XclbinImage image = test_image("huge", {"k"});
  image.kernels[0].resources.luts = 10'000'000;  // bigger than the die
  EXPECT_THROW(device.reconfigure(image, [](fpga::ReconfigureResult) {}), ContractViolation);
}

TEST(TestbedTest, AssemblesPaperPlatform) {
  platform::Testbed testbed;
  EXPECT_EQ(testbed.x86().spec().cores, 6);
  EXPECT_EQ(testbed.arm().spec().cores, 96);
  EXPECT_EQ(testbed.total_cores(), 102);  // Table 3's core budget
  EXPECT_EQ(testbed.fpga().spec().model, "Xilinx Alveo U50");
  EXPECT_DOUBLE_EQ(testbed.ethernet().spec().bandwidth_mb_per_ms, 0.125);
}

}  // namespace
}  // namespace xartrek
