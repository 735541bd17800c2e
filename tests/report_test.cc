// Tests for the workload characterization / energy report.

#include <sstream>

#include <gtest/gtest.h>

#include "core/attention.h"
#include "gpusim/device.h"
#include "gpusim/report.h"
#include "patterns/presets.h"

namespace multigrain::sim {
namespace {

TbShape
shape()
{
    TbShape s;
    s.threads = 256;
    s.regs_per_thread = 32;
    return s;
}

TEST(ReportTest, ComputeBoundKernelClassifiedTensor)
{
    LaunchGraph graph;
    KernelLaunch k;
    k.name = "gemm";
    k.shape = shape();
    TbWork w;
    w.tensor_flops = 1e9;
    w.dram_read_bytes = 1e3;  // Negligible memory.
    k.add_tb(w, 2000);
    graph.launch(0, std::move(k));
    const SimResult r = simulate(DeviceSpec::a100(), graph);
    const WorkloadReport report = characterize(r, DeviceSpec::a100());
    ASSERT_EQ(report.kernels.size(), 1u);
    EXPECT_EQ(report.kernels[0].bound, Bound::kTensor);
    // Prologues and the admission ramp cost a few percent of the span.
    EXPECT_GT(report.kernels[0].tensor_util, 0.7);
    EXPECT_GT(report.kernels[0].arithmetic_intensity, 1e5);
}

TEST(ReportTest, StreamKernelClassifiedDram)
{
    LaunchGraph graph;
    KernelLaunch k;
    k.name = "stream";
    k.shape = shape();
    TbWork w;
    w.dram_read_bytes = 2e6;
    w.dram_write_bytes = 2e6;
    w.cuda_flops = 10;
    k.add_tb(w, 2000);
    graph.launch(0, std::move(k));
    const WorkloadReport report =
        characterize(simulate(DeviceSpec::a100(), graph), DeviceSpec::a100());
    EXPECT_EQ(report.kernels[0].bound, Bound::kDram);
    EXPECT_GT(report.kernels[0].dram_util, 0.7);
    EXPECT_LT(report.kernels[0].arithmetic_intensity, 0.01);
}

TEST(ReportTest, TinyKernelIsLatencyBound)
{
    LaunchGraph graph;
    KernelLaunch k;
    k.name = "tiny";
    k.shape = shape();
    TbWork w;
    w.cuda_flops = 100;
    k.add_tb(w, 1);
    graph.launch(0, std::move(k));
    const WorkloadReport report =
        characterize(simulate(DeviceSpec::a100(), graph), DeviceSpec::a100());
    EXPECT_EQ(report.kernels[0].bound, Bound::kLatency);
}

TEST(ReportTest, EnergyScalesWithWork)
{
    const auto run = [](double scale) {
        LaunchGraph graph;
        KernelLaunch k;
        k.name = "k";
        k.shape = shape();
        TbWork w;
        w.tensor_flops = 1e8 * scale;
        w.dram_read_bytes = 1e6 * scale;
        k.add_tb(w, 500);
        graph.launch(0, std::move(k));
        return characterize(simulate(DeviceSpec::a100(), graph),
                            DeviceSpec::a100());
    };
    const WorkloadReport small = run(1.0);
    const WorkloadReport big = run(2.0);
    EXPECT_NEAR(big.dynamic_j, 2.0 * small.dynamic_j,
                0.01 * big.dynamic_j);
    EXPECT_GT(big.static_j, small.static_j);  // Longer makespan.
    EXPECT_GT(small.average_watts(), 90.0);   // Above idle.
    EXPECT_LT(small.average_watts(), 500.0);  // Below any sane TDP.
}

TEST(ReportTest, EnergyMatchesClosedForm)
{
    const DeviceSpec d = DeviceSpec::a100();
    LaunchGraph graph;
    KernelLaunch k;
    k.name = "k";
    k.shape = shape();
    TbWork w;
    w.tensor_flops = 1e7;
    w.cuda_flops = 2e6;
    w.dram_read_bytes = 3e5;
    w.dram_write_bytes = 1e5;
    w.l2_bytes = 5e5;
    k.add_tb(w, 10);
    graph.launch(0, std::move(k));
    const WorkloadReport report = characterize(simulate(d, graph), d);
    const double expected =
        (1e7 * 10 * d.pj_per_tensor_flop + 2e6 * 10 * d.pj_per_cuda_flop +
         4e5 * 10 * d.pj_per_dram_byte + 5e5 * 10 * d.pj_per_l2_byte) *
        1e-12;
    EXPECT_NEAR(report.dynamic_j, expected, 1e-12);
}

TEST(ReportTest, MultigrainUsesLessEnergyThanTriton)
{
    // Fewer stored elements -> less traffic and compute -> less energy.
    AttentionConfig config;
    config.head_dim = 64;
    config.num_heads = 4;
    const CompoundPattern p = preset_local_selected(2048, 0.05, 3);
    const auto energy = [&](SliceMode mode) {
        const AttentionEngine engine(p, config, mode);
        return characterize(engine.simulate(DeviceSpec::a100()),
                            DeviceSpec::a100())
            .total_j();
    };
    EXPECT_LT(energy(SliceMode::kMultigrain),
              energy(SliceMode::kCoarseOnly));
}

TEST(ReportTest, PrintsTableWithTotals)
{
    LaunchGraph graph;
    KernelLaunch k;
    k.name = "my_kernel";
    k.shape = shape();
    TbWork w;
    w.cuda_flops = 1e7;
    k.add_tb(w, 100);
    graph.launch(0, std::move(k));
    const WorkloadReport report =
        characterize(simulate(DeviceSpec::a100(), graph), DeviceSpec::a100());
    std::ostringstream os;
    print_report(report, os);
    const std::string text = os.str();
    EXPECT_NE(text.find("my_kernel"), std::string::npos);
    EXPECT_NE(text.find("bound"), std::string::npos);
    EXPECT_NE(text.find("energy"), std::string::npos);
}

}  // namespace
}  // namespace multigrain::sim
