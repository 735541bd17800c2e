// Tests for the GPU execution engine: occupancy rules, analytic timing of
// simple launches on a toy device, resource sharing, load imbalance,
// stream semantics, conservation/monotonicity properties, and the
// shift-invariance and exactness of quiescent segments and their splices.

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "gpusim/device.h"
#include "gpusim/engine.h"
#include "gpusim/launch.h"
#include "gpusim/launch_graph.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"
#include "engine_test_util.h"
#include "trace_test_util.h"

namespace multigrain::sim {
namespace {

/// A deliberately simple device so expected times are hand-computable:
/// per-SM CUDA rate 0.5e6 flops/us, per-SM tensor rate 1e6 flops/us,
/// DRAM 1e5 B/us, L2 4e5 B/us, per-SM memory cap 1e5 B/us.
DeviceSpec
toy_device()
{
    DeviceSpec d;
    d.name = "toy";
    d.num_sms = 2;
    d.tensor_tflops = 2.0;
    d.cuda_tflops = 1.0;
    d.dram_gbps = 100.0;
    d.l2_gbps = 400.0;
    d.l2_mb = 4.0;
    d.l1_kb_per_sm = 128;
    d.max_tb_per_sm = 4;
    d.max_threads_per_sm = 1024;
    d.regs_per_sm = 65536;
    d.smem_per_sm_bytes = 64 * 1024;
    d.tensor_efficiency = 1.0;
    d.cuda_efficiency = 1.0;
    d.dram_efficiency = 1.0;
    d.kernel_launch_us = 1.0;
    d.tb_overhead_us = 0.5;
    d.sm_mem_burst = 2.0;
    return d;
}

TbShape
small_shape()
{
    TbShape s;
    s.threads = 128;
    s.smem_bytes = 0;
    s.regs_per_thread = 32;
    return s;
}

KernelLaunch
one_kernel(const char *name, const TbWork &work, index_t count)
{
    KernelLaunch k;
    k.name = name;
    k.shape = small_shape();
    k.add_tb(work, count);
    return k;
}

// ----------------------------------------------------------- occupancy ----

TEST(OccupancyTest, SlotLimit)
{
    const DeviceSpec d = toy_device();
    EXPECT_EQ(occupancy_per_sm(d, small_shape()), 4);  // max_tb_per_sm.
}

TEST(OccupancyTest, ThreadLimit)
{
    const DeviceSpec d = toy_device();
    TbShape s = small_shape();
    s.threads = 512;
    EXPECT_EQ(occupancy_per_sm(d, s), 2);  // 1024 / 512.
}

TEST(OccupancyTest, SmemLimit)
{
    const DeviceSpec d = toy_device();
    TbShape s = small_shape();
    s.smem_bytes = 20 * 1024;
    EXPECT_EQ(occupancy_per_sm(d, s), 3);  // 64K / 20K.
}

TEST(OccupancyTest, RegisterLimit)
{
    const DeviceSpec d = toy_device();
    TbShape s = small_shape();
    s.regs_per_thread = 256;  // 128 * 256 = 32768 regs per block.
    EXPECT_EQ(occupancy_per_sm(d, s), 2);
}

TEST(OccupancyTest, NeverBelowOne)
{
    const DeviceSpec d = toy_device();
    TbShape s = small_shape();
    s.smem_bytes = 1024 * 1024;  // Larger than the SM.
    EXPECT_EQ(occupancy_per_sm(d, s), 1);
}

TEST(OccupancyTest, ThreadsBeyondSmStillClampToOne)
{
    const DeviceSpec d = toy_device();
    TbShape s = small_shape();
    s.threads = d.max_threads_per_sm * 2;  // Divides to 0 before the clamp.
    EXPECT_EQ(occupancy_per_sm(d, s), 1);
}

TEST(OccupancyTest, ZeroSmemSkipsTheSmemLimit)
{
    // smem 0 must mean "no shared memory", not a division by zero or a
    // zero-occupancy limit.
    DeviceSpec d = toy_device();
    d.max_tb_per_sm = 64;
    d.max_threads_per_sm = 64 * 128;
    d.regs_per_sm = 64 * 128 * 32;
    TbShape s = small_shape();
    s.smem_bytes = 0;
    EXPECT_EQ(occupancy_per_sm(d, s), 64);
}

TEST(OccupancyTest, ZeroRegsSkipsTheRegisterLimit)
{
    const DeviceSpec d = toy_device();
    TbShape s = small_shape();
    s.regs_per_thread = 0;  // Unknown register count: slot limit governs.
    EXPECT_EQ(occupancy_per_sm(d, s), 4);
}

TEST(OccupancyTest, ExactFitBoundaries)
{
    const DeviceSpec d = toy_device();
    // Exactly filling a resource is allowed; one byte/thread over halves
    // the count (integer division, no rounding up).
    TbShape s = small_shape();
    s.smem_bytes = d.smem_per_sm_bytes / 4;  // 4 blocks fit exactly.
    EXPECT_EQ(occupancy_per_sm(d, s), 4);
    s.smem_bytes += 1;
    EXPECT_EQ(occupancy_per_sm(d, s), 3);

    TbShape t = small_shape();
    t.threads = d.max_threads_per_sm;  // One block owns the whole SM.
    t.regs_per_thread = d.regs_per_sm / d.max_threads_per_sm;
    EXPECT_EQ(occupancy_per_sm(d, t), 1);
}

TEST(OccupancyTest, TightestResourceGoverns)
{
    const DeviceSpec d = toy_device();
    TbShape s = small_shape();
    s.threads = 256;          // Thread limit: 4.
    s.smem_bytes = 32 * 1024; // Smem limit: 2  <- the binding one.
    s.regs_per_thread = 64;   // Register limit: 65536/16384 = 4.
    EXPECT_EQ(occupancy_per_sm(d, s), 2);
}

TEST(OccupancyTest, RealDevicesAlwaysFitTheDefaultShape)
{
    // The shipped kernels all launch default-ish shapes; neither Table-1
    // device may ever clamp them to zero (or below the slot count a real
    // occupancy calculator would report).
    for (const DeviceSpec &d : {DeviceSpec::a100(), DeviceSpec::rtx3090()}) {
        const int occ = occupancy_per_sm(d, TbShape{});
        EXPECT_GE(occ, 1) << d.name;
        EXPECT_LE(occ, d.max_tb_per_sm) << d.name;
    }
}

// ------------------------------------------------------------- devices ----

TEST(DeviceTest, Table1ValuesPreserved)
{
    const DeviceSpec a = DeviceSpec::a100();
    EXPECT_EQ(a.num_sms, 108);
    EXPECT_DOUBLE_EQ(a.tensor_tflops, 169.0);
    EXPECT_DOUBLE_EQ(a.cuda_tflops, 42.3);
    EXPECT_DOUBLE_EQ(a.dram_gbps, 1555.0);
    EXPECT_DOUBLE_EQ(a.l2_mb, 40.0);

    const DeviceSpec r = DeviceSpec::rtx3090();
    EXPECT_DOUBLE_EQ(r.tensor_tflops, 58.0);
    EXPECT_DOUBLE_EQ(r.cuda_tflops, 29.3);
    EXPECT_DOUBLE_EQ(r.dram_gbps, 936.2);
    // The paper's RTX3090 discussion hinges on this asymmetry: tensor peak
    // drops much more than CUDA peak (§5.1).
    EXPECT_GT((a.tensor_tflops / r.tensor_tflops) /
                  (a.cuda_tflops / r.cuda_tflops),
              1.5);
}

TEST(DeviceTest, HbmCapacity)
{
    // Largest shipping variants: A100 SXM 80 GB, RTX 3090 24 GB. The
    // accessor is the byte-budget serving scheduler's default ceiling.
    const DeviceSpec a = DeviceSpec::a100();
    EXPECT_DOUBLE_EQ(a.hbm_gbytes, 80.0);
    EXPECT_EQ(a.hbm_capacity_bytes(), 80'000'000'000ull);

    const DeviceSpec r = DeviceSpec::rtx3090();
    EXPECT_DOUBLE_EQ(r.hbm_gbytes, 24.0);
    EXPECT_EQ(r.hbm_capacity_bytes(), 24'000'000'000ull);

    // Capacity is not a timing input: perturbations must leave it alone.
    DeviceSpec p = DeviceSpec::a100();
    DevicePerturbation perturb;
    perturb.dram = 0.5;
    apply_perturbation(p, perturb);
    EXPECT_DOUBLE_EQ(p.hbm_gbytes, 80.0);
}

// ---------------------------------------------------------- basic time ----

TEST(EngineTest, SingleCudaBoundBlock)
{
    LaunchGraph graph;
    TbWork w;
    w.cuda_flops = 1e6;
    graph.launch(0, one_kernel("k", w, 1));
    const SimResult r = simulate(toy_device(), graph);
    // launch 1.0 + prologue 0.5 + 1e6 / 0.5e6 = 3.5 us.
    EXPECT_NEAR(r.total_us, 3.5, 1e-6);
}

TEST(EngineTest, SingleTensorBoundBlock)
{
    LaunchGraph graph;
    TbWork w;
    w.tensor_flops = 2e6;
    graph.launch(0, one_kernel("k", w, 1));
    EXPECT_NEAR(simulate(toy_device(), graph).total_us, 1.0 + 0.5 + 2.0, 1e-6);
}

TEST(EngineTest, SingleMemoryBoundBlock)
{
    LaunchGraph graph;
    TbWork w;
    w.dram_read_bytes = 1e5;
    graph.launch(0, one_kernel("k", w, 1));
    // The per-SM cap (1e5 B/us) and DRAM rate coincide: 1 us of transfer.
    EXPECT_NEAR(simulate(toy_device(), graph).total_us, 2.5, 1e-6);
}

TEST(EngineTest, ComputeAndMemoryOverlap)
{
    LaunchGraph graph;
    TbWork w;
    w.cuda_flops = 1e6;        // 2 us alone.
    w.dram_read_bytes = 5e4;   // 0.5 us alone.
    graph.launch(0, one_kernel("k", w, 1));
    // Double buffering overlaps the two: max, not sum.
    EXPECT_NEAR(simulate(toy_device(), graph).total_us, 3.5, 1e-6);
}

TEST(EngineTest, TwoBlocksRunOnSeparateSms)
{
    LaunchGraph graph;
    TbWork w;
    w.cuda_flops = 1e6;
    graph.launch(0, one_kernel("k", w, 2));
    EXPECT_NEAR(simulate(toy_device(), graph).total_us, 3.5, 1e-6);
}

TEST(EngineTest, FourBlocksShareTwoSms)
{
    LaunchGraph graph;
    TbWork w;
    w.cuda_flops = 1e6;
    graph.launch(0, one_kernel("k", w, 4));
    // Two blocks per SM share the pipe: 4 us of compute.
    EXPECT_NEAR(simulate(toy_device(), graph).total_us, 1.0 + 0.5 + 4.0, 1e-6);
}

TEST(EngineTest, EmptyKernelFinishesAtReadyTime)
{
    LaunchGraph graph;
    KernelLaunch k;
    k.name = "empty";
    k.shape = small_shape();
    graph.launch(0, k);
    const SimResult r = simulate(toy_device(), graph);
    EXPECT_NEAR(r.total_us, 1.0, 1e-9);
    EXPECT_EQ(r.kernels.at(0).num_tbs, 0);
}

TEST(EngineTest, ZeroWorkBlocksStillPayPrologue)
{
    LaunchGraph graph;
    graph.launch(0, one_kernel("k", TbWork{}, 2));
    EXPECT_NEAR(simulate(toy_device(), graph).total_us, 1.5, 1e-6);
}

// -------------------------------------------------------- conservation ----

TEST(EngineTest, WorkCountersMatchSubmission)
{
    LaunchGraph graph;
    TbWork w;
    w.cuda_flops = 123;
    w.tensor_flops = 456;
    w.dram_read_bytes = 789;
    w.dram_write_bytes = 10;
    w.l2_bytes = 11;
    graph.launch(0, one_kernel("k", w, 7));
    const SimResult r = simulate(toy_device(), graph);
    EXPECT_DOUBLE_EQ(r.work.cuda_flops, 123 * 7);
    EXPECT_DOUBLE_EQ(r.work.tensor_flops, 456 * 7);
    EXPECT_DOUBLE_EQ(r.work.dram_read_bytes, 789 * 7);
    EXPECT_DOUBLE_EQ(r.work.dram_write_bytes, 10 * 7);
    EXPECT_DOUBLE_EQ(r.work.l2_bytes, 11 * 7);
    EXPECT_DOUBLE_EQ(r.dram_bytes(), (789.0 + 10.0) * 7);
}

TEST(EngineTest, ManyBlocksApproachRooflineThroughput)
{
    LaunchGraph graph;
    TbWork w;
    w.cuda_flops = 1e6;  // Large enough to amortize the 0.5 us prologue.
    const index_t n = 200;
    graph.launch(0, one_kernel("k", w, n));
    const SimResult r = simulate(toy_device(), graph);
    // Total compute 2e8 flops at 1e6 flops/us device-wide = 200 us.
    const double compute_us = 2e8 / 1e6;
    EXPECT_GT(r.total_us, compute_us);
    EXPECT_LT(r.total_us, compute_us * 1.25);
}

TEST(EngineTest, LoadImbalanceDominatesMakespan)
{
    LaunchGraph graph;
    KernelLaunch k;
    k.name = "imbalanced";
    k.shape = small_shape();
    TbWork heavy;
    heavy.cuda_flops = 50e6;  // 100 us alone on a full SM pipe.
    TbWork light;
    light.cuda_flops = 1e5;
    k.add_tb(heavy, 1);
    k.add_tb(light, 100);
    graph.launch(0, std::move(k));
    const SimResult r = simulate(toy_device(), graph);
    // Balanced-work lower bound would be ~60 us; the straggler forces 100+.
    EXPECT_GT(r.total_us, 100.0);
    EXPECT_LT(r.total_us, 140.0);
}

// ------------------------------------------------------------- streams ----

TEST(EngineTest, SameStreamSerializes)
{
    LaunchGraph graph;
    TbWork w;
    w.cuda_flops = 1e6;
    graph.launch(0, one_kernel("a", w, 2));
    graph.launch(0, one_kernel("b", w, 2));
    const SimResult r = simulate(toy_device(), graph);
    EXPECT_GE(r.find("b")->start_us, r.find("a")->end_us);
}

TEST(EngineTest, DifferentStreamsOverlap)
{
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    TbWork w;
    w.cuda_flops = 4e6;
    graph.launch(0, one_kernel("a", w, 2));
    graph.launch(s1, one_kernel("b", w, 2));
    const SimResult r = simulate(toy_device(), graph);
    EXPECT_LT(r.find("b")->start_us, r.find("a")->end_us);
    // Sharing the pipes makes both slower than alone but the makespan
    // shorter than serial execution.
    const double serial = 2 * (4e6 / 0.5e6);
    EXPECT_LT(r.total_us, serial + 2.0);
}

TEST(EngineTest, MultiStreamFillsIdleSms)
{
    // One block per kernel: alone, each kernel leaves an SM idle. On two
    // streams the blocks land on different SMs and fully overlap.
    LaunchGraph serial;
    TbWork w;
    w.cuda_flops = 2e6;
    serial.launch(0, one_kernel("a", w, 1));
    serial.launch(0, one_kernel("b", w, 1));
    const double t_serial = simulate(toy_device(), serial).total_us;

    LaunchGraph overlap;
    const int s1 = overlap.create_stream();
    overlap.launch(0, one_kernel("a", w, 1));
    overlap.launch(s1, one_kernel("b", w, 1));
    const double t_overlap = simulate(toy_device(), overlap).total_us;

    // 4 us compute each + two launch latencies + two prologues.
    EXPECT_NEAR(t_serial, 2 * (1.0 + 0.5 + 4.0), 1e-6);
    EXPECT_NEAR(t_overlap, 4.0 + 1.5, 1e-6);
    EXPECT_LT(t_overlap, t_serial * 0.6);
}

TEST(EngineTest, JoinStreamsOrdersAcrossStreams)
{
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    TbWork w;
    w.cuda_flops = 1e6;
    graph.launch(0, one_kernel("a", w, 1));
    graph.launch(s1, one_kernel("b", w, 1));
    graph.join_streams();
    graph.launch(s1, one_kernel("c", w, 1));
    const SimResult r = simulate(toy_device(), graph);
    EXPECT_GE(r.find("c")->start_us,
              std::max(r.find("a")->end_us, r.find("b")->end_us));
}

TEST(EngineTest, RunTwiceThrows)
{
    LaunchGraph graph;
    graph.launch(0, one_kernel("k", TbWork{}, 1));
    GpuSim sim(toy_device());
    graph.replay_into(sim);
    sim.run();
    EXPECT_THROW(sim.run(), Error);
}

// ---------------------------------------------------------- properties ----

TEST(EngineTest, Deterministic)
{
    const auto build = [] {
        LaunchGraph graph;
        const int s1 = graph.create_stream();
        TbWork w;
        w.cuda_flops = 3e5;
        w.dram_read_bytes = 2e4;
        graph.launch(0, one_kernel("a", w, 37));
        graph.launch(s1, one_kernel("b", w, 19));
        graph.join_streams();
        graph.launch(0, one_kernel("c", w, 11));
        return simulate(toy_device(), graph);
    };
    const SimResult r1 = build();
    const SimResult r2 = build();
    EXPECT_DOUBLE_EQ(r1.total_us, r2.total_us);
    for (std::size_t i = 0; i < r1.kernels.size(); ++i) {
        EXPECT_DOUBLE_EQ(r1.kernels[i].end_us, r2.kernels[i].end_us);
    }
}

TEST(EngineTest, MoreComputeNeverFaster)
{
    double prev = 0;
    for (const double flops : {1e5, 2e5, 4e5, 8e5}) {
        LaunchGraph graph;
        TbWork w;
        w.cuda_flops = flops;
        graph.launch(0, one_kernel("k", w, 16));
        const double t = simulate(toy_device(), graph).total_us;
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(EngineTest, FasterDeviceNeverSlower)
{
    TbWork w;
    w.cuda_flops = 5e5;
    w.dram_read_bytes = 4e4;

    LaunchGraph slow;
    slow.launch(0, one_kernel("k", w, 64));
    const double t_slow = simulate(toy_device(), slow).total_us;

    DeviceSpec fast_spec = toy_device();
    fast_spec.cuda_tflops *= 2;
    fast_spec.dram_gbps *= 2;
    fast_spec.l2_gbps *= 2;
    LaunchGraph fast;
    fast.launch(0, one_kernel("k", w, 64));
    const double t_fast = simulate(fast_spec, fast).total_us;

    EXPECT_LT(t_fast, t_slow);
}

TEST(EngineTest, ConcurrencyBoundedByOccupancy)
{
    LaunchGraph graph;
    TbWork w;
    w.cuda_flops = 1e6;
    graph.launch(0, one_kernel("k", w, 64));
    const SimResult r = simulate(toy_device(), graph);
    const KernelStats &k = r.kernels.at(0);
    EXPECT_LE(k.avg_concurrency,
              static_cast<double>(k.occupancy_per_sm) * 2 + 1e-9);
    EXPECT_GT(k.avg_concurrency, 1.0);
}

TEST(EngineTest, SpanAndPrefixHelpers)
{
    LaunchGraph graph;
    TbWork w;
    w.cuda_flops = 1e6;
    w.dram_write_bytes = 100;
    graph.launch(0, one_kernel("phase.a", w, 1));
    graph.launch(0, one_kernel("phase.b", w, 1));
    graph.launch(0, one_kernel("other", w, 1));
    const SimResult r = simulate(toy_device(), graph);
    EXPECT_NEAR(r.span("phase."),
                r.find("phase.b")->end_us - r.find("phase.a")->start_us,
                1e-9);
    EXPECT_DOUBLE_EQ(r.dram_bytes_for("phase."), 200.0);
    EXPECT_EQ(r.find("missing"), nullptr);
    EXPECT_DOUBLE_EQ(r.span("missing"), 0.0);
}

TEST(EngineTest, GroupedAndUngroupedSubmissionsAgree)
{
    TbWork w;
    w.cuda_flops = 2e5;
    w.dram_read_bytes = 1e4;

    LaunchGraph grouped;
    grouped.launch(0, one_kernel("k", w, 12));
    const double t_grouped = simulate(toy_device(), grouped).total_us;

    LaunchGraph ungrouped;
    KernelLaunch k;
    k.name = "k";
    k.shape = small_shape();
    for (int i = 0; i < 12; ++i) {
        k.tbs.push_back({w, 1});  // Bypass add_tb merging deliberately.
    }
    ungrouped.launch(0, std::move(k));
    const double t_ungrouped = simulate(toy_device(), ungrouped).total_us;

    EXPECT_NEAR(t_grouped, t_ungrouped, 1e-9);
}

TEST(EngineTest, L2TrafficUsesItsOwnClock)
{
    // Pure-L2 work drains at the L2 rate (4e5 B/us), not the DRAM rate;
    // raise the per-SM burst cap so it does not bind here.
    DeviceSpec d = toy_device();
    d.sm_mem_burst = 20.0;
    LaunchGraph graph;
    TbWork w;
    w.l2_bytes = 4e5;
    graph.launch(0, one_kernel("k", w, 1));
    EXPECT_NEAR(simulate(d, graph).total_us, 1.0 + 0.5 + 1.0, 1e-6);
}

TEST(EngineTest, DramPlusL2TakesTheSlowerConstraint)
{
    // dram 1e5 B at 1e5 B/us = 1 us; (dram+l2) = 1.4e5 B at L2 4e5 = 0.35;
    // per-SM cap: 1.4e5 at 1e5 = 1.4 us -> the SM burst bounds it.
    LaunchGraph graph;
    TbWork w;
    w.dram_read_bytes = 1e5;
    w.l2_bytes = 4e4;
    graph.launch(0, one_kernel("k", w, 1));
    EXPECT_NEAR(simulate(toy_device(), graph).total_us, 1.0 + 0.5 + 1.4, 1e-6);
}

TEST(EngineTest, UnitSaturationCapsLoneBlocks)
{
    // With unit_saturation = 1 a 128-thread block alone sustains at most
    // 128/1024 = 1/8 of the SM pipe; the same work then takes 8x longer.
    DeviceSpec capped = toy_device();
    capped.unit_saturation = 1.0;
    LaunchGraph graph;
    TbWork w;
    w.cuda_flops = 1e6;  // 2 us at full pipe.
    graph.launch(0, one_kernel("k", w, 1));
    EXPECT_NEAR(simulate(capped, graph).total_us, 1.0 + 0.5 + 16.0, 1e-6);
}

TEST(EngineTest, UnitSaturationIrrelevantWhenSmIsFull)
{
    // Eight resident blocks split the pipe to 1/8 each - already below the
    // saturation cap, so capped and uncapped devices agree.
    DeviceSpec capped = toy_device();
    capped.unit_saturation = 1.0;
    capped.max_tb_per_sm = 8;
    DeviceSpec uncapped = capped;
    uncapped.unit_saturation = 0.0;

    TbWork w;
    w.cuda_flops = 1e6;
    LaunchGraph graph;
    graph.launch(0, one_kernel("k", w, 16));
    EXPECT_NEAR(simulate(capped, graph).total_us,
                simulate(uncapped, graph).total_us, 1e-6);
}

TEST(EngineTest, CrossingBelowOneUlpOfNowStillFires)
{
    // A starved DRAM clock pushes the second kernel past t = 1e10 us,
    // where one ulp of time (~2e-6 us) is worth ~1 flop of CUDA-pipe
    // progress. A crossing can then land short of its threshold by more
    // than the firing tolerance while its re-prediction rounds back to the
    // same instant. The engine must fire it rather than re-predict that
    // instant forever.
    DeviceSpec d = toy_device();
    d.dram_gbps = 1e-5;  // 1e-2 B/us.
    LaunchGraph graph;
    TbWork slow;
    slow.dram_read_bytes = 1e8;  // 1e10 us.
    graph.launch(0, one_kernel("slow", slow, 1));
    TbWork fast;
    fast.cuda_flops = 1234567.891;
    graph.launch(0, one_kernel("fast", fast, 7));
    const SimResult r = simulate(d, graph);
    const KernelStats &k = r.kernels.at(1);
    EXPECT_GT(k.start_us, 1e10);
    // Four of the blocks share one SM's pipe after one 0.5 us prologue.
    EXPECT_NEAR(k.duration_us(), 0.5 + 4 * 1234567.891 / 0.5e6, 1e-3);
}

TEST(EngineTest, LaunchOnUnknownStreamThrows)
{
    LaunchGraph graph;
    EXPECT_THROW(graph.launch(3, one_kernel("k", TbWork{}, 1)), Error);
}

TEST(EngineTest, ManySmallKernelsSerializeByLaunchLatency)
{
    LaunchGraph graph;
    for (int i = 0; i < 5; ++i) {
        TbWork w;
        w.cuda_flops = 1;  // Negligible work.
        graph.launch(0, one_kernel("k", w, 1));
    }
    const double t = simulate(toy_device(), graph).total_us;
    // Each kernel pays launch latency + prologue serially.
    EXPECT_GT(t, 5 * (1.0 + 0.5));
}

// ---------------------------------------------- segments and splicing ----

/// The bound every shift-invariance check below allows: 1e-9 of the run.
double
shift_tolerance(const SimResult &r)
{
    return 1e-9 * r.total_us;
}

/// The latest end among kernels [0, n): where a barrier-separated suffix
/// starting at kernel n begins.
double
prefix_end(const SimResult &r, std::size_t n)
{
    double end = 0;
    for (std::size_t i = 0; i < n; ++i) {
        end = std::max(end, r.kernels.at(i).end_us);
    }
    return end;
}

/// Expects kernels [from, from + n) of `r`, timed from `r_origin`, to
/// time like kernels [0, n) of `ref` timed from `ref_origin`.
void
expect_same_timing(const SimResult &r, std::size_t from, double r_origin,
                   const SimResult &ref, std::size_t ref_from,
                   double ref_origin, std::size_t n)
{
    const double tol = shift_tolerance(r);
    for (std::size_t i = 0; i < n; ++i) {
        const KernelStats &a = r.kernels.at(from + i);
        const KernelStats &b = ref.kernels.at(ref_from + i);
        SCOPED_TRACE("kernel " + a.name);
        EXPECT_NEAR(a.ready_us - r_origin, b.ready_us - ref_origin, tol);
        EXPECT_NEAR(a.start_us - r_origin, b.start_us - ref_origin, tol);
        EXPECT_NEAR(a.end_us - r_origin, b.end_us - ref_origin, tol);
        EXPECT_EQ(a.avg_concurrency, b.avg_concurrency);
    }
}

/// `phases` phases on three streams, a join after each; every kernel's
/// work is distinct, scaled by `scale`.
LaunchGraph
phased_graph(int phases, double scale)
{
    LaunchGraph g;
    g.create_stream();
    g.create_stream();
    for (int p = 0; p < phases; ++p) {
        for (int s = 0; s < 3; ++s) {
            TbWork w;
            w.cuda_flops = scale * 1e4 * (1 + p) * (1 + s);
            w.dram_read_bytes = scale * 3e3 * (3 - s) * (1 + p);
            w.tensor_flops = scale * 2e4 * (1 + s);
            g.launch(s, one_kernel(("p" + std::to_string(p) + "s" +
                                    std::to_string(s)).c_str(),
                                   w, 5 + 2 * s));
        }
        g.join_streams();
    }
    return g;
}

/// The parts one after another, each behind a full barrier, all on the
/// same three real streams (as the runner replays its layers).
LaunchGraph
barrier_program(const std::vector<const LaunchGraph *> &parts)
{
    LaunchGraph prog;
    const std::vector<int> map = {0, prog.create_stream(),
                                  prog.create_stream()};
    for (const LaunchGraph *part : parts) {
        prog.join_streams();
        prog.append(*part, "", &map);
    }
    return prog;
}

TEST(EngineTest, IdenticalLayersTimeIdentically)
{
    // Longformer's layers run long enough that a tolerance scaled by
    // absolute time would time its later layers apart.
    ModelConfig model = ModelConfig::longformer_large();
    model.num_layers = 4;
    Rng rng(2022);
    const TransformerRunner runner(model, SliceMode::kMultigrain,
                                   sample_for_model(rng, model),
                                   /*batch=*/1);
    const SimResult r = runner.simulate(DeviceSpec::a100()).sim;
    // "L%02d.<kernel>": group each layer's kernel by what follows the
    // layer tag.
    std::map<std::string, std::vector<double>> durations;
    for (const KernelStats &k : r.kernels) {
        ASSERT_EQ(k.name.rfind('L', 0), 0u) << k.name;
        durations[k.name.substr(4)].push_back(k.duration_us());
    }
    ASSERT_FALSE(durations.empty());
    for (const auto &[kernel, d] : durations) {
        SCOPED_TRACE(kernel);
        ASSERT_EQ(d.size(), 4u);
        const auto [lo, hi] = std::minmax_element(d.begin(), d.end());
        EXPECT_LE(*hi - *lo, shift_tolerance(r));
    }
}

TEST(EngineTest, BarrierSeparatedPrefixDoesNotShiftTiming)
{
    const LaunchGraph prefixes[] = {random_program(101),
                                    random_program(202)};
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        const LaunchGraph graph = random_program(seed);
        for (const bool saturation : {false, true}) {
            const DeviceSpec d = order_toy_device(saturation);
            const SimResult alone = simulate(d, graph);
            for (const LaunchGraph &prefix : prefixes) {
                SCOPED_TRACE("seed " + std::to_string(seed) +
                             (saturation ? " saturation on" : "") +
                             " prefix of " + std::to_string(prefix.size()));
                LaunchGraph prog = prefix;
                prog.join_streams();
                prog.append(graph);
                const SimResult r = simulate(d, prog);
                ASSERT_EQ(r.kernels.size(), prefix.size() + graph.size());
                expect_same_timing(r, prefix.size(),
                                   prefix_end(r, prefix.size()), alone, 0, 0,
                                   graph.size());
            }
        }
    }
}

TEST(EngineTest, SplicedSegmentMatchesFreshSimulation)
{
    const LaunchGraph a = phased_graph(3, 1.0);
    const LaunchGraph b = phased_graph(3, 1.7);
    const DeviceSpec d = toy_device();
    const SimResult aba = simulate(d, barrier_program({&a, &b, &a}));
    const SimResult ba = simulate(d, barrier_program({&b, &a}));
    // The second A reruns the first A's phases 1 and 2 (phase 0 waits on
    // B, so its deps differ); [B, A] repeats nothing.
    EXPECT_EQ(aba.engine.segment_hits, 2);
    EXPECT_EQ(aba.engine.spliced_kernels, 6);
    EXPECT_EQ(ba.engine.segment_hits, 0);
    EXPECT_EQ(ba.engine.spliced_kernels, 0);
    const std::size_t n = a.size();
    expect_same_timing(aba, 2 * n, prefix_end(aba, 2 * n), ba, n,
                       prefix_end(ba, n), n);
}

TEST(EngineTest, OneChangedWorkValueMisses)
{
    const LaunchGraph a = phased_graph(2, 1.0);
    LaunchGraph changed = a;
    // The last phase's stream-1 kernel: the one segment that could repeat.
    changed.launch_for_test(4).tbs.front().work.dram_read_bytes *= 4;
    const DeviceSpec d = toy_device();
    const SimResult r = simulate(d, barrier_program({&a, &changed}));
    const SimResult alone = simulate(d, barrier_program({&changed}));
    EXPECT_EQ(r.engine.segment_hits, 0);
    EXPECT_EQ(r.engine.spliced_kernels, 0);
    EXPECT_EQ(r.engine.segments, 4);
    const std::size_t n = a.size();
    expect_same_timing(r, n, prefix_end(r, n), alone, 0, 0, n);
    // A splice of A's phase would have timed the changed kernel as A's.
    EXPECT_GT(r.kernels.at(n + 4).duration_us(),
              r.kernels.at(4).duration_us());
}

/// `copies` copies of random_program(seed) on the same real streams, each
/// behind a barrier or overlapping the previous copy through stream order.
/// About one copy in four changes a work value, one in four adds a join
/// and one in four moves a kernel to the next stream, so repeats,
/// near-repeats and overlaps all occur.
LaunchGraph
repeated_program(std::uint64_t seed, int copies)
{
    const LaunchGraph graph = random_program(seed);
    const int streams = graph.num_streams();
    Rng rng(seed + 1000);
    LaunchGraph prog;
    std::vector<int> map = {0};
    for (int s = 1; s < streams; ++s) {
        map.push_back(prog.create_stream());
    }
    for (int c = 0; c < copies; ++c) {
        if (rng.next_below(2) == 0) {
            prog.join_streams();
        }
        const std::uint64_t change = rng.next_below(4);
        const auto target = static_cast<int>(rng.next_below(graph.size()));
        for (const int op : graph.ops()) {
            if (op == LaunchGraph::kJoin) {
                prog.join_streams();
                continue;
            }
            const LaunchGraphNode &node =
                graph.nodes()[static_cast<std::size_t>(op)];
            KernelLaunch launch = node.launch;
            int stream = node.stream;
            if (op == target) {
                if (change == 0 && !launch.tbs.empty()) {
                    launch.tbs.front().work.cuda_flops += 1e4;
                } else if (change == 1) {
                    prog.join_streams();
                } else if (change == 2) {
                    stream = (stream + 1) % streams;
                }
            }
            prog.launch(map[static_cast<std::size_t>(stream)],
                        std::move(launch));
        }
    }
    return prog;
}

TEST(EngineTest, SplicedProgramsMatchUnsplicedOnes)
{
    std::int64_t hits = 0;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        const LaunchGraph prog = repeated_program(seed, 4);
        // A few distinct bytes of shared memory per kernel make every
        // kernel unique, so nothing is spliced; on the toy device they are
        // too few to change any occupancy or admission.
        LaunchGraph fresh = prog;
        for (int k = 0; k < static_cast<int>(fresh.size()); ++k) {
            fresh.launch_for_test(k).shape.smem_bytes += 1 + k;
        }
        for (const bool saturation : {false, true}) {
            SCOPED_TRACE("seed " + std::to_string(seed) +
                         (saturation ? " saturation on" : ""));
            const DeviceSpec d = order_toy_device(saturation);
            const SimResult a = simulate(d, prog);
            const SimResult b = simulate(d, fresh);
            ASSERT_EQ(b.engine.segment_hits, 0);
            hits += a.engine.segment_hits;
            ASSERT_EQ(a.kernels.size(), b.kernels.size());
            for (std::size_t k = 0; k < a.kernels.size(); ++k) {
                SCOPED_TRACE("kernel " + std::to_string(k));
                EXPECT_EQ(a.kernels[k].ready_us, b.kernels[k].ready_us);
                EXPECT_EQ(a.kernels[k].start_us, b.kernels[k].start_us);
                EXPECT_EQ(a.kernels[k].end_us, b.kernels[k].end_us);
                EXPECT_EQ(a.kernels[k].avg_concurrency,
                          b.kernels[k].avg_concurrency);
            }
        }
    }
    EXPECT_GT(hits, 0);
}

TEST(TraceTest, ChromeTraceContainsKernelsAndStreams)
{
    LaunchGraph graph;
    const int s1 = graph.create_stream();
    TbWork w;
    w.cuda_flops = 1e6;
    w.dram_write_bytes = 100;
    graph.launch(0, one_kernel("kernel_a", w, 2));
    graph.launch(s1, one_kernel("kernel_b", w, 1));
    const SimResult r = simulate(toy_device(), graph);
    const std::string json = chrome_trace_json(r, toy_device());

    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("kernel_a"), std::string::npos);
    EXPECT_NE(json.find("kernel_b"), std::string::npos);
    EXPECT_NE(json.find("stream 0"), std::string::npos);
    EXPECT_NE(json.find("stream 1"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    // Braces and brackets balance (cheap JSON well-formedness check).
    index_t braces = 0, brackets = 0;
    for (const char c : json) {
        braces += c == '{' ? 1 : (c == '}' ? -1 : 0);
        brackets += c == '[' ? 1 : (c == ']' ? -1 : 0);
        ASSERT_GE(braces, 0);
        ASSERT_GE(brackets, 0);
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

TEST(TraceTest, EscapesSpecialCharactersInNames)
{
    LaunchGraph graph;
    TbWork w;
    w.cuda_flops = 1;
    graph.launch(0, one_kernel("weird\"name\\with\nstuff", w, 1));
    const std::string json =
        chrome_trace_json(simulate(toy_device(), graph), toy_device());
    EXPECT_NE(json.find("weird\\\"name\\\\with\\nstuff"),
              std::string::npos);
}

TEST(LaunchTest, AddTbMergesIdenticalTailGroups)
{
    KernelLaunch k;
    TbWork w;
    w.cuda_flops = 5;
    k.add_tb(w, 3);
    k.add_tb(w, 2);
    EXPECT_EQ(k.tbs.size(), 1u);
    EXPECT_EQ(k.num_tbs(), 5);
    w.cuda_flops = 6;
    k.add_tb(w, 1);
    EXPECT_EQ(k.tbs.size(), 2u);
    EXPECT_DOUBLE_EQ(k.total_work().cuda_flops, 5 * 5 + 6);
}

}  // namespace
}  // namespace multigrain::sim
