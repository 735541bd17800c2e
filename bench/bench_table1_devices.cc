// Table 1: the GPU specifications the evaluation runs on, plus roofline
// microbenchmarks that validate the simulator against them — a large dense
// FP16 tensor-core GEMM should achieve the calibrated fraction of the
// Table 1 tensor peak, a big element-wise pass the calibrated fraction of
// the DRAM bandwidth, and a CUDA-core-heavy kernel the calibrated fraction
// of the CUDA peak.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "gpusim/device.h"
#include "kernels/cost_model.h"
#include "kernels/dense.h"

namespace {

using namespace multigrain;

struct Roofline {
    double gemm_tflops = 0;
    double stream_gbps = 0;
    double cuda_tflops = 0;
};

/// One kernel recorded into a graph, simulated alone on `device`.
sim::SimResult
simulate_one(const sim::DeviceSpec &device, sim::KernelLaunch launch)
{
    LaunchGraph graph;
    graph.launch(0, std::move(launch));
    return sim::simulate(device, graph);
}

Roofline
measure(const sim::DeviceSpec &device)
{
    Roofline r;
    {
        // 8192^3 FP16 GEMM.
        const double flops = 2.0 * 8192 * 8192 * 8192;
        const sim::SimResult res = simulate_one(
            device,
            kernels::plan_dense_gemm(device, 8192, 8192, 8192, 1, "gemm"));
        r.gemm_tflops = flops / res.total_us / 1e6;
    }
    {
        // 1 GiB element-wise stream (1 read + 1 write).
        const index_t elements = 256ll << 20;
        const sim::SimResult res = simulate_one(
            device,
            kernels::plan_elementwise(device, elements, 1, 1.0, "stream"));
        r.stream_gbps = res.work.dram_bytes() / res.total_us / 1e3;
    }
    {
        // CUDA-core-bound kernel: lots of flops, negligible memory.
        sim::KernelLaunch launch;
        launch.name = "fma";
        launch.shape = kernels::fine_shape();
        sim::TbWork w;
        w.cuda_flops = 1e8;
        launch.add_tb(w, device.num_sms * 32);
        const double flops = launch.total_work().cuda_flops;
        r.cuda_tflops =
            flops / simulate_one(device, std::move(launch)).total_us / 1e6;
    }
    return r;
}

void
print_device(const sim::DeviceSpec &d, const Roofline &r)
{
    std::printf("%-9s | %8.1f | %8.1f | %8.1f | %8d | %6.0f | %9.1f | "
                "%9.1f | %9.1f\n",
                d.name.c_str(), d.dram_gbps, d.cuda_tflops, d.tensor_tflops,
                d.l1_kb_per_sm, d.l2_mb, r.gemm_tflops, r.cuda_tflops,
                r.stream_gbps);
}

void
report_device(const sim::DeviceSpec &d, const Roofline &r)
{
    bench::report_row("table1")
        .label("device", d.name)
        .metric("dram_gbps", d.dram_gbps)
        .metric("cuda_tflops", d.cuda_tflops)
        .metric("tensor_tflops", d.tensor_tflops)
        .metric("measured_gemm_tflops", r.gemm_tflops)
        .metric("measured_cuda_tflops", r.cuda_tflops)
        .metric("measured_stream_gbps", r.stream_gbps);
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::report_name("table1_devices");
    bench::print_title(
        "Table 1 — device specifications and simulator roofline check");
    std::printf("%-9s | %8s | %8s | %8s | %8s | %6s | %9s | %9s | %9s\n",
                "GPU", "BW GB/s", "CUDA TF", "TC TF", "L1 KB/SM", "L2 MB",
                "meas. TC", "meas.CUDA", "meas. GB/s");
    bench::print_rule(100);
    const sim::DeviceSpec a100 = sim::DeviceSpec::a100();
    const sim::DeviceSpec rtx = sim::DeviceSpec::rtx3090();
    const Roofline ra = measure(a100);
    const Roofline rr = measure(rtx);
    print_device(a100, ra);
    print_device(rtx, rr);
    report_device(a100, ra);
    report_device(rtx, rr);
    bench::print_rule(100);
    std::printf(
        "achieved fractions: A100 TC %.0f%%, CUDA %.0f%%, BW %.0f%%; "
        "RTX3090 TC %.0f%%, CUDA %.0f%%, BW %.0f%%\n",
        100 * ra.gemm_tflops / a100.tensor_tflops,
        100 * ra.cuda_tflops / a100.cuda_tflops,
        100 * ra.stream_gbps / a100.dram_gbps,
        100 * rr.gemm_tflops / rtx.tensor_tflops,
        100 * rr.cuda_tflops / rtx.cuda_tflops,
        100 * rr.stream_gbps / rtx.dram_gbps);

    for (const char *name : {"A100", "RTX3090"}) {
        const bool is_a100 = std::string(name) == "A100";
        benchmark::RegisterBenchmark(
            (std::string("table1/roofline/") + name).c_str(),
            [is_a100](benchmark::State &state) {
                const sim::DeviceSpec d = is_a100
                                              ? sim::DeviceSpec::a100()
                                              : sim::DeviceSpec::rtx3090();
                for (auto _ : state) {
                    const Roofline r = measure(d);
                    state.SetIterationTime(1e-6);
                    state.counters["gemm_tflops"] = r.gemm_tflops;
                    state.counters["stream_gbps"] = r.stream_gbps;
                }
            })
            ->UseManualTime()
            ->Iterations(1);
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
