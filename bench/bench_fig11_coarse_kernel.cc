// Figure 11: our coarse-grained kernels against the Triton-style blocked
// kernels on pure coarse patterns (local, blocked local, blocked random)
// at batch 1, 4 heads, d_h = 64, on A100.
//
// Paper shape to reproduce: we win modestly on local / blocked-local
// (SDDMM 1.26x / 1.24x, SpMM 1.15x / 1.44x) thanks to SMEM row reuse and
// higher occupancy, but *lose* (~25 % slower SDDMM) on blocked-random at
// batch 1: our blocked row-splitting assigns whole block rows to single
// thread blocks and the per-row block counts vary, while Triton's
// per-block mapping has no imbalance. Fig. 12 shows batching recovers it.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <string>

#include "bench_util.h"
#include "formats/convert.h"
#include "gpusim/device.h"
#include "kernels/blocked_baseline.h"
#include "kernels/coarse.h"
#include "patterns/presets.h"
#include "patterns/slice.h"

namespace {

using namespace multigrain;

constexpr index_t kSeqLen = 4096;
constexpr index_t kHeadDim = 64;
constexpr index_t kHeads = 4;

struct OpTimes {
    double ours_sddmm = 0;
    double triton_sddmm = 0;
    double ours_spmm = 0;
    double triton_spmm = 0;
};

double
simulate_one(sim::KernelLaunch launch)
{
    LaunchGraph graph;
    graph.launch(0, std::move(launch));
    return sim::simulate(sim::DeviceSpec::a100(), graph).total_us;
}

OpTimes
run_pattern(const CompoundPattern &pattern, index_t batch)
{
    SliceOptions options;
    options.block = 64;
    options.mode = SliceMode::kCoarseOnly;
    const SlicePlan plan = slice_and_dice(pattern, options);
    const BsrLayout &bsr = *plan.coarse;
    const BcooLayout bcoo = bcoo_from_bsr(bsr);
    const sim::DeviceSpec dev = sim::DeviceSpec::a100();
    const index_t replicas = batch * kHeads;

    OpTimes t;
    t.ours_sddmm = simulate_one(
        kernels::plan_coarse_sddmm(dev, bsr, kHeadDim, replicas));
    t.triton_sddmm = simulate_one(
        kernels::plan_triton_sddmm(dev, bcoo, kHeadDim, replicas));
    t.ours_spmm = simulate_one(
        kernels::plan_coarse_spmm(dev, bsr, kHeadDim, replicas));
    t.triton_spmm = simulate_one(
        kernels::plan_triton_spmm(dev, bsr, kHeadDim, replicas));
    return t;
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::report_name("fig11_coarse_kernel");
    std::map<std::string, OpTimes> all;
    for (const auto &[label, pattern] : fig11_patterns(kSeqLen, 2022)) {
        const OpTimes t = run_pattern(pattern, 1);
        all[label] = t;
        bench::report_row("fig11")
            .label("pattern", label)
            .metric("ours_sddmm_us", t.ours_sddmm)
            .metric("triton_sddmm_us", t.triton_sddmm)
            .metric("ours_spmm_us", t.ours_spmm)
            .metric("triton_spmm_us", t.triton_spmm);
    }

    bench::print_title(
        "Figure 11 — our coarse kernel vs Triton-style blocked kernel "
        "(A100, batch 1, 4 heads, d_h=64)");
    std::printf("%-15s | %-24s | %-24s\n", "pattern",
                "SDDMM ours/Triton (us)", "SpMM ours/Triton (us)");
    bench::print_rule();
    for (const auto &[label, pattern] : fig11_patterns(kSeqLen, 2022)) {
        const OpTimes &t = all.at(label);
        std::printf("%-15s | %7.1f / %7.1f  %5s | %7.1f / %7.1f  %5s\n",
                    label.c_str(), t.ours_sddmm, t.triton_sddmm,
                    bench::fmt_speedup(t.triton_sddmm / t.ours_sddmm)
                        .c_str(),
                    t.ours_spmm, t.triton_spmm,
                    bench::fmt_speedup(t.triton_spmm / t.ours_spmm)
                        .c_str());
    }

    for (const auto &[label, pattern] : fig11_patterns(kSeqLen, 2022)) {
        const CompoundPattern pat = pattern;
        benchmark::RegisterBenchmark(
            (std::string("fig11/") + label).c_str(),
            [pat](benchmark::State &state) {
                for (auto _ : state) {
                    const OpTimes t = run_pattern(pat, 1);
                    state.SetIterationTime((t.ours_sddmm + t.ours_spmm) *
                                           1e-6);
                    state.counters["sddmm_vs_triton"] =
                        t.triton_sddmm / t.ours_sddmm;
                    state.counters["spmm_vs_triton"] =
                        t.triton_spmm / t.ours_spmm;
                }
            })
            ->UseManualTime()
            ->Iterations(1)
            ->Unit(benchmark::kMicrosecond);
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
