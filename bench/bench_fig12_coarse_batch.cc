// Figure 12: the Fig. 11 comparison swept over batch size. Batching
// multiplies the thread-block count, which hides our blocked
// row-splitting scheme's load imbalance on blocked-random patterns and
// improves SM utilization everywhere.
//
// Paper shape to reproduce: our coarse SDDMM overtakes Triton on
// blocked-random at batch 4-8 (up to 1.32x) and the SpMM margins grow
// with batch (up to 1.43x / 2.02x / 1.49x on local / blocked-local /
// blocked-random).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

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
const std::vector<index_t> kBatches = {1, 2, 4, 8};

double
simulate_one(sim::KernelLaunch launch)
{
    LaunchGraph graph;
    graph.launch(0, std::move(launch));
    return sim::simulate(sim::DeviceSpec::a100(), graph).total_us;
}

struct Ratios {
    double sddmm = 0;  ///< Triton time / our time.
    double spmm = 0;
};

Ratios
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

    Ratios r;
    r.sddmm =
        simulate_one(
            kernels::plan_triton_sddmm(dev, bcoo, kHeadDim, replicas)) /
        simulate_one(
            kernels::plan_coarse_sddmm(dev, bsr, kHeadDim, replicas));
    r.spmm =
        simulate_one(
            kernels::plan_triton_spmm(dev, bsr, kHeadDim, replicas)) /
        simulate_one(
            kernels::plan_coarse_spmm(dev, bsr, kHeadDim, replicas));
    return r;
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::report_name("fig12_coarse_batch");
    bench::print_title(
        "Figure 12 — our coarse kernel speedup over Triton vs batch size "
        "(A100, 4 heads, d_h=64)");
    std::printf("%-15s %6s | %12s | %12s\n", "pattern", "batch",
                "SDDMM", "SpMM");
    bench::print_rule(60);
    std::map<std::string, std::map<index_t, Ratios>> all;
    for (const auto &[label, pattern] : fig11_patterns(kSeqLen, 2022)) {
        for (const index_t batch : kBatches) {
            const Ratios r = run_pattern(pattern, batch);
            all[label][batch] = r;
            bench::report_row("fig12")
                .label("pattern", label)
                .metric("batch", static_cast<double>(batch))
                .metric("sddmm_vs_triton", r.sddmm)
                .metric("spmm_vs_triton", r.spmm);
            std::printf("%-15s %6lld | %12s | %12s\n", label.c_str(),
                        static_cast<long long>(batch),
                        bench::fmt_speedup(r.sddmm).c_str(),
                        bench::fmt_speedup(r.spmm).c_str());
        }
    }

    for (const auto &[label, pattern] : fig11_patterns(kSeqLen, 2022)) {
        for (const index_t batch : kBatches) {
            const CompoundPattern pat = pattern;
            const std::string name = std::string("fig12/") + label +
                                     "/batch" + std::to_string(batch);
            benchmark::RegisterBenchmark(
                name.c_str(),
                [pat, batch](benchmark::State &state) {
                    for (auto _ : state) {
                        const Ratios r = run_pattern(pat, batch);
                        state.SetIterationTime(1e-6);
                        state.counters["sddmm_vs_triton"] = r.sddmm;
                        state.counters["spmm_vs_triton"] = r.spmm;
                    }
                })
                ->UseManualTime()
                ->Iterations(1);
        }
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
