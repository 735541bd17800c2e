// §2.4 special methods: for *pure banded* patterns, Longformer's sliding
// chunk and BigBird's blockify reshape the band into dense GEMMs, fully
// using dense hardware — at the price of pre-processing memory copies
// (2x / 3x duplication of K and V) and of computing the masked-out ~1/3
// of every chunk slab. This bench compares them against Multigrain's
// coarse path (which needs no copies) and the Triton-style blocked
// baseline on the same pattern, reproducing the paper's qualitative §2.4
// argument for why Multigrain does not adopt the chunked methods.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "core/attention.h"
#include "gpusim/device.h"
#include "kernels/chunked_baseline.h"
#include "patterns/pattern.h"

namespace {

using namespace multigrain;

constexpr index_t kSeqLen = 4096;
constexpr index_t kHeadDim = 64;
constexpr index_t kHeads = 4;

AttentionConfig
config()
{
    AttentionConfig c;
    c.head_dim = kHeadDim;
    c.num_heads = kHeads;
    c.block = 64;
    return c;
}

struct Row {
    double multigrain_us = 0;
    double chunked_us = 0;
    double chunked_copy_gb = 0;
    double triton_us = 0;
};

Row
run_local(index_t window)
{
    Row row;
    CompoundPattern pattern;
    pattern.seq_len = kSeqLen;
    pattern.atoms.push_back(AtomicPattern::local(window));
    row.multigrain_us =
        AttentionEngine(pattern, config(), SliceMode::kMultigrain)
            .simulate(sim::DeviceSpec::a100())
            .total_us;
    row.triton_us =
        AttentionEngine(pattern, config(), SliceMode::kCoarseOnly)
            .simulate(sim::DeviceSpec::a100())
            .total_us;
    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    const sim::SimResult r = sim::simulate(
        device, kernels::plan_sliding_chunk(device, kSeqLen, window,
                                            kHeadDim, kHeads));
    row.chunked_us = r.total_us;
    row.chunked_copy_gb = r.dram_bytes_for("chunk.copy") / 1e9;
    return row;
}

Row
run_blocked(index_t block)
{
    Row row;
    CompoundPattern pattern;
    pattern.seq_len = kSeqLen;
    pattern.atoms.push_back(AtomicPattern::blocked_local(block, 1));
    row.multigrain_us =
        AttentionEngine(pattern, config(), SliceMode::kMultigrain)
            .simulate(sim::DeviceSpec::a100())
            .total_us;
    row.triton_us =
        AttentionEngine(pattern, config(), SliceMode::kCoarseOnly)
            .simulate(sim::DeviceSpec::a100())
            .total_us;
    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    const sim::SimResult r = sim::simulate(
        device,
        kernels::plan_blockify(device, kSeqLen, block, kHeadDim, kHeads));
    row.chunked_us = r.total_us;
    row.chunked_copy_gb = r.dram_bytes_for("blockify.copy") / 1e9;
    return row;
}

void
print_row(const char *label, const Row &row)
{
    std::printf("%-24s | %10.1f | %10.1f (%5.3f GB copies) | %10.1f\n",
                label, row.multigrain_us, row.chunked_us,
                row.chunked_copy_gb, row.triton_us);
    bench::report_row("section24")
        .label("pattern", label)
        .metric("multigrain_us", row.multigrain_us)
        .metric("chunked_us", row.chunked_us)
        .metric("chunked_copy_gb", row.chunked_copy_gb)
        .metric("triton_us", row.triton_us);
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::report_name("section24_chunked");
    bench::print_title(
        "§2.4 — chunked methods vs Multigrain's coarse path "
        "(A100, L=4096, 4 heads, whole attention op)");
    std::printf("%-24s | %10s | %33s | %10s\n", "pattern", "MG (us)",
                "sliding-chunk/blockify (us)", "Triton (us)");
    bench::print_rule(90);
    print_row("local w=256", run_local(256));
    print_row("local w=128", run_local(128));
    print_row("blocked_local b=64", run_blocked(64));
    print_row("blocked_local b=128", run_blocked(128));

    for (const index_t window : {128, 256}) {
        benchmark::RegisterBenchmark(
            ("section24/local_w" + std::to_string(window)).c_str(),
            [window](benchmark::State &state) {
                for (auto _ : state) {
                    const Row row = run_local(window);
                    state.SetIterationTime(row.multigrain_us * 1e-6);
                    state.counters["vs_chunked"] =
                        row.chunked_us / row.multigrain_us;
                    state.counters["vs_triton"] =
                        row.triton_us / row.multigrain_us;
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
