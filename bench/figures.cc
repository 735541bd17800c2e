#include "figures.h"

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/attention.h"
#include "core/plan_cache.h"
#include "formats/convert.h"
#include "gpusim/engine.h"
#include "gpusim/report.h"
#include "kernels/blocked_baseline.h"
#include "kernels/chunked_baseline.h"
#include "kernels/coarse.h"
#include "kernels/cost_model.h"
#include "kernels/dense.h"
#include "kernels/fine.h"
#include "patterns/presets.h"
#include "patterns/slice.h"
#include "serve/cluster.h"
#include "serve/server.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"

namespace multigrain::bench {
namespace {

// ---- Shared workload settings and helpers -------------------------------

/// The kernel-level setting of the paper's §5.2 figures: L = 4096, 95 %
/// row sparsity, 4 heads, d_h = 64, 64-wide coarse blocks, batch 1.
constexpr index_t kSeqLen = 4096;
constexpr double kDensity = 0.05;
constexpr index_t kHeadDim = 64;
constexpr index_t kHeads = 4;
constexpr std::uint64_t kSeed = 2022;

/// Builders emit a cell's three processing methods in this order:
/// Multigrain, Triton-style (coarse-only), Sputnik-style (fine-only).
constexpr std::array<SliceMode, 3> kModes = {
    SliceMode::kMultigrain, SliceMode::kCoarseOnly, SliceMode::kFineOnly};
const std::vector<index_t> kBatches = {1, 2, 4, 8};

AttentionConfig
attention_config()
{
    AttentionConfig config;
    config.head_dim = kHeadDim;
    config.num_heads = kHeads;
    config.batch = 1;
    config.block = 64;
    return config;
}

using Labels = std::vector<std::pair<std::string, std::string>>;
using Metrics = std::vector<std::pair<std::string, double>>;

prof::BenchRow &
add_row(prof::BenchRun &run, std::string series, Labels labels,
        Metrics metrics)
{
    run.rows.push_back(
        {std::move(series), std::move(labels), std::move(metrics)});
    return run.rows.back();
}

/// One kernel recorded into a graph and simulated alone on `device`.
sim::SimResult
simulate_one(const sim::DeviceSpec &device, sim::KernelLaunch launch)
{
    LaunchGraph graph;
    graph.launch(0, std::move(launch));
    return sim::simulate(device, graph);
}

struct CoarseTimes {
    double ours_sddmm = 0;
    double triton_sddmm = 0;
    double ours_spmm = 0;
    double triton_spmm = 0;
};

/// Our coarse SDDMM/SpMM kernels against the Triton-style blocked ones
/// on `pattern` sliced coarse-only, at `batch` × 4 heads (Figs. 11–12).
CoarseTimes
coarse_kernel_times(const sim::DeviceSpec &device,
                    const CompoundPattern &pattern, index_t batch)
{
    SliceOptions options;
    options.block = 64;
    options.mode = SliceMode::kCoarseOnly;
    const SlicePlan plan = slice_and_dice(pattern, options);
    const BsrLayout &bsr = *plan.coarse;
    const BcooLayout bcoo = bcoo_from_bsr(bsr);
    const index_t replicas = batch * kHeads;
    const auto us = [&device](sim::KernelLaunch launch) {
        return simulate_one(device, std::move(launch)).total_us;
    };
    CoarseTimes t;
    t.ours_sddmm = us(
        kernels::plan_coarse_sddmm(device, bsr, kHeadDim, replicas));
    t.triton_sddmm = us(
        kernels::plan_triton_sddmm(device, bcoo, kHeadDim, replicas));
    t.ours_spmm = us(
        kernels::plan_coarse_spmm(device, bsr, kHeadDim, replicas));
    t.triton_spmm = us(
        kernels::plan_triton_spmm(device, bsr, kHeadDim, replicas));
    return t;
}

// ---- Table printing: every printer reads only its builder's rows --------

void
print_rule(int width = 78)
{
    std::printf("%s\n", std::string(static_cast<std::size_t>(width), '-')
                            .c_str());
}

void
print_title(const std::string &title)
{
    std::printf("\n");
    print_rule();
    std::printf("%s\n", title.c_str());
    print_rule();
}

/// "1.83x" style formatting for speedup cells.
std::string
fmt_speedup(double ratio)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2fx", ratio);
    return buf;
}

std::string
fmt_ms(double us)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", us / 1000.0);
    return buf;
}

std::string
fmt_gb(double bytes)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", bytes / 1e9);
    return buf;
}

const std::string &
label(const prof::BenchRow &row, const std::string &key)
{
    for (const auto &[k, v] : row.labels) {
        if (k == key) {
            return v;
        }
    }
    throw Error("row " + row.key() + " has no label " + key);
}

double
metric(const prof::BenchRow &row, const std::string &key)
{
    if (const double *value = row.find_metric(key)) {
        return *value;
    }
    throw Error("row " + row.key() + " has no metric " + key);
}

std::vector<const prof::BenchRow *>
rows_of(const prof::BenchRun &run, const std::string &series)
{
    std::vector<const prof::BenchRow *> rows;
    for (const prof::BenchRow &row : run.rows) {
        if (row.series == series) {
            rows.push_back(&row);
        }
    }
    return rows;
}

/// The first row of `series` whose label `key` is `value`.
const prof::BenchRow &
row_with(const prof::BenchRun &run, const std::string &series,
         const std::string &key, const std::string &value)
{
    for (const prof::BenchRow *row : rows_of(run, series)) {
        if (label(*row, key) == value) {
            return *row;
        }
    }
    throw Error("no " + series + " row with " + key + "=" + value);
}

/// One cell's three consecutive per-method rows, in emission order.
struct ModeRows {
    std::array<const prof::BenchRow *, 3> rows;

    const prof::BenchRow &
    at(SliceMode mode) const
    {
        for (const prof::BenchRow *row : rows) {
            if (label(*row, "mode") == to_string(mode)) {
                return *row;
            }
        }
        throw Error(std::string("cell has no ") + to_string(mode) + " row");
    }
};

/// Splits `series` into consecutive triples, one row per method.
std::vector<ModeRows>
mode_rows(const prof::BenchRun &run, const std::string &series)
{
    const std::vector<const prof::BenchRow *> rows = rows_of(run, series);
    MG_CHECK(rows.size() % kModes.size() == 0)
        << series << " rows do not come in method triples";
    std::vector<ModeRows> cells;
    for (std::size_t i = 0; i < rows.size(); i += kModes.size()) {
        cells.push_back({{rows[i], rows[i + 1], rows[i + 2]}});
    }
    return cells;
}

// ---- Table 1 -------------------------------------------------------------

/// Table 1: the device's specifications, plus roofline microbenchmarks
/// that validate the simulator against them — a large dense FP16
/// tensor-core GEMM, a big element-wise stream and a CUDA-core-heavy
/// kernel should each reach the calibrated fraction of their peak.
prof::BenchRun
build_table1(const sim::DeviceSpec &device)
{
    // 8192^3 FP16 GEMM.
    const double gemm_flops = 2.0 * 8192 * 8192 * 8192;
    const double gemm_tflops =
        gemm_flops /
        simulate_one(device, kernels::plan_dense_gemm(device, 8192, 8192,
                                                      8192, 1, "gemm"))
            .total_us /
        1e6;
    // 1 GiB element-wise stream (1 read + 1 write).
    const sim::SimResult stream = simulate_one(
        device,
        kernels::plan_elementwise(device, 256ll << 20, 1, 1.0, "stream"));
    const double stream_gbps =
        stream.work.dram_bytes() / stream.total_us / 1e3;
    // CUDA-core-bound kernel: lots of flops, negligible memory.
    sim::KernelLaunch fma;
    fma.name = "fma";
    fma.shape = kernels::fine_shape();
    sim::TbWork work;
    work.cuda_flops = 1e8;
    fma.add_tb(work, device.num_sms * 32);
    const double cuda_flops = fma.total_work().cuda_flops;
    const double cuda_tflops =
        cuda_flops / simulate_one(device, std::move(fma)).total_us / 1e6;

    prof::BenchRun run;
    add_row(run, "table1", {},
            {{"dram_gbps", device.dram_gbps},
             {"cuda_tflops", device.cuda_tflops},
             {"tensor_tflops", device.tensor_tflops},
             {"measured_gemm_tflops", gemm_tflops},
             {"measured_cuda_tflops", cuda_tflops},
             {"measured_stream_gbps", stream_gbps}});
    add_row(run, "table1.memory", {},
            {{"l1_kb_per_sm", device.l1_kb_per_sm},
             {"l2_mb", device.l2_mb}});
    return run;
}

void
print_table1(const prof::BenchRun &run)
{
    print_title(
        "Table 1 — device specifications and simulator roofline check");
    std::printf("%-9s | %8s | %8s | %8s | %8s | %6s | %9s | %9s | %9s\n",
                "GPU", "BW GB/s", "CUDA TF", "TC TF", "L1 KB/SM", "L2 MB",
                "meas. TC", "meas.CUDA", "meas. GB/s");
    print_rule(100);
    std::string fractions;
    for (const prof::BenchRow *row : rows_of(run, "table1")) {
        const std::string &device = label(*row, "device");
        const prof::BenchRow &memory =
            row_with(run, "table1.memory", "device", device);
        std::printf("%-9s | %8.1f | %8.1f | %8.1f | %8d | %6.0f | %9.1f | "
                    "%9.1f | %9.1f\n",
                    device.c_str(), metric(*row, "dram_gbps"),
                    metric(*row, "cuda_tflops"),
                    metric(*row, "tensor_tflops"),
                    static_cast<int>(metric(memory, "l1_kb_per_sm")),
                    metric(memory, "l2_mb"),
                    metric(*row, "measured_gemm_tflops"),
                    metric(*row, "measured_cuda_tflops"),
                    metric(*row, "measured_stream_gbps"));
        char buf[96];
        std::snprintf(
            buf, sizeof buf, "%s TC %.0f%%, CUDA %.0f%%, BW %.0f%%",
            device.c_str(),
            100 * metric(*row, "measured_gemm_tflops") /
                metric(*row, "tensor_tflops"),
            100 * metric(*row, "measured_cuda_tflops") /
                metric(*row, "cuda_tflops"),
            100 * metric(*row, "measured_stream_gbps") /
                metric(*row, "dram_gbps"));
        fractions += (fractions.empty() ? "" : "; ") + std::string(buf);
    }
    print_rule(100);
    std::printf("achieved fractions: %s\n", fractions.c_str());
}

// ---- Figures 7 and 8: end to end ----------------------------------------

/// Figure 7: end-to-end inference time and DRAM traffic of
/// Longformer-large (HotpotQA-style inputs) and QDS-Transformer-base
/// (MS-MARCO-style inputs) under the three methods at batch 1, averaged
/// over `samples` dataset inputs. Each row also carries the static
/// memory plan of the replayed layer, scaled to the whole model.
///
/// Paper shape: Multigrain fastest everywhere with the largest DRAM
/// reduction; on A100 Triton is the slowest; on RTX 3090 the tensor peak
/// drops far more than the CUDA peak, so Sputnik overtakes Triton (the
/// §5.1 crossover).
prof::BenchRun
build_fig7(const sim::DeviceSpec &device, int samples)
{
    prof::BenchRun run;
    for (const ModelConfig &model :
         {ModelConfig::longformer_large(), ModelConfig::qds_base()}) {
        const std::size_t first = run.rows.size();
        for (const SliceMode mode : kModes) {
            add_row(run, "fig7",
                    {{"model", model.name}, {"mode", to_string(mode)}},
                    {{"total_us", 0},
                     {"attention_us", 0},
                     {"dram_bytes", 0},
                     {"attention_dram_bytes", 0},
                     {"peak_hbm_bytes", 0},
                     {"pooling_savings", 0}});
        }
        const double layers = static_cast<double>(model.num_layers);
        Rng sample_rng(kSeed);
        for (int i = 0; i < samples; ++i) {
            const WorkloadSample sample =
                sample_for_model(sample_rng, model);
            for (std::size_t m = 0; m < kModes.size(); ++m) {
                const TransformerRunner runner(model, kModes[m], sample, 1);
                const EndToEndResult r = runner.simulate(device);
                const auto mem = runner.layer_memplan(
                    device, TransformerRunner::LayerKind::kInference);
                // In the row's metric order; averaged in place.
                const double cell[] = {
                    r.total_us,
                    r.attention_us,
                    r.dram_bytes,
                    r.attention_dram_bytes,
                    static_cast<double>(mem->peak_hbm_bytes()) * layers,
                    static_cast<double>(mem->pooling_savings()) * layers};
                Metrics &metrics = run.rows[first + m].metrics;
                for (std::size_t k = 0; k < metrics.size(); ++k) {
                    metrics[k].second += cell[k] / samples;
                }
            }
        }
    }
    return run;
}

void
print_fig7(const prof::BenchRun &run)
{
    print_title(
        "Figure 7 — end-to-end inference time (ms) and DRAM traffic (GB), "
        "batch 1");
    std::printf("%-9s %-22s | %9s %9s %9s | %-17s | %6s %6s %6s\n",
                "device", "model", "Triton", "Sputnik", "Multigr.",
                "MG speedup (T / S)", "T GB", "S GB", "MG GB");
    print_rule(110);
    for (const ModeRows &cell : mode_rows(run, "fig7")) {
        const prof::BenchRow &t = cell.at(SliceMode::kCoarseOnly);
        const prof::BenchRow &s = cell.at(SliceMode::kFineOnly);
        const prof::BenchRow &m = cell.at(SliceMode::kMultigrain);
        std::printf(
            "%-9s %-22s | %9s %9s %9s |   %5s / %-7s | %6s %6s %6s\n",
            label(m, "device").c_str(), label(m, "model").c_str(),
            fmt_ms(metric(t, "total_us")).c_str(),
            fmt_ms(metric(s, "total_us")).c_str(),
            fmt_ms(metric(m, "total_us")).c_str(),
            fmt_speedup(metric(t, "total_us") / metric(m, "total_us"))
                .c_str(),
            fmt_speedup(metric(s, "total_us") / metric(m, "total_us"))
                .c_str(),
            fmt_gb(metric(t, "dram_bytes")).c_str(),
            fmt_gb(metric(s, "dram_bytes")).c_str(),
            fmt_gb(metric(m, "dram_bytes")).c_str());
    }
    print_rule(110);
    std::printf("attention-phase wall time (ms) per configuration:\n");
    for (const prof::BenchRow *row : rows_of(run, "fig7")) {
        std::printf("  %-8s %-22s %-12s attn %8.3f of %8.3f ms "
                    "(attn DRAM %.3f GB)\n",
                    label(*row, "device").c_str(),
                    label(*row, "model").c_str(),
                    label(*row, "mode").c_str(),
                    metric(*row, "attention_us") / 1000.0,
                    metric(*row, "total_us") / 1000.0,
                    metric(*row, "attention_dram_bytes") / 1e9);
    }
}

/// Figure 8: Multigrain's end-to-end speedup as the batch grows, on
/// Fig. 7's first sample so the batch-1 rows of the two figures line up.
/// Paper shape: batching improves Multigrain's margin (more thread
/// blocks hide the coarse kernels' load imbalance and fill the SMs).
prof::BenchRun
build_fig8(const sim::DeviceSpec &device)
{
    prof::BenchRun run;
    for (const ModelConfig &model :
         {ModelConfig::longformer_large(), ModelConfig::qds_base()}) {
        Rng sample_rng(kSeed);
        const WorkloadSample sample = sample_for_model(sample_rng, model);
        for (const index_t batch : kBatches) {
            for (const SliceMode mode : kModes) {
                const TransformerRunner runner(model, mode, sample, batch);
                add_row(run, "fig8",
                        {{"model", model.name}, {"mode", to_string(mode)}},
                        {{"batch", static_cast<double>(batch)},
                         {"total_us", runner.simulate(device).total_us}});
            }
        }
    }
    return run;
}

void
print_fig8(const prof::BenchRun &run)
{
    print_title("Figure 8 — Multigrain end-to-end speedup vs batch size");
    std::printf("%-9s %-22s %6s | %12s | %12s\n", "device", "model",
                "batch", "vs Triton", "vs Sputnik");
    print_rule(72);
    for (const ModeRows &cell : mode_rows(run, "fig8")) {
        const prof::BenchRow &m = cell.at(SliceMode::kMultigrain);
        const double mg = metric(m, "total_us");
        std::printf(
            "%-9s %-22s %6lld | %12s | %12s\n", label(m, "device").c_str(),
            label(m, "model").c_str(),
            static_cast<long long>(metric(m, "batch")),
            fmt_speedup(metric(cell.at(SliceMode::kCoarseOnly), "total_us") /
                        mg)
                .c_str(),
            fmt_speedup(metric(cell.at(SliceMode::kFineOnly), "total_us") /
                        mg)
                .c_str());
    }
}

// ---- Figures 9 and 10: compound sparse attention phases -----------------

/// Figure 9: the compound sparse GEMM phases across the five compound
/// patterns (L+S, LB+R, RB+R, L+S+G, LB+R+G) under the three methods,
/// with each captured plan's static memory plan. Paper shape:
/// Multigrain wins everywhere; the global-bearing patterns show the
/// largest wins over Sputnik (load imbalance of dense rows).
prof::BenchRun
build_fig9(const sim::DeviceSpec &device)
{
    prof::BenchRun run;
    for (const auto &[label, pattern] :
         fig9_patterns(kSeqLen, kDensity, kSeed)) {
        for (const SliceMode mode : kModes) {
            const AttentionEngine engine(pattern, attention_config(), mode);
            const sim::SimResult r = engine.simulate(device);
            const auto mem = engine.forward_memplan(device);
            add_row(run, "fig9",
                    {{"pattern", label}, {"mode", to_string(mode)}},
                    {{"sddmm_us", r.span(phase::kSddmm)},
                     {"softmax_us", r.span(phase::kSoftmax)},
                     {"spmm_us", r.span(phase::kSpmm)},
                     {"total_us", r.total_us},
                     {"peak_hbm_bytes",
                      static_cast<double>(mem->peak_hbm_bytes())},
                     {"pooling_savings",
                      static_cast<double>(mem->pooling_savings())}});
        }
    }
    return run;
}

void
print_fig9(const prof::BenchRun &run)
{
    print_title(
        "Figure 9 — compound sparse GEMM speedup of Multigrain "
        "(A100, L=4096, 4 heads, d_h=64, 95% sparsity)");
    std::printf("%-8s | %-22s | %-22s\n", "pattern",
                "SDDMM vs Sputnik/Triton", "SpMM  vs Sputnik/Triton");
    print_rule();
    for (const ModeRows &cell : mode_rows(run, "fig9")) {
        const prof::BenchRow &mg = cell.at(SliceMode::kMultigrain);
        const prof::BenchRow &tr = cell.at(SliceMode::kCoarseOnly);
        const prof::BenchRow &sp = cell.at(SliceMode::kFineOnly);
        const auto ratio = [&mg](const prof::BenchRow &base,
                                 const char *phase) {
            return fmt_speedup(metric(base, phase) / metric(mg, phase));
        };
        std::printf("%-8s | %9s / %-10s | %9s / %-10s\n",
                    label(mg, "pattern").c_str(),
                    ratio(sp, "sddmm_us").c_str(),
                    ratio(tr, "sddmm_us").c_str(),
                    ratio(sp, "spmm_us").c_str(),
                    ratio(tr, "spmm_us").c_str());
    }
    print_rule();
    std::printf("raw phase times (us):\n");
    std::printf("%-8s %-12s %10s %10s %10s\n", "pattern", "method", "sddmm",
                "softmax", "spmm");
    for (const prof::BenchRow *row : rows_of(run, "fig9")) {
        std::printf("%-8s %-12s %10.1f %10.1f %10.1f\n",
                    label(*row, "pattern").c_str(),
                    label(*row, "mode").c_str(), metric(*row, "sddmm_us"),
                    metric(*row, "softmax_us"), metric(*row, "spmm_us"));
    }
}

/// Figure 10: the compound sparse softmax over Fig. 9's patterns. Paper
/// shape: the blocked (Triton) softmax loses by large factors, the fine
/// (Sputnik) one moderately.
prof::BenchRun
build_fig10(const sim::DeviceSpec &device)
{
    prof::BenchRun run;
    for (const auto &[label, pattern] :
         fig9_patterns(kSeqLen, kDensity, kSeed)) {
        for (const SliceMode mode : kModes) {
            const AttentionEngine engine(pattern, attention_config(), mode);
            add_row(run, "fig10",
                    {{"pattern", label}, {"mode", to_string(mode)}},
                    {{"softmax_us",
                      engine.simulate(device).span(phase::kSoftmax)}});
        }
    }
    return run;
}

void
print_fig10(const prof::BenchRun &run)
{
    print_title(
        "Figure 10 — compound sparse softmax speedup of Multigrain "
        "(A100, L=4096, 4 heads, d_h=64, 95% sparsity)");
    std::printf("%-8s | %12s | %12s | %10s %10s %10s\n", "pattern",
                "vs Sputnik", "vs Triton", "MG (us)", "Sput (us)",
                "Trit (us)");
    print_rule();
    for (const ModeRows &cell : mode_rows(run, "fig10")) {
        const prof::BenchRow &mg = cell.at(SliceMode::kMultigrain);
        const double m = metric(mg, "softmax_us");
        const double t =
            metric(cell.at(SliceMode::kCoarseOnly), "softmax_us");
        const double s = metric(cell.at(SliceMode::kFineOnly), "softmax_us");
        std::printf("%-8s | %12s | %12s | %10.1f %10.1f %10.1f\n",
                    label(mg, "pattern").c_str(),
                    fmt_speedup(s / m).c_str(), fmt_speedup(t / m).c_str(),
                    m, s, t);
    }
}

// ---- Figures 11 and 12: coarse kernels vs Triton ------------------------

/// Figure 11: our coarse kernels against the Triton-style blocked
/// kernels on the pure coarse patterns at batch 1. The raw kernel plans
/// carry no buffer annotations, so the memory metrics come from the
/// coarse-only engine over the same pattern — the captured plan those
/// kernels run inside. Paper shape: modest wins on local and
/// blocked-local, a loss on blocked-random SDDMM (a known deviation
/// here, see EXPERIMENTS.md).
prof::BenchRun
build_fig11(const sim::DeviceSpec &device)
{
    prof::BenchRun run;
    for (const auto &[label, pattern] : fig11_patterns(kSeqLen, kSeed)) {
        const AttentionEngine engine(pattern, attention_config(),
                                     SliceMode::kCoarseOnly);
        const auto mem = engine.forward_memplan(device);
        const CoarseTimes t = coarse_kernel_times(device, pattern, 1);
        add_row(run, "fig11", {{"pattern", label}},
                {{"peak_hbm_bytes",
                  static_cast<double>(mem->peak_hbm_bytes())},
                 {"pooling_savings",
                  static_cast<double>(mem->pooling_savings())},
                 {"ours_sddmm_us", t.ours_sddmm},
                 {"triton_sddmm_us", t.triton_sddmm},
                 {"ours_spmm_us", t.ours_spmm},
                 {"triton_spmm_us", t.triton_spmm}});
    }
    return run;
}

void
print_fig11(const prof::BenchRun &run)
{
    print_title(
        "Figure 11 — our coarse kernel vs Triton-style blocked kernel "
        "(A100, batch 1, 4 heads, d_h=64)");
    std::printf("%-15s | %-24s | %-24s\n", "pattern",
                "SDDMM ours/Triton (us)", "SpMM ours/Triton (us)");
    print_rule();
    for (const prof::BenchRow *row : rows_of(run, "fig11")) {
        const double os = metric(*row, "ours_sddmm_us");
        const double ts = metric(*row, "triton_sddmm_us");
        const double op = metric(*row, "ours_spmm_us");
        const double tp = metric(*row, "triton_spmm_us");
        std::printf("%-15s | %7.1f / %7.1f  %5s | %7.1f / %7.1f  %5s\n",
                    label(*row, "pattern").c_str(), os, ts,
                    fmt_speedup(ts / os).c_str(), op, tp,
                    fmt_speedup(tp / op).c_str());
    }
}

/// Figure 12: the Fig. 11 comparison swept over batch size. Batching
/// multiplies the thread-block count, which hides our blocked
/// row-splitting scheme's load imbalance on blocked-random patterns.
prof::BenchRun
build_fig12(const sim::DeviceSpec &device)
{
    prof::BenchRun run;
    for (const auto &[label, pattern] : fig11_patterns(kSeqLen, kSeed)) {
        for (const index_t batch : kBatches) {
            const CoarseTimes t = coarse_kernel_times(device, pattern, batch);
            add_row(run, "fig12", {{"pattern", label}},
                    {{"batch", static_cast<double>(batch)},
                     {"sddmm_vs_triton", t.triton_sddmm / t.ours_sddmm},
                     {"spmm_vs_triton", t.triton_spmm / t.ours_spmm}});
        }
    }
    return run;
}

void
print_fig12(const prof::BenchRun &run)
{
    print_title(
        "Figure 12 — our coarse kernel speedup over Triton vs batch size "
        "(A100, 4 heads, d_h=64)");
    std::printf("%-15s %6s | %12s | %12s\n", "pattern", "batch", "SDDMM",
                "SpMM");
    print_rule(60);
    for (const prof::BenchRow *row : rows_of(run, "fig12")) {
        std::printf("%-15s %6lld | %12s | %12s\n",
                    label(*row, "pattern").c_str(),
                    static_cast<long long>(metric(*row, "batch")),
                    fmt_speedup(metric(*row, "sddmm_vs_triton")).c_str(),
                    fmt_speedup(metric(*row, "spmm_vs_triton")).c_str());
    }
}

// ---- Ablations (DESIGN.md §3) --------------------------------------------

/// The design-choice ablations over Fig. 9's patterns: (1) the fine
/// SDDMM's row-splitting rewrite vs Sputnik's official 1D tiling (§4
/// footnote 5), (2) one stream vs three (§3.1), (3) global rows on dense
/// kernels vs left in the fine kernels (§5.2.1), and (4) the coarse block
/// size trade-off behind the paper's choice of 64.
prof::BenchRun
build_ablation(const sim::DeviceSpec &device)
{
    const auto simulate = [&device](const CompoundPattern &pattern,
                                    const AttentionConfig &config,
                                    SliceMode mode) {
        return AttentionEngine(pattern, config, mode).simulate(device);
    };
    const std::vector<NamedPattern> patterns =
        fig9_patterns(kSeqLen, kDensity, kSeed);
    prof::BenchRun run;
    for (const auto &[label, pattern] : patterns) {
        AttentionConfig rowsplit = attention_config();
        rowsplit.fine_scheme = kernels::FineSddmmScheme::kRowSplit;
        AttentionConfig tiling = attention_config();
        tiling.fine_scheme = kernels::FineSddmmScheme::k1dTiling;
        const auto sddmm_us = [&](const AttentionConfig &config) {
            return simulate(pattern, config, SliceMode::kFineOnly)
                .span(phase::kSddmm);
        };
        add_row(run, "ablation.fine_sddmm_scheme", {{"pattern", label}},
                {{"rowsplit_us", sddmm_us(rowsplit)},
                 {"tiling1d_us", sddmm_us(tiling)}});
    }
    const auto total_us = [&](const CompoundPattern &pattern,
                              const AttentionConfig &config) {
        return simulate(pattern, config, SliceMode::kMultigrain).total_us;
    };
    for (const auto &[label, pattern] : patterns) {
        AttentionConfig single = attention_config();
        single.multi_stream = false;
        add_row(run, "ablation.multistream", {{"pattern", label}},
                {{"multi_us", total_us(pattern, attention_config())},
                 {"single_us", total_us(pattern, single)}});
    }
    for (const auto &[label, pattern] : patterns) {
        bool has_global = false;
        for (const auto &atom : pattern.atoms) {
            has_global |= atom.is_special();
        }
        if (!has_global) {
            continue;
        }
        AttentionConfig fine = attention_config();
        fine.route_global_to_dense = false;
        add_row(run, "ablation.global_routing", {{"pattern", label}},
                {{"dense_us", total_us(pattern, attention_config())},
                 {"fine_us", total_us(pattern, fine)}});
    }
    const CompoundPattern ls = preset_local_selected(kSeqLen, kDensity, kSeed);
    for (const index_t block : {16, 32, 64, 128}) {
        AttentionConfig config = attention_config();
        config.block = block;
        const AttentionEngine engine(ls, config, SliceMode::kMultigrain);
        const SlicePlan &plan = engine.plan();
        add_row(run, "ablation.block_size", {},
                {{"block", static_cast<double>(block)},
                 {"attn_us", engine.simulate(device).total_us},
                 {"stored_elements",
                  static_cast<double>(plan.coarse_stored_elements())},
                 {"valid_elements",
                  static_cast<double>(plan.coarse_valid_elements())}});
    }
    return run;
}

/// One ablation table: per pattern, variant `a`, variant `b` and the
/// speedup b / a.
void
print_ablation_pair(const prof::BenchRun &run, const std::string &series,
                    const std::string &title, const char *a_head,
                    const char *b_head, const char *a, const char *b)
{
    print_title(title);
    std::printf("%-8s | %12s %12s | %8s\n", "pattern", a_head, b_head,
                "speedup");
    print_rule(64);
    for (const prof::BenchRow *row : rows_of(run, series)) {
        std::printf("%-8s | %12.1f %12.1f | %8s\n",
                    label(*row, "pattern").c_str(), metric(*row, a),
                    metric(*row, b),
                    fmt_speedup(metric(*row, b) / metric(*row, a)).c_str());
    }
}

void
print_ablation(const prof::BenchRun &run)
{
    print_ablation_pair(run, "ablation.fine_sddmm_scheme",
                        "Ablation 1 — fine SDDMM: row splitting vs official "
                        "1D tiling (fine-only processing, A100)",
                        "rowsplit us", "1d-tiling us", "rowsplit_us",
                        "tiling1d_us");
    print_ablation_pair(run, "ablation.multistream",
                        "Ablation 2 — Multigrain with and without "
                        "multi-stream (A100)",
                        "multi us", "single us", "multi_us", "single_us");
    print_ablation_pair(run, "ablation.global_routing",
                        "Ablation 3 — global rows on dense kernels vs in "
                        "the fine kernels (Multigrain, A100)",
                        "dense us", "fine us", "dense_us", "fine_us");
    print_title(
        "Ablation 4 — Multigrain coarse block size (A100, L+S pattern)");
    std::printf("%6s | %12s | %14s | %16s\n", "block", "attn us",
                "stored elems", "valid fraction");
    print_rule(64);
    for (const prof::BenchRow *row : rows_of(run, "ablation.block_size")) {
        const double stored = metric(*row, "stored_elements");
        std::printf("%6lld | %12.1f | %14lld | %15.1f%%\n",
                    static_cast<long long>(metric(*row, "block")),
                    metric(*row, "attn_us"), static_cast<long long>(stored),
                    100.0 * metric(*row, "valid_elements") / stored);
    }
}

// ---- §2.4 chunked methods -----------------------------------------------

/// One §2.4 row: a pure banded `atom` under Multigrain and Triton-style
/// processing, against the chunked method's own plan `chunked`, whose
/// K/V duplication copies are the kernels named `copy_prefix`.
void
add_section24_row(prof::BenchRun &run, const sim::DeviceSpec &device,
                  const std::string &label, AtomicPattern atom,
                  const LaunchGraph &chunked, const char *copy_prefix)
{
    CompoundPattern pattern;
    pattern.seq_len = kSeqLen;
    pattern.atoms.push_back(std::move(atom));
    const auto total = [&](SliceMode mode) {
        return AttentionEngine(pattern, attention_config(), mode)
            .simulate(device)
            .total_us;
    };
    const double multigrain = total(SliceMode::kMultigrain);
    const double triton = total(SliceMode::kCoarseOnly);
    const sim::SimResult r = sim::simulate(device, chunked);
    add_row(run, "section24", {{"pattern", label}},
            {{"multigrain_us", multigrain},
             {"chunked_us", r.total_us},
             {"chunked_copy_gb", r.dram_bytes_for(copy_prefix) / 1e9},
             {"triton_us", triton}});
}

/// §2.4: Longformer's sliding chunk and BigBird's blockify reshape a pure
/// band into dense GEMMs at the price of 2x / 3x K/V duplication copies
/// and masked-slab compute; the paper's argument for not adopting them.
prof::BenchRun
build_section24(const sim::DeviceSpec &device)
{
    prof::BenchRun run;
    for (const index_t window : {256, 128}) {
        add_section24_row(run, device,
                          "local w=" + std::to_string(window),
                          AtomicPattern::local(window),
                          kernels::plan_sliding_chunk(device, kSeqLen,
                                                      window, kHeadDim,
                                                      kHeads),
                          "chunk.copy");
    }
    for (const index_t block : {64, 128}) {
        add_section24_row(run, device,
                          "blocked_local b=" + std::to_string(block),
                          AtomicPattern::blocked_local(block, 1),
                          kernels::plan_blockify(device, kSeqLen, block,
                                                 kHeadDim, kHeads),
                          "blockify.copy");
    }
    return run;
}

void
print_section24(const prof::BenchRun &run)
{
    print_title("§2.4 — chunked methods vs Multigrain's coarse path "
                "(A100, L=4096, 4 heads, whole attention op)");
    std::printf("%-24s | %10s | %33s | %10s\n", "pattern", "MG (us)",
                "sliding-chunk/blockify (us)", "Triton (us)");
    print_rule(90);
    for (const prof::BenchRow *row : rows_of(run, "section24")) {
        std::printf("%-24s | %10.1f | %10.1f (%5.3f GB copies) | %10.1f\n",
                    label(*row, "pattern").c_str(),
                    metric(*row, "multigrain_us"),
                    metric(*row, "chunked_us"),
                    metric(*row, "chunked_copy_gb"),
                    metric(*row, "triton_us"));
    }
}

// ---- Extensions beyond the paper's figures ------------------------------

/// The other compound-sparse models §2.3 cites (BigBird-ETC and
/// Poolingformer) end to end under the three methods, batch 1.
prof::BenchRun
build_extra_models(const sim::DeviceSpec &device)
{
    prof::BenchRun run;
    for (const ModelConfig &model : {ModelConfig::bigbird_etc_base(),
                                     ModelConfig::poolingformer_base()}) {
        Rng rng(kSeed);
        const WorkloadSample sample = sample_for_model(rng, model);
        const auto total = [&](SliceMode mode) {
            return TransformerRunner(model, mode, sample, 1)
                .simulate(device)
                .total_us;
        };
        add_row(run, "extra_models", {{"model", model.name}},
                {{"triton_us", total(SliceMode::kCoarseOnly)},
                 {"sputnik_us", total(SliceMode::kFineOnly)},
                 {"multigrain_us", total(SliceMode::kMultigrain)}});
    }
    return run;
}

void
print_extra_models(const prof::BenchRun &run)
{
    print_title(
        "Extension — other compound-sparse models (§2.3), end-to-end, "
        "batch 1");
    std::printf("%-9s %-22s | %9s %9s %9s | %-18s\n", "device", "model",
                "Triton", "Sputnik", "Multigr.", "MG speedup (T / S)");
    print_rule(96);
    for (const prof::BenchRow *row : rows_of(run, "extra_models")) {
        const double t = metric(*row, "triton_us");
        const double s = metric(*row, "sputnik_us");
        const double m = metric(*row, "multigrain_us");
        std::printf("%-9s %-22s | %9s %9s %9s |   %5s / %-7s\n",
                    label(*row, "device").c_str(),
                    label(*row, "model").c_str(), fmt_ms(t).c_str(),
                    fmt_ms(s).c_str(), fmt_ms(m).c_str(),
                    fmt_speedup(t / m).c_str(), fmt_speedup(s / m).c_str());
    }
}

/// §1 motivation: a Longformer-style pattern swept over L, dense O(L²)
/// attention against the three sparse methods, time and memory.
prof::BenchRun
build_seq_scaling(const sim::DeviceSpec &device)
{
    prof::BenchRun run;
    for (const index_t seq : {1024, 2048, 4096, 8192, 16384}) {
        CompoundPattern pattern;
        pattern.seq_len = seq;
        pattern.atoms.push_back(AtomicPattern::local(256));
        pattern.atoms.push_back(
            AtomicPattern::selected(burst_tokens(seq, 40, 4, 11)));
        pattern.atoms.push_back(
            AtomicPattern::global(burst_tokens(seq, 40, 4, 11)));
        const auto engine = [&](SliceMode mode) {
            return AttentionEngine(pattern, attention_config(), mode);
        };
        const AttentionEngine dense = engine(SliceMode::kDense);
        const AttentionEngine mg = engine(SliceMode::kMultigrain);
        add_row(run, "seq_scaling", {},
                {{"seq_len", static_cast<double>(seq)},
                 {"dense_us", dense.simulate(device).total_us},
                 {"triton_us",
                  engine(SliceMode::kCoarseOnly).simulate(device).total_us},
                 {"sputnik_us",
                  engine(SliceMode::kFineOnly).simulate(device).total_us},
                 {"multigrain_us", mg.simulate(device).total_us},
                 {"dense_memory_bytes", dense.attention_memory_bytes()},
                 {"multigrain_memory_bytes", mg.attention_memory_bytes()}});
    }
    return run;
}

void
print_seq_scaling(const prof::BenchRun &run)
{
    print_title(
        "Sequence-length scaling — dense O(L^2) vs compound sparse "
        "(A100, Longformer-style pattern, 4 heads)");
    std::printf("%8s | %10s | %10s %10s %10s | %12s %12s\n", "L",
                "dense us", "Triton us", "Sputnik us", "MG us",
                "MG vs dense", "mem dense/MG");
    print_rule(96);
    for (const prof::BenchRow *row : rows_of(run, "seq_scaling")) {
        const double dense = metric(*row, "dense_us");
        const double mg = metric(*row, "multigrain_us");
        std::printf("%8lld | %10.1f | %10.1f %10.1f %10.1f | %12s %12s\n",
                    static_cast<long long>(metric(*row, "seq_len")), dense,
                    metric(*row, "triton_us"), metric(*row, "sputnik_us"),
                    mg, fmt_speedup(dense / mg).c_str(),
                    fmt_speedup(metric(*row, "dense_memory_bytes") /
                                metric(*row, "multigrain_memory_bytes"))
                        .c_str());
    }
    std::printf(
        "\n(dense time should ~4x per doubling; Multigrain ~2x, so the\n"
        " advantage compounds with L — the paper's §1 motivation)\n");
}

/// Training steps (forward + backward): every sparse op of the forward
/// reappears in the backward, so the slice-and-dice advantage compounds.
prof::BenchRun
build_training(const sim::DeviceSpec &device)
{
    prof::BenchRun run;
    for (const auto &[model, batch] :
         {std::pair{ModelConfig::qds_base(), index_t{4}},
          std::pair{ModelConfig::longformer_large(), index_t{1}}}) {
        Rng rng(kSeed);
        const WorkloadSample sample = sample_for_model(rng, model);
        for (const SliceMode mode :
             {SliceMode::kCoarseOnly, SliceMode::kFineOnly,
              SliceMode::kMultigrain}) {
            const TransformerRunner runner(model, mode, sample, batch);
            const double forward = runner.simulate(device).total_us;
            const EndToEndResult step = runner.simulate_training(device);
            add_row(run, "training",
                    {{"model", model.name}, {"mode", to_string(mode)}},
                    {{"batch", static_cast<double>(batch)},
                     {"forward_us", forward},
                     {"step_us", step.total_us},
                     {"attention_us", step.attention_us}});
        }
    }
    return run;
}

void
print_training(const prof::BenchRun &run)
{
    print_title("Extension — training step (forward + backward) on A100");
    for (const ModeRows &cell : mode_rows(run, "training")) {
        const prof::BenchRow &first = *cell.rows[0];
        std::printf("%-22s batch %lld\n", label(first, "model").c_str(),
                    static_cast<long long>(metric(first, "batch")));
        for (const prof::BenchRow *row : cell.rows) {
            std::printf("  %-12s fwd %9s ms   step %9s ms   attn %8s ms\n",
                        label(*row, "mode").c_str(),
                        fmt_ms(metric(*row, "forward_us")).c_str(),
                        fmt_ms(metric(*row, "step_us")).c_str(),
                        fmt_ms(metric(*row, "attention_us")).c_str());
        }
        const double mg = metric(cell.at(SliceMode::kMultigrain), "step_us");
        std::printf(
            "  multigrain step speedup: %s vs Triton, %s vs Sputnik\n",
            fmt_speedup(metric(cell.at(SliceMode::kCoarseOnly), "step_us") /
                        mg)
                .c_str(),
            fmt_speedup(metric(cell.at(SliceMode::kFineOnly), "step_us") /
                        mg)
                .c_str());
    }
}

/// Workload characterization (the IISWC angle): the per-kernel roofline
/// and energy of each method's attention on Fig. 9's L+S+G pattern, plus
/// end-to-end energy per inference. Each attention run carries its
/// kernels ("characterization.kernel", arithmetic_intensity absent when
/// a kernel moves no DRAM bytes) and its report totals.
prof::BenchRun
build_characterization(const sim::DeviceSpec &device)
{
    prof::BenchRun run;
    const CompoundPattern lsg =
        preset_local_selected_global(kSeqLen, kDensity, kSeed);
    for (const SliceMode mode : kModes) {
        const AttentionEngine engine(lsg, attention_config(), mode);
        const sim::SimResult result = engine.simulate(device);
        const sim::WorkloadReport report = sim::characterize(result, device);
        add_row(run, "characterization.attention",
                {{"mode", to_string(mode)}},
                {{"total_us", result.total_us},
                 {"dram_bytes", result.work.dram_bytes()},
                 {"total_j", report.total_j()},
                 {"avg_watts", report.average_watts()}});
        add_row(run, "characterization.report", {{"mode", to_string(mode)}},
                {{"total_us", report.total_us},
                 {"dynamic_j", report.dynamic_j},
                 {"static_j", report.static_j}});
        for (const sim::KernelCharacterization &k : report.kernels) {
            prof::BenchRow &row = add_row(
                run, "characterization.kernel",
                {{"mode", to_string(mode)},
                 {"kernel", k.name},
                 {"bound", sim::to_string(k.bound)}},
                {{"duration_us", k.duration_us},
                 {"tensor_util", k.tensor_util},
                 {"cuda_util", k.cuda_util},
                 {"dram_util", k.dram_util},
                 {"l2_util", k.l2_util},
                 {"dynamic_j", k.dynamic_j}});
            if (std::isfinite(k.arithmetic_intensity)) {
                row.metrics.emplace_back("arithmetic_intensity",
                                         k.arithmetic_intensity);
            }
        }
    }
    for (const ModelConfig &model :
         {ModelConfig::longformer_large(), ModelConfig::qds_base()}) {
        Rng rng(kSeed);
        const WorkloadSample sample = sample_for_model(rng, model);
        for (const SliceMode mode :
             {SliceMode::kCoarseOnly, SliceMode::kFineOnly,
              SliceMode::kMultigrain}) {
            const TransformerRunner runner(model, mode, sample, 1);
            const EndToEndResult r = runner.simulate(device);
            add_row(run, "characterization.energy",
                    {{"model", model.name}, {"mode", to_string(mode)}},
                    {{"total_j", sim::characterize(r.sim, device).total_j()}});
        }
    }
    return run;
}

sim::Bound
bound_from_string(const std::string &name)
{
    for (const sim::Bound bound :
         {sim::Bound::kTensor, sim::Bound::kCuda, sim::Bound::kDram,
          sim::Bound::kL2, sim::Bound::kLatency}) {
        if (name == sim::to_string(bound)) {
            return bound;
        }
    }
    throw Error("unknown roofline bound \"" + name + "\"");
}

void
print_characterization(const prof::BenchRun &run)
{
    for (const prof::BenchRow *attention :
         rows_of(run, "characterization.attention")) {
        const std::string &mode = label(*attention, "mode");
        print_title("Attention kernels, " + mode + " (A100, L+S+G)");
        const prof::BenchRow &totals =
            row_with(run, "characterization.report", "mode", mode);
        sim::WorkloadReport report;
        report.total_us = metric(totals, "total_us");
        report.dynamic_j = metric(totals, "dynamic_j");
        report.static_j = metric(totals, "static_j");
        for (const prof::BenchRow *row :
             rows_of(run, "characterization.kernel")) {
            if (label(*row, "mode") != mode) {
                continue;
            }
            sim::KernelCharacterization &k = report.kernels.emplace_back();
            k.name = label(*row, "kernel");
            k.duration_us = metric(*row, "duration_us");
            const double *ai = row->find_metric("arithmetic_intensity");
            k.arithmetic_intensity =
                ai != nullptr ? *ai : std::numeric_limits<double>::infinity();
            k.tensor_util = metric(*row, "tensor_util");
            k.cuda_util = metric(*row, "cuda_util");
            k.dram_util = metric(*row, "dram_util");
            k.l2_util = metric(*row, "l2_util");
            k.bound = bound_from_string(label(*row, "bound"));
            k.dynamic_j = metric(*row, "dynamic_j");
        }
        sim::print_report(report, std::cout, 12);
    }
    print_title("End-to-end energy per inference (A100, batch 1)");
    std::printf("%-22s | %12s %12s %12s\n", "model", "Triton J",
                "Sputnik J", "Multigrain J");
    print_rule(70);
    for (const ModeRows &cell : mode_rows(run, "characterization.energy")) {
        std::printf("%-22s | %12.3f %12.3f %12.3f\n",
                    label(*cell.rows[0], "model").c_str(),
                    metric(cell.at(SliceMode::kCoarseOnly), "total_j"),
                    metric(cell.at(SliceMode::kFineOnly), "total_j"),
                    metric(cell.at(SliceMode::kMultigrain), "total_j"));
    }
}

// ---- Gate-only presets ---------------------------------------------------

/// The tiny test model end to end — cheap enough for the gate's
/// perturbation self-test to run on every CI invocation.
prof::BenchRun
build_tiny(const sim::DeviceSpec &device)
{
    prof::BenchRun run;
    const ModelConfig model = model_config_by_name("tiny");
    Rng rng(kSeed);
    const WorkloadSample sample = sample_for_model(rng, model);
    const double layers = static_cast<double>(model.num_layers);
    for (const SliceMode mode :
         {SliceMode::kMultigrain, SliceMode::kDense}) {
        const TransformerRunner runner(model, mode, sample, 1);
        const EndToEndResult r = runner.simulate(device);
        const auto mem = runner.layer_memplan(
            device, TransformerRunner::LayerKind::kInference);
        add_row(run, "tiny", {{"mode", to_string(mode)}},
                {{"total_us", r.total_us},
                 {"attention_us", r.attention_us},
                 {"dram_bytes", r.dram_bytes},
                 {"peak_hbm_bytes",
                  static_cast<double>(mem->peak_hbm_bytes()) * layers},
                 {"pooling_savings",
                  static_cast<double>(mem->pooling_savings()) * layers}});
    }
    return run;
}

/// The mgserve "tiny" traffic preset end to end — the whole serving
/// stack (traffic, admission, continuous batching, plan reuse) reduced
/// to one deterministic run. Latency percentiles regress when the device
/// slows down; the exact-policy counters (rejected, plan_cache.*) regress
/// when scheduling or plan keying changes behavior.
prof::BenchRun
build_serve_tiny(const sim::DeviceSpec &device)
{
    serve::Server server(serve::serve_preset_by_name("tiny"), device);
    const serve::ServeReport report = server.run();
    prof::BenchRun run;
    serve::append_serve_rows(run, report);
    return run;
}

/// A 2-replica homogeneous fleet of the tiny traffic preset behind the
/// round-robin router (serve/cluster.h). Fleet latency percentiles
/// regress when the device slows down; the exact router/outcome counters
/// regress when placement or failover behavior changes.
prof::BenchRun
build_cluster_tiny(const sim::DeviceSpec &device)
{
    serve::ClusterConfig config;
    config.preset = "cluster_tiny";
    config.serve = serve::serve_preset_by_name("tiny");
    config.serve.preset = "cluster_tiny";
    config.serve.traffic.num_requests = 96;
    // Price footprints (the least-bytes signal) without ever shedding.
    config.serve.admission.hbm_budget_bytes = 1ull << 30;
    config.devices = {device, device};
    config.device_names = {"dev", "dev"};
    serve::Cluster cluster(std::move(config));
    const serve::ClusterReport report = cluster.run();
    MG_CHECK(serve::reconcile_cluster(report).empty())
        << "cluster_tiny does not conserve";

    const auto count = [](auto n) { return static_cast<double>(n); };
    prof::BenchRun run;
    add_row(run, "cluster", {{"policy", to_string(report.policy)}},
            {{"arrivals", count(report.arrivals)},
             {"completed", count(report.completed)},
             {"deadline_miss", count(report.deadline_miss)},
             {"rejected", count(report.rejected)},
             {"timed_out", count(report.timed_out)},
             {"lost_in_flight", count(report.lost_in_flight)},
             {"rounds", count(report.rounds)},
             {"makespan_us", report.makespan_us},
             {"busy_us", report.busy_us},
             {"throughput_rps", report.throughput_rps},
             {"util_skew", report.util_skew},
             {"p50_us", report.latency.p50},
             {"p95_us", report.latency.p95},
             {"p99_us", report.latency.p99},
             {"routed", count(report.router.routed)},
             {"rerouted", count(report.router.rerouted)},
             {"failover_sheds", count(report.router.failover_sheds())}});
    for (std::size_t k = 0; k < report.replicas.size(); ++k) {
        const serve::ServeReport &rep = report.replicas[k];
        add_row(run, "cluster_replica", {{"replica", std::to_string(k)}},
                {{"offered", count(rep.admission.offered)},
                 {"completed", count(rep.completed)},
                 {"rounds", count(rep.rounds)},
                 {"busy_us", rep.busy_us},
                 {"p99_us", rep.latency.p99},
                 {"util", report.replica_util[k]}});
    }
    return run;
}

}  // namespace

const std::vector<BenchPreset> &
figures()
{
    static const std::vector<std::string> both = {"a100", "rtx3090"};
    static const std::vector<std::string> a100 = {"a100"};
    static const std::vector<BenchPreset> list = {
        {"table1", "device specifications and simulator roofline check",
         &build_table1, &print_table1, both},
        {"fig7", "end-to-end inference, 3 methods, 3 dataset samples",
         [](const sim::DeviceSpec &device) {
             return build_fig7(device, 3);
         },
         &print_fig7, both},
        {"fig8", "end-to-end speedup vs batch size", &build_fig8,
         &print_fig8, both},
        {"fig9", "compound sparse GEMM phases (5 patterns, 3 methods)",
         &build_fig9, &print_fig9, a100},
        {"fig10", "compound sparse softmax (5 patterns, 3 methods)",
         &build_fig10, &print_fig10, a100},
        {"fig11", "coarse kernels vs Triton-style blocked kernels",
         &build_fig11, &print_fig11, a100},
        {"fig12", "coarse kernels vs Triton over batch size", &build_fig12,
         &print_fig12, a100},
        {"ablation", "SDDMM scheme, multi-stream, global routing, block "
                     "size",
         &build_ablation, &print_ablation, a100},
        {"section24", "chunked methods (sliding chunk, blockify)",
         &build_section24, &print_section24, a100},
        {"extra_models", "BigBird-ETC and Poolingformer end to end",
         &build_extra_models, &print_extra_models, both},
        {"seq_scaling", "dense vs compound sparse over sequence length",
         &build_seq_scaling, &print_seq_scaling, a100},
        {"training", "training steps (forward + backward)",
         &build_training, &print_training, a100},
        {"characterization", "per-kernel roofline and energy",
         &build_characterization, &print_characterization, a100},
    };
    return list;
}

const std::vector<BenchPreset> &
bench_presets()
{
    static const std::vector<BenchPreset> presets = {
        {"fig7", "end-to-end inference (Longformer + QDS, 3 modes)",
         [](const sim::DeviceSpec &device) {
             return build_fig7(device, 1);
         }},
        {"fig9", "compound sparse GEMM phases (5 patterns, 3 modes)",
         &build_fig9},
        {"fig11", "coarse kernels vs Triton-style blocked kernels",
         &build_fig11},
        {"tiny", "tiny model end-to-end (gate self-test workload)",
         &build_tiny},
        {"serve_tiny", "mgserve tiny traffic preset (serving-layer gate)",
         &build_serve_tiny},
        {"cluster_tiny",
         "2-replica round-robin fleet of the tiny preset (fleet gate)",
         &build_cluster_tiny},
    };
    return presets;
}

const BenchPreset *
find_bench_preset(const std::string &name)
{
    for (const BenchPreset &preset : bench_presets()) {
        if (name == preset.name) {
            return &preset;
        }
    }
    return nullptr;
}

prof::BenchRun
run_bench_preset(const BenchPreset &preset,
                 const std::vector<std::string> &devices)
{
    MG_CHECK(!devices.empty()) << preset.name << ": no device to run on";
    PlanCache::instance().clear();
    prof::BenchRun run;
    std::string device_list;
    for (const std::string &name : devices) {
        const sim::DeviceSpec device = sim::device_spec_by_name(name);
        prof::BenchRun part = preset.build(device);
        for (prof::BenchRow &row : part.rows) {
            if (devices.size() > 1) {
                row.labels.insert(row.labels.begin(), {"device", device.name});
            }
            run.rows.push_back(std::move(row));
        }
        device_list += (device_list.empty() ? "" : ",") + name;
    }
    run.name = std::string(preset.name) + "@" + device_list;
    run.manifest = prof::RunManifest::collect(device_list);
    const PlanCacheStats stats = PlanCache::instance().stats();
    prof::BenchRow &row = add_row(run, "plan_cache", {}, {});
    for (const PlanCacheMetricDef &metric : plan_cache_metric_registry()) {
        row.metrics.emplace_back(metric.key, metric.get(stats));
    }
    return run;
}

}  // namespace multigrain::bench
