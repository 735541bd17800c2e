#ifndef MULTIGRAIN_BENCH_BENCH_UTIL_H_
#define MULTIGRAIN_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "common/logging.h"
#include "core/attention.h"
#include "core/plan_cache.h"
#include "formats/convert.h"
#include "gpusim/device.h"
#include "kernels/blocked_baseline.h"
#include "kernels/coarse.h"
#include "patterns/presets.h"
#include "patterns/slice.h"
#include "profiler/export.h"
#include "profiler/history.h"
#include "serve/cluster.h"
#include "serve/server.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"

/// Shared console-table helpers for the benchmark harness. Every bench
/// binary prints the rows/series its paper table or figure reports, then
/// registers the same runs with google-benchmark (simulated time reported
/// as manual time).
///
/// This header also hosts the lightweight bench-preset registry mgperf
/// runs its regression gate over: reduced, deterministic in-process
/// versions of the headline figures (one dataset sample instead of the
/// binaries' averaged three), parameterized by device so baselines exist
/// per (preset, device) pair.
namespace multigrain::bench {

inline void
print_rule(int width = 78)
{
    for (int i = 0; i < width; ++i) {
        std::putchar('-');
    }
    std::putchar('\n');
}

inline void
print_title(const std::string &title)
{
    std::printf("\n");
    print_rule();
    std::printf("%s\n", title.c_str());
    print_rule();
}

/// "1.83x" style formatting for speedup cells.
inline std::string
fmt_speedup(double ratio)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2fx", ratio);
    return buf;
}

inline std::string
fmt_ms(double us)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", us / 1000.0);
    return buf;
}

inline std::string
fmt_gb(double bytes)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", bytes / 1e9);
    return buf;
}

/// One row of a figure/table series: ordered label and metric cells, all
/// flattened into one JSON object when the artifact is written.
class JsonRow {
  public:
    explicit JsonRow(std::string series) : series_(std::move(series)) {}

    JsonRow &
    label(const std::string &key, const std::string &value)
    {
        labels_.emplace_back(key, value);
        return *this;
    }

    JsonRow &
    metric(const std::string &key, double value)
    {
        metrics_.emplace_back(key, value);
        return *this;
    }

    void
    write(JsonWriter &w) const
    {
        w.begin_object();
        w.field("series", series_);
        for (const auto &[key, value] : labels_) {
            w.field(key, value);
        }
        for (const auto &[key, value] : metrics_) {
            w.field(key, value);
        }
        w.end_object();
    }

  private:
    std::string series_;
    std::vector<std::pair<std::string, std::string>> labels_;
    std::vector<std::pair<std::string, double>> metrics_;
};

/// Process-wide machine-readable artifact. Each bench binary names the
/// artifact once in main(), appends rows wherever it computes results, and
/// the file `BENCH_<name>.json` (under $MULTIGRAIN_BENCH_DIR, default cwd)
/// is written when the process exits — the same rows the console tables
/// show, in the pinned "mgprof.bench" schema.
class JsonReport {
  public:
    static JsonReport &
    instance()
    {
        static JsonReport *report = new JsonReport;
        return *report;
    }

    void
    set_name(const std::string &name)
    {
        name_ = name;
        std::atexit(&JsonReport::write_at_exit);
    }

    JsonRow &
    row(const std::string &series)
    {
        rows_.emplace_back(series);
        return rows_.back();
    }

    std::string
    to_json() const
    {
        std::ostringstream os;
        {
            JsonWriter w(os);
            w.begin_object();
            w.field("schema", prof::kBenchSchema);
            w.field("schema_version", prof::kBenchSchemaVersion);
            w.field("name", name_);
            // Schema v2: every artifact carries its provenance, so the
            // history corpus can pin any number to a commit.
            w.key("manifest");
            prof::write_manifest(w, prof::RunManifest::collect());
            w.key("rows");
            w.begin_array();
            for (const JsonRow &r : rows_) {
                r.write(w);
            }
            w.end_array();
            w.end_object();
        }
        return os.str();
    }

    void
    write() const
    {
        if (name_.empty()) {
            return;
        }
        std::string dir = ".";
        if (const char *env = std::getenv("MULTIGRAIN_BENCH_DIR")) {
            if (*env != '\0') {
                dir = env;
            }
        }
        const std::string path = dir + "/BENCH_" + name_ + ".json";
        std::ofstream file(path);
        if (!file.good()) {
            log_message(LogLevel::kWarn,
                        "cannot write bench artifact " + path);
            return;
        }
        file << to_json() << "\n";
        std::fprintf(stderr, "bench: wrote %s (%zu rows)\n", path.c_str(),
                     rows_.size());
    }

  private:
    JsonReport() = default;

    static void
    write_at_exit()
    {
        instance().write();
    }

    std::string name_;
    std::vector<JsonRow> rows_;
};

/// Names this binary's artifact; call once at the top of main().
inline void
report_name(const std::string &name)
{
    JsonReport::instance().set_name(name);
}

/// Appends a row to the artifact; chain .label()/.metric() on the result.
inline JsonRow &
report_row(const std::string &series)
{
    return JsonReport::instance().row(series);
}

/// Appends a "plan_cache" row with the process-wide plan-cache counters —
/// call at the end of a bench main so the artifact records how much
/// planning the run amortized through capture/replay.
inline void
report_plan_cache()
{
    const PlanCacheStats stats = PlanCache::instance().stats();
    JsonRow &row = report_row("plan_cache");
    for (const PlanCacheMetricDef &metric : plan_cache_metric_registry()) {
        row.metric(metric.key, metric.get(stats));
    }
}

// ---- Bench-preset registry (the mgperf gate's workload table) -----------

/// One registered preset: a deterministic in-process benchmark whose rows
/// the regression gate tracks per device.
struct BenchPreset {
    const char *name;
    const char *description;
    prof::BenchRun (*run)(const sim::DeviceSpec &device);
};

namespace detail {

inline prof::BenchRow &
preset_row(prof::BenchRun &run, const std::string &series)
{
    run.rows.emplace_back();
    run.rows.back().series = series;
    return run.rows.back();
}

/// Figure 7 preset: end-to-end inference of Longformer-large and
/// QDS-Transformer-base under the three processing modes, one dataset
/// sample (the binaries average three; the gate wants speed and
/// determinism, not averaging).
inline prof::BenchRun
preset_fig7(const sim::DeviceSpec &device)
{
    prof::BenchRun run;
    for (const char *model_name : {"longformer", "qds"}) {
        const ModelConfig model = model_config_by_name(model_name);
        Rng rng(2022);
        const WorkloadSample sample = sample_for_model(rng, model);
        for (const SliceMode mode :
             {SliceMode::kMultigrain, SliceMode::kCoarseOnly,
              SliceMode::kFineOnly}) {
            const TransformerRunner runner(model, mode, sample, 1);
            const EndToEndResult r = runner.simulate(device);
            prof::BenchRow &row = preset_row(run, "fig7");
            row.labels.emplace_back("model", model.name);
            row.labels.emplace_back("mode", to_string(mode));
            row.metrics.emplace_back("total_us", r.total_us);
            row.metrics.emplace_back("attention_us", r.attention_us);
            row.metrics.emplace_back("dram_bytes", r.dram_bytes);
            row.metrics.emplace_back("attention_dram_bytes",
                                     r.attention_dram_bytes);
            // Static memory plan of the replayed layer, scaled to the
            // whole model — exact-gated (core/memplan.h).
            const auto mem = runner.layer_memplan(
                device, TransformerRunner::LayerKind::kInference);
            const double layers = static_cast<double>(model.num_layers);
            row.metrics.emplace_back(
                "peak_hbm_bytes",
                static_cast<double>(mem->peak_hbm_bytes()) * layers);
            row.metrics.emplace_back(
                "pooling_savings",
                static_cast<double>(mem->pooling_savings()) * layers);
        }
    }
    return run;
}

/// Figure 9 preset: the compound sparse GEMM phases across the five
/// compound patterns under the three processing modes.
inline prof::BenchRun
preset_fig9(const sim::DeviceSpec &device)
{
    constexpr index_t kSeqLen = 4096;
    constexpr double kDensity = 0.05;
    AttentionConfig config;
    config.head_dim = 64;
    config.num_heads = 4;
    config.batch = 1;
    config.block = 64;

    prof::BenchRun run;
    for (const auto &[label, pattern] :
         fig9_patterns(kSeqLen, kDensity, 2022)) {
        for (const SliceMode mode :
             {SliceMode::kMultigrain, SliceMode::kCoarseOnly,
              SliceMode::kFineOnly}) {
            const AttentionEngine engine(pattern, config, mode);
            const sim::SimResult r = engine.simulate(device);
            prof::BenchRow &row = preset_row(run, "fig9");
            row.labels.emplace_back("pattern", label);
            row.labels.emplace_back("mode", to_string(mode));
            row.metrics.emplace_back("sddmm_us", r.span(phase::kSddmm));
            row.metrics.emplace_back("softmax_us",
                                     r.span(phase::kSoftmax));
            row.metrics.emplace_back("spmm_us", r.span(phase::kSpmm));
            row.metrics.emplace_back("total_us", r.total_us);
            const auto mem = engine.forward_memplan(device);
            row.metrics.emplace_back(
                "peak_hbm_bytes",
                static_cast<double>(mem->peak_hbm_bytes()));
            row.metrics.emplace_back(
                "pooling_savings",
                static_cast<double>(mem->pooling_savings()));
        }
    }
    return run;
}

/// Figure 11 preset: our coarse kernels vs the Triton-style blocked
/// kernels on the pure coarse patterns.
inline prof::BenchRun
preset_fig11(const sim::DeviceSpec &device)
{
    constexpr index_t kSeqLen = 4096;
    constexpr index_t kHeadDim = 64;
    constexpr index_t kHeads = 4;
    const auto simulate_one = [&device](sim::KernelLaunch launch) {
        LaunchGraph graph;
        graph.launch(0, std::move(launch));
        return sim::simulate(device, graph).total_us;
    };

    prof::BenchRun run;
    for (const auto &[label, pattern] : fig11_patterns(kSeqLen, 2022)) {
        SliceOptions options;
        options.block = 64;
        options.mode = SliceMode::kCoarseOnly;
        const SlicePlan plan = slice_and_dice(pattern, options);
        const BsrLayout &bsr = *plan.coarse;
        const BcooLayout bcoo = bcoo_from_bsr(bsr);
        prof::BenchRow &row = preset_row(run, "fig11");
        row.labels.emplace_back("pattern", label);
        {
            // The raw kernel plans carry no buffer annotations, so the
            // memory metrics come from the coarse-only engine over the
            // same pattern — the captured plan those kernels run inside.
            AttentionConfig mem_config;
            mem_config.head_dim = kHeadDim;
            mem_config.num_heads = kHeads;
            mem_config.batch = 1;
            mem_config.block = 64;
            const AttentionEngine engine(pattern, mem_config,
                                         SliceMode::kCoarseOnly);
            const auto mem = engine.forward_memplan(device);
            row.metrics.emplace_back(
                "peak_hbm_bytes",
                static_cast<double>(mem->peak_hbm_bytes()));
            row.metrics.emplace_back(
                "pooling_savings",
                static_cast<double>(mem->pooling_savings()));
        }
        row.metrics.emplace_back(
            "ours_sddmm_us",
            simulate_one(
                kernels::plan_coarse_sddmm(device, bsr, kHeadDim, kHeads)));
        row.metrics.emplace_back(
            "triton_sddmm_us",
            simulate_one(
                kernels::plan_triton_sddmm(device, bcoo, kHeadDim,
                                           kHeads)));
        row.metrics.emplace_back(
            "ours_spmm_us",
            simulate_one(
                kernels::plan_coarse_spmm(device, bsr, kHeadDim, kHeads)));
        row.metrics.emplace_back(
            "triton_spmm_us",
            simulate_one(
                kernels::plan_triton_spmm(device, bsr, kHeadDim, kHeads)));
    }
    return run;
}

/// Tiny preset: the tiny test model end to end — cheap enough for the
/// gate's perturbation self-test to run on every CI invocation.
inline prof::BenchRun
preset_tiny(const sim::DeviceSpec &device)
{
    prof::BenchRun run;
    const ModelConfig model = model_config_by_name("tiny");
    Rng rng(2022);
    const WorkloadSample sample = sample_for_model(rng, model);
    for (const SliceMode mode :
         {SliceMode::kMultigrain, SliceMode::kDense}) {
        const TransformerRunner runner(model, mode, sample, 1);
        const EndToEndResult r = runner.simulate(device);
        prof::BenchRow &row = preset_row(run, "tiny");
        row.labels.emplace_back("mode", to_string(mode));
        row.metrics.emplace_back("total_us", r.total_us);
        row.metrics.emplace_back("attention_us", r.attention_us);
        row.metrics.emplace_back("dram_bytes", r.dram_bytes);
        const auto mem = runner.layer_memplan(
            device, TransformerRunner::LayerKind::kInference);
        const double layers = static_cast<double>(model.num_layers);
        row.metrics.emplace_back(
            "peak_hbm_bytes",
            static_cast<double>(mem->peak_hbm_bytes()) * layers);
        row.metrics.emplace_back(
            "pooling_savings",
            static_cast<double>(mem->pooling_savings()) * layers);
    }
    return run;
}

/// Serving preset: the mgserve "tiny" traffic preset end to end — the
/// whole serving stack (traffic, admission, continuous batching, plan
/// reuse) reduced to one deterministic run the gate can diff. Latency
/// percentiles regress when the device slows down; the exact-policy
/// counters (rejected, plan_cache.*) regress when scheduling or plan
/// keying changes behavior.
inline prof::BenchRun
preset_serve_tiny(const sim::DeviceSpec &device)
{
    serve::Server server(serve::serve_preset_by_name("tiny"), device);
    const serve::ServeReport report = server.run();
    prof::BenchRun run;
    serve::append_serve_rows(run, report);
    return run;
}

/// Cluster preset: a 2-replica homogeneous fleet of the tiny traffic
/// preset behind the round-robin router (serve/cluster.h) — the
/// scale-out layer reduced to one deterministic run the gate can diff.
/// Fleet latency percentiles regress when the device slows down; the
/// exact router/outcome counters regress when placement or failover
/// behavior changes.
inline prof::BenchRun
preset_cluster_tiny(const sim::DeviceSpec &device)
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
    config.router_seed = config.serve.traffic.seed;
    serve::Cluster cluster(std::move(config));
    const serve::ClusterReport report = cluster.run();
    MG_CHECK(serve::reconcile_cluster(report).empty())
        << "cluster_tiny does not conserve";

    prof::BenchRun run;
    prof::BenchRow &fleet = preset_row(run, "cluster");
    fleet.labels.emplace_back("policy", to_string(report.policy));
    fleet.metrics.emplace_back("arrivals",
                               static_cast<double>(report.arrivals));
    fleet.metrics.emplace_back("completed",
                               static_cast<double>(report.completed));
    fleet.metrics.emplace_back(
        "deadline_miss", static_cast<double>(report.deadline_miss));
    fleet.metrics.emplace_back("rejected",
                               static_cast<double>(report.rejected));
    fleet.metrics.emplace_back("timed_out",
                               static_cast<double>(report.timed_out));
    fleet.metrics.emplace_back(
        "lost_in_flight", static_cast<double>(report.lost_in_flight));
    fleet.metrics.emplace_back("rounds",
                               static_cast<double>(report.rounds));
    fleet.metrics.emplace_back("makespan_us", report.makespan_us);
    fleet.metrics.emplace_back("busy_us", report.busy_us);
    fleet.metrics.emplace_back("throughput_rps", report.throughput_rps);
    fleet.metrics.emplace_back("util_skew", report.util_skew);
    fleet.metrics.emplace_back("p50_us", report.latency.p50);
    fleet.metrics.emplace_back("p95_us", report.latency.p95);
    fleet.metrics.emplace_back("p99_us", report.latency.p99);
    fleet.metrics.emplace_back(
        "routed", static_cast<double>(report.router.routed));
    fleet.metrics.emplace_back(
        "rerouted", static_cast<double>(report.router.rerouted));
    fleet.metrics.emplace_back(
        "failover_sheds",
        static_cast<double>(report.router.failover_sheds()));
    for (std::size_t k = 0; k < report.replicas.size(); ++k) {
        const serve::ServeReport &rep = report.replicas[k];
        prof::BenchRow &row = preset_row(run, "cluster_replica");
        row.labels.emplace_back("replica", std::to_string(k));
        row.metrics.emplace_back("offered",
                                 static_cast<double>(
                                     rep.admission.offered));
        row.metrics.emplace_back("completed",
                                 static_cast<double>(rep.completed));
        row.metrics.emplace_back("rounds",
                                 static_cast<double>(rep.rounds));
        row.metrics.emplace_back("busy_us", rep.busy_us);
        row.metrics.emplace_back("p99_us", rep.latency.p99);
        row.metrics.emplace_back("util", report.replica_util[k]);
    }
    return run;
}

}  // namespace detail

/// The registered presets, in baseline-file order.
inline const std::vector<BenchPreset> &
bench_presets()
{
    static const std::vector<BenchPreset> presets = {
        {"fig7", "end-to-end inference (Longformer + QDS, 3 modes)",
         &detail::preset_fig7},
        {"fig9", "compound sparse GEMM phases (5 patterns, 3 modes)",
         &detail::preset_fig9},
        {"fig11", "coarse kernels vs Triton-style blocked kernels",
         &detail::preset_fig11},
        {"tiny", "tiny model end-to-end (gate self-test workload)",
         &detail::preset_tiny},
        {"serve_tiny", "mgserve tiny traffic preset (serving-layer gate)",
         &detail::preset_serve_tiny},
        {"cluster_tiny",
         "2-replica round-robin fleet of the tiny preset (fleet gate)",
         &detail::preset_cluster_tiny},
    };
    return presets;
}

/// nullptr when no preset has that name.
inline const BenchPreset *
find_bench_preset(const std::string &name)
{
    for (const BenchPreset &preset : bench_presets()) {
        if (name == preset.name) {
            return &preset;
        }
    }
    return nullptr;
}

/// Runs `preset` on the device named by its CLI name ("a100"/"rtx3090")
/// and returns the manifest-stamped run named "<preset>@<device>". The
/// process-wide plan cache is cleared first so the appended "plan_cache"
/// row is a per-preset delta, reproducible regardless of what ran before
/// — a fingerprint change that kills cache reuse fails the gate next to
/// the latency it costs.
inline prof::BenchRun
run_bench_preset(const BenchPreset &preset,
                 const std::string &device_name)
{
    const sim::DeviceSpec device = sim::device_spec_by_name(device_name);
    PlanCache::instance().clear();
    prof::BenchRun run = preset.run(device);
    run.name = std::string(preset.name) + "@" + device_name;
    run.manifest = prof::RunManifest::collect(device_name);
    const PlanCacheStats stats = PlanCache::instance().stats();
    prof::BenchRow &row = detail::preset_row(run, "plan_cache");
    for (const PlanCacheMetricDef &metric : plan_cache_metric_registry()) {
        row.metrics.emplace_back(metric.key, metric.get(stats));
    }
    return run;
}

}  // namespace multigrain::bench

#endif  // MULTIGRAIN_BENCH_BENCH_UTIL_H_
