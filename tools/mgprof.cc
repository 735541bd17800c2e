// mgprof — the repo's Nsight-Compute-style profiling CLI.
//
// Runs a preset workload (model x device x processing mode) through the
// transformer planner and the GPU simulator, then emits, in one shot:
//   * the per-kernel characterization table (roofline bound, utilization,
//     energy) and the carved phase table (span / overlap / DRAM /
//     achieved occupancy per sddmm/softmax/spmm phase, per layer);
//   * a schema-versioned machine-readable JSON profile (--json);
//   * a phase/kernel CSV (--csv);
//   * an enriched Perfetto trace with counter tracks, cross-stream flow
//     arrows, and phase marker slices (--trace), for ui.perfetto.dev.
//
// Every artifact written is re-parsed before exit, so a zero exit status
// certifies valid JSON — CI leans on this. A failed validation exits
// with the distinct status 2 ("validation failed: artifact ...") so CI
// can tell a bad artifact from a bad invocation (status 1).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/plan_cache.h"
#include "gpusim/device.h"
#include "gpusim/trace.h"
#include "profiler/export.h"
#include "profiler/metrics.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"

namespace {

using namespace multigrain;

struct Options {
    std::string model = "longformer";
    std::string device = "a100";
    std::string mode = "multigrain";
    index_t batch = 1;
    unsigned seed = 2022;
    bool training = false;
    bool quiet = false;
    bool plan_cache_stats = false;
    int steps = 1;
    int top_kernels = 20;
    std::string json_path;
    std::string csv_path;
    std::string trace_path;
    /// Base directory for artifacts; relative --json/--csv/--trace paths
    /// land under it.
    std::string out_dir = ".";
};

cli::Table
flag_table(Options &opt)
{
    return {"mgprof",
            "Profiles one model x device x mode workload on the simulated "
            "GPU: console tables plus JSON, CSV and Perfetto artifacts, "
            "each re-parsed before exit (exit 2 on a bad artifact).",
            {
                cli::text("--model", "M",
                          "longformer | qds | bigbird | poolingformer | "
                          "tiny (default longformer)",
                          &opt.model),
                cli::text("--device", "D", "a100 | rtx3090 (default a100)",
                          &opt.device),
                cli::text("--mode", "P",
                          "multigrain | coarse-only | fine-only | dense "
                          "(default multigrain)",
                          &opt.mode),
                cli::number("--batch", "N", "batch size (default 1)",
                            &opt.batch),
                cli::number("--seed", "S",
                            "workload sampling seed (default 2022)",
                            &opt.seed),
                cli::toggle("--training",
                            "profile a training step (fwd + bwd) instead "
                            "of inference",
                            &opt.training),
                cli::number("--steps", "N",
                            "plan + simulate the workload N times; steps "
                            "after the first replay cached execution plans "
                            "(default 1)",
                            &opt.steps),
                cli::toggle("--plan-cache-stats",
                            "print plan-cache hit/miss/eviction counters "
                            "and the pattern fingerprint (also embedded in "
                            "--json output)",
                            &opt.plan_cache_stats),
                cli::text("--json", "PATH",
                          "write the mgprof.profile JSON document",
                          &opt.json_path),
                cli::text("--csv", "PATH", "write the carved-phase CSV",
                          &opt.csv_path),
                cli::text("--trace", "PATH",
                          "write the enriched Perfetto/Chrome trace",
                          &opt.trace_path),
                cli::out_dir(&opt.out_dir),
                cli::number("--top", "N",
                            "kernels shown in the console table (default "
                            "20)",
                            &opt.top_kernels),
                cli::toggle("--quiet",
                            "suppress the console tables and the "
                            "per-artifact \"wrote ...\" notes (CI logs)",
                            &opt.quiet),
            }};
}

/// Reads `path` back and parses it, so a bad artifact fails the run with
/// exit status 2. When `expected_schema` is non-empty the document's
/// "schema" tag must match it too.
void
validate_json_file(const std::string &path,
                   const std::string &expected_schema = "")
{
    try {
        std::ifstream file(path);
        MG_CHECK(file.good()) << "cannot reopen " << path;
        std::ostringstream buffer;
        buffer << file.rdbuf();
        const JsonValue doc = json_parse(buffer.str());
        MG_CHECK(doc.is_object())
            << path << ": top level is not an object";
        if (!expected_schema.empty()) {
            MG_CHECK(doc.at("schema").as_string() == expected_schema)
                << path << ": schema is not \"" << expected_schema
                << "\"";
        }
    } catch (const Error &e) {
        throw ValidationError("artifact " + path + ": " + e.what());
    }
}

std::vector<sim::PhaseMark>
phase_marks(const prof::ProfiledRun &run)
{
    std::vector<sim::PhaseMark> marks;
    for (const prof::PhaseStats &p : run.ops) {
        if (p.kernel_count > 0) {
            marks.push_back({p.name, p.start_us, p.end_us});
        }
    }
    return marks;
}

int
run(Options opt)
{
    MG_CHECK(opt.batch > 0) << "--batch must be positive";
    MG_CHECK(opt.steps > 0) << "--steps must be positive";
    opt.json_path = cli::resolve_out_path(opt.out_dir, opt.json_path);
    opt.csv_path = cli::resolve_out_path(opt.out_dir, opt.csv_path);
    opt.trace_path = cli::resolve_out_path(opt.out_dir, opt.trace_path);

    // The shared workload table (transformer/config, gpusim/device,
    // patterns/slice) — the same lookups mgperf and the bench presets use.
    const ModelConfig model = model_config_by_name(opt.model);
    const sim::DeviceSpec device = sim::device_spec_by_name(opt.device);
    const SliceMode mode = slice_mode_by_name(opt.mode);

    Rng rng(opt.seed);
    const WorkloadSample sample = sample_for_model(rng, model);

    // Each step builds the runner from scratch, the way repeated inference
    // steps (or a hyperparameter sweep over the same shapes) would: steps
    // after the first find their slice metadata and captured LaunchGraphs
    // in the plan cache and only pay for replay.
    EndToEndResult result;
    std::uint64_t pattern_fp = 0;
    for (int step = 0; step < opt.steps; ++step) {
        const TransformerRunner runner(model, mode, sample, opt.batch);
        pattern_fp = runner.attention().pattern_fingerprint();
        result = opt.training ? runner.simulate_training(device)
                              : runner.simulate(device);
    }

    prof::ProfiledRun profiled = prof::profile(result.sim, device);
    const PlanCacheStats cache_stats = PlanCache::instance().stats();
    for (const PlanCacheMetricDef &metric : plan_cache_metric_registry()) {
        profiled.counters.push_back(
            {metric.key, metric.unit, metric.get(cache_stats)});
    }

    if (!opt.quiet) {
        std::printf("mgprof: %s | %s | %s | batch %lld%s\n",
                    model.name.c_str(), device.name.c_str(),
                    to_string(mode),
                    static_cast<long long>(opt.batch),
                    opt.training ? " | training step" : "");
        std::printf("valid_len %lld, %zu special tokens\n\n",
                    static_cast<long long>(sample.valid_len),
                    sample.special_tokens.size());

        prof::print_phases(profiled, std::cout);
        std::printf("\nper-kernel characterization (top %d by time):\n",
                    opt.top_kernels);
        sim::print_report(profiled.report, std::cout, opt.top_kernels);

        if (!profiled.host_timers.empty()) {
            std::printf("\noffline (host) preprocessing, §3.1 \"once per"
                        " shape\":\n");
            for (const TimerStat &t : profiled.host_timers) {
                std::printf("  %-36s %10.1f us  x%lld\n", t.name.c_str(),
                            t.total_us, static_cast<long long>(t.count));
            }
        }
    }

    if (opt.plan_cache_stats) {
        std::printf("\nplan cache (pattern fingerprint %016llx, %d step%s):"
                    "\n",
                    static_cast<unsigned long long>(pattern_fp), opt.steps,
                    opt.steps == 1 ? "" : "s");
        for (const PlanCacheMetricDef &metric :
             plan_cache_metric_registry()) {
            std::printf("  %-24s %12.4g  %s\n", metric.key,
                        metric.get(cache_stats), metric.unit);
        }
    }

    if (!opt.json_path.empty()) {
        prof::write_text_file(opt.json_path, prof::to_json(profiled));
        validate_json_file(opt.json_path, prof::kProfileSchema);
        if (!opt.quiet) {
            std::fprintf(stderr, "mgprof: wrote %s (schema %s v%d)\n",
                         opt.json_path.c_str(), prof::kProfileSchema,
                         prof::kSchemaVersion);
        }
    }
    if (!opt.csv_path.empty()) {
        std::ostringstream csv;
        prof::write_phase_csv(profiled, csv);
        prof::write_text_file(opt.csv_path, csv.str());
        if (!opt.quiet) {
            std::fprintf(stderr, "mgprof: wrote %s\n",
                         opt.csv_path.c_str());
        }
    }
    if (!opt.trace_path.empty()) {
        sim::write_chrome_trace_file(result.sim, opt.trace_path, device,
                                     phase_marks(profiled));
        validate_json_file(opt.trace_path);
        if (!opt.quiet) {
            std::fprintf(stderr,
                         "mgprof: wrote %s (open in ui.perfetto.dev)\n",
                         opt.trace_path.c_str());
        }
    }
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    Options opt;
    return cli::main(flag_table(opt), argc, argv,
                     [&opt] { return run(opt); });
}
