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
// with the distinct status 2 and an "artifact validation failed" message
// so CI can tell a bad artifact from a bad invocation (status 1).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/error.h"
#include "common/json.h"
#include "common/logging.h"
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
    bool table = true;
    bool notes = true;
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

void
usage(std::ostream &os)
{
    os << "usage: mgprof [options]\n"
          "\n"
          "  --model M    longformer | qds | bigbird | poolingformer | tiny"
          " (default longformer)\n"
          "  --device D   a100 | rtx3090 (default a100)\n"
          "  --mode P     multigrain | coarse-only | fine-only | dense"
          " (default multigrain)\n"
          "  --batch N    batch size (default 1)\n"
          "  --seed S     workload sampling seed (default 2022)\n"
          "  --training   profile a training step (fwd + bwd) instead of"
          " inference\n"
          "  --steps N    plan + simulate the workload N times; steps after"
          " the first\n"
          "               replay cached execution plans (default 1)\n"
          "  --plan-cache-stats\n"
          "               print plan-cache hit/miss/eviction counters and"
          " the pattern\n"
          "               fingerprint (also embedded in --json output)\n"
          "  --json PATH  write the mgprof.profile JSON document\n"
          "  --csv PATH   write the carved-phase CSV\n"
          "  --trace PATH write the enriched Perfetto/Chrome trace\n"
          "  --out-dir DIR\n"
          "               directory for artifacts (default .; relative\n"
          "               --json/--csv/--trace paths land under it)\n"
          "  --top N      kernels shown in the console table (default 20)\n"
          "  --quiet      suppress the console tables and the per-artifact"
          "\n"
          "               \"wrote ...\" notes (CI logs)\n"
          "  --verbose    raise the library log level to info\n"
          "  --help       this text\n";
}

Options
parse_args(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            MG_CHECK(i + 1 < argc) << arg << " needs a value";
            return argv[++i];
        };
        if (arg == "--model") {
            opt.model = next();
        } else if (arg == "--device") {
            opt.device = next();
        } else if (arg == "--mode") {
            opt.mode = next();
        } else if (arg == "--batch") {
            opt.batch = bench::parse_signed<index_t>(arg, next());
        } else if (arg == "--seed") {
            opt.seed = bench::parse_unsigned<unsigned>(arg, next());
        } else if (arg == "--training") {
            opt.training = true;
        } else if (arg == "--steps") {
            opt.steps = bench::parse_signed<int>(arg, next());
        } else if (arg == "--plan-cache-stats") {
            opt.plan_cache_stats = true;
        } else if (arg == "--json") {
            opt.json_path = next();
        } else if (arg == "--csv") {
            opt.csv_path = next();
        } else if (arg == "--trace") {
            opt.trace_path = next();
        } else if (arg == "--out-dir") {
            opt.out_dir = next();
            MG_CHECK(!opt.out_dir.empty()) << "--out-dir must be non-empty";
        } else if (arg == "--top") {
            opt.top_kernels = bench::parse_signed<int>(arg, next());
        } else if (arg == "--quiet") {
            opt.table = false;
            opt.notes = false;
        } else if (arg == "--verbose") {
            set_log_level(LogLevel::kInfo);
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            std::exit(0);
        } else {
            usage(std::cerr);
            throw Error("unknown argument \"" + arg + "\"");
        }
    }
    MG_CHECK(opt.batch > 0) << "--batch must be positive";
    MG_CHECK(opt.steps > 0) << "--steps must be positive";
    opt.json_path = bench::resolve_out_path(opt.out_dir, opt.json_path);
    opt.csv_path = bench::resolve_out_path(opt.out_dir, opt.csv_path);
    opt.trace_path = bench::resolve_out_path(opt.out_dir, opt.trace_path);
    return opt;
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
        throw ValidationError(path + ": " + e.what());
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
run(const Options &opt)
{
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

    if (opt.table) {
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
        if (opt.notes) {
            std::fprintf(stderr, "mgprof: wrote %s (schema %s v%d)\n",
                         opt.json_path.c_str(), prof::kProfileSchema,
                         prof::kSchemaVersion);
        }
    }
    if (!opt.csv_path.empty()) {
        std::ostringstream csv;
        prof::write_phase_csv(profiled, csv);
        prof::write_text_file(opt.csv_path, csv.str());
        if (opt.notes) {
            std::fprintf(stderr, "mgprof: wrote %s\n",
                         opt.csv_path.c_str());
        }
    }
    if (!opt.trace_path.empty()) {
        sim::TraceOptions trace_options;
        trace_options.device = &device;
        trace_options.phases = phase_marks(profiled);
        sim::write_chrome_trace_file(result.sim, opt.trace_path,
                                     trace_options);
        validate_json_file(opt.trace_path);
        if (opt.notes) {
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
    try {
        return run(parse_args(argc, argv));
    } catch (const ValidationError &e) {
        std::fprintf(stderr, "mgprof: artifact validation failed: %s\n",
                     e.what());
        return 2;
    } catch (const Error &e) {
        std::fprintf(stderr, "mgprof: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mgprof: %s\n", e.what());
        return 1;
    }
}
