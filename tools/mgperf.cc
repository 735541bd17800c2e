// mgperf — benchmark orchestration and the perf-regression gate.
//
// Runs the registered bench presets (bench/figures.h) on the selected
// devices, appends every manifest-stamped run to the bench_history.jsonl
// corpus, diffs the runs against the committed baselines under
// bench/baselines/, prints a markdown report, writes mgperf_report.json,
// and exits non-zero when any tracked metric regressed. gpusim is
// deterministic, so the gate holds thresholds (2 % on times, exact on
// plan-cache counters) that real-GPU CI never could.
//
// Typical uses:
//   mgperf --baseline bench/baselines            # the CI gate
//   mgperf --update-baselines                    # refresh after a
//                                                #   deliberate perf change
//   mgperf --presets tiny --perturb-dram 0.9     # gate self-test: must
//                                                #   exit non-zero
//
// Exit codes: 0 clean, 1 usage/runtime error, 2 regression gate failed.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "common/error.h"
#include "common/json.h"
#include "figures.h"
#include "profiler/export.h"
#include "profiler/history.h"
#include "profiler/regress.h"

namespace {

using namespace multigrain;

constexpr int kExitRegression = 2;

struct Options {
    std::vector<std::string> presets;  // Empty = all registered.
    std::vector<std::string> devices = {"a100", "rtx3090"};
    std::string baseline_dir = "bench/baselines";
    std::string history_path = "bench_history.jsonl";
    std::string report_path = "mgperf_report.json";
    /// Base directory for artifacts; relative --history/--report paths
    /// land under it. --baseline is an input, not an artifact, and is
    /// deliberately not resolved against it.
    std::string out_dir = ".";
    bool update_baselines = false;
    bool list = false;
    bool verbose_report = false;
    bool quiet = false;
    double tol_scale = 1.0;
    std::string perturb;      // Accumulated "key=scale" terms.
    std::string perturb_mem;  // MULTIGRAIN_MEM_PERTURB scale.
};

/// Appends one "key=value" perturbation term once `value` checks out as
/// a number; the value is passed on verbatim.
cli::Flag
perturb_flag(Options &opt, const std::string &key, const std::string &help)
{
    const std::string name = "--perturb-" + key;
    return {name, "X", help, [&opt, key, name](const std::string &value) {
                cli::parse_number<double>(name, value);
                opt.perturb += (opt.perturb.empty() ? "" : ",") + key + "=" +
                               value;
            }};
}

cli::Table
flag_table(Options &opt)
{
    return {
        "mgperf",
        "Runs the registered bench presets, appends them to the history "
        "corpus, diffs them against the committed baselines and exits 2 "
        "when a tracked metric regressed.",
        {
            cli::text("--baseline", "DIR",
                      "baseline directory to diff against (default "
                      "bench/baselines)",
                      &opt.baseline_dir),
            cli::list("--presets", "LIST",
                      "comma-separated preset subset (--list to "
                      "enumerate; default: all)",
                      &opt.presets),
            cli::list("--devices", "LIST",
                      "comma-separated devices (default a100,rtx3090)",
                      &opt.devices),
            cli::text("--history", "PATH",
                      "JSONL corpus appended per run (default "
                      "bench_history.jsonl; empty string disables)",
                      &opt.history_path),
            cli::text("--report", "PATH",
                      "machine-readable report (default mgperf_report.json; "
                      "empty string disables)",
                      &opt.report_path),
            cli::out_dir(&opt.out_dir),
            cli::toggle("--update-baselines",
                        "write the current runs to the baseline directory "
                        "instead of diffing (the documented refresh flow)",
                        &opt.update_baselines),
            cli::number("--tol-scale", "X",
                        "scale every regression threshold by X",
                        &opt.tol_scale),
            perturb_flag(opt, "dram",
                         "scale DRAM bandwidth by X (gate self-test)"),
            perturb_flag(opt, "tensor",
                         "scale tensor-core throughput by X (gate "
                         "self-test)"),
            perturb_flag(opt, "cuda",
                         "scale CUDA-core throughput by X (gate self-test)"),
            perturb_flag(opt, "l2",
                         "scale L2 bandwidth by X (gate self-test)"),
            perturb_flag(opt, "launch",
                         "scale kernel launch overhead by X (gate "
                         "self-test)"),
            {"--perturb-mem", "X",
             "scale every annotated buffer size by X (memory-gate "
             "self-test; trips the exact peak_hbm_bytes policy)",
             [&opt](const std::string &value) {
                 cli::parse_number<double>("--perturb-mem", value);
                 opt.perturb_mem = value;
             }},
            cli::toggle("--verbose-report",
                        "include in-tolerance deltas in the tables",
                        &opt.verbose_report),
            cli::toggle("--list", "list registered presets and exit",
                        &opt.list),
            cli::toggle("--quiet", "summary lines only (CI logs)",
                        &opt.quiet),
        }};
}

void
write_report_file(const Options &opt,
                  const std::vector<prof::RegressionReport> &reports,
                  bool gate_failed)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.begin_object();
        w.field("schema", prof::kRegressionSchema);
        w.field("schema_version", prof::kRegressionSchemaVersion);
        w.field("gate_failed", gate_failed);
        w.field("tol_scale", opt.tol_scale);
        w.field("perturbation", opt.perturb);
        w.field("mem_perturbation", opt.perturb_mem);
        w.key("manifest");
        prof::write_manifest(w, prof::RunManifest::collect());
        w.key("presets");
        w.begin_array();
        for (const prof::RegressionReport &report : reports) {
            prof::write_report_json(w, report);
        }
        w.end_array();
        w.end_object();
    }
    prof::write_text_file(opt.report_path, os.str());
    // Certify the artifact the way mgprof does: reparse before exit.
    json_parse(os.str());
    if (!opt.quiet) {
        std::fprintf(stderr, "mgperf: wrote %s\n",
                     opt.report_path.c_str());
    }
}

int
run(Options opt)
{
    if (opt.presets.empty()) {
        for (const bench::BenchPreset &preset : bench::bench_presets()) {
            opt.presets.push_back(preset.name);
        }
    }
    MG_CHECK(opt.tol_scale >= 0) << "--tol-scale must be non-negative";
    opt.history_path = cli::resolve_out_path(opt.out_dir, opt.history_path);
    opt.report_path = cli::resolve_out_path(opt.out_dir, opt.report_path);

    if (opt.list) {
        for (const bench::BenchPreset &preset : bench::bench_presets()) {
            std::printf("%-8s %s\n", preset.name, preset.description);
        }
        return 0;
    }

    if (!opt.perturb.empty()) {
        // The DeviceSpec factories read this, so the perturbation reaches
        // every simulation the presets run — the gate self-test path.
        ::setenv("MULTIGRAIN_PERTURB", opt.perturb.c_str(), 1);
        if (!opt.quiet) {
            std::fprintf(stderr, "mgperf: MULTIGRAIN_PERTURB=%s\n",
                         opt.perturb.c_str());
        }
    }
    if (!opt.perturb_mem.empty()) {
        // sim::annotate reads this once per process (static cache), so it
        // must be set before the first preset runs — which this is.
        ::setenv("MULTIGRAIN_MEM_PERTURB", opt.perturb_mem.c_str(), 1);
        if (!opt.quiet) {
            std::fprintf(stderr, "mgperf: MULTIGRAIN_MEM_PERTURB=%s\n",
                         opt.perturb_mem.c_str());
        }
    }

    const std::vector<prof::BenchRun> baselines =
        opt.update_baselines
            ? std::vector<prof::BenchRun>{}
            : prof::load_baseline_dir(opt.baseline_dir);
    const auto find_baseline =
        [&baselines](const std::string &name) -> const prof::BenchRun * {
        for (const prof::BenchRun &b : baselines) {
            if (b.name == name) {
                return &b;
            }
        }
        return nullptr;
    };

    std::vector<prof::RegressionReport> reports;
    int missing_baselines = 0;
    bool gate_failed = false;
    for (const std::string &preset_name : opt.presets) {
        const bench::BenchPreset *preset =
            bench::find_bench_preset(preset_name);
        if (preset == nullptr) {
            throw Error("unknown preset \"" + preset_name +
                        "\" (--list to enumerate)");
        }
        for (const std::string &device : opt.devices) {
            prof::BenchRun current =
                bench::run_bench_preset(*preset, {device});
            if (!opt.quiet) {
                std::fprintf(stderr, "mgperf: ran %s (%zu rows)\n",
                             current.name.c_str(), current.rows.size());
            }
            if (!opt.history_path.empty()) {
                prof::append_history(opt.history_path, current);
            }
            if (opt.update_baselines) {
                prof::write_baseline(opt.baseline_dir, current);
                std::printf("mgperf: baseline %s/%s.json updated\n",
                            opt.baseline_dir.c_str(),
                            current.name.c_str());
                continue;
            }
            const prof::BenchRun *baseline = find_baseline(current.name);
            if (baseline == nullptr) {
                ++missing_baselines;
                std::printf("mgperf: no baseline for %s — run with "
                            "--update-baselines to start gating it\n",
                            current.name.c_str());
                continue;
            }
            prof::CompareOptions compare;
            compare.tol_scale = opt.tol_scale;
            reports.push_back(
                prof::compare_runs(*baseline, current, compare));
            gate_failed = gate_failed || reports.back().gate_failed();
        }
    }

    if (opt.update_baselines) {
        std::printf("mgperf: baselines written to %s — commit them with "
                    "the change that moved the numbers\n",
                    opt.baseline_dir.c_str());
        return 0;
    }

    for (const prof::RegressionReport &report : reports) {
        if (!opt.quiet || report.gate_failed()) {
            prof::print_report(report, std::cout, opt.verbose_report);
        }
    }
    if (!opt.report_path.empty()) {
        write_report_file(opt, reports, gate_failed);
    }

    int regressed = 0, improved = 0, ok = 0;
    for (const prof::RegressionReport &report : reports) {
        regressed += report.regressed + report.missing_rows +
                     report.missing_metrics;
        improved += report.improved;
        ok += report.ok;
    }
    std::printf("mgperf: %zu preset runs gated — %d regressed, %d "
                "improved, %d ok%s\n",
                reports.size(), regressed, improved, ok,
                missing_baselines > 0 ? " (some baselines missing)" : "");
    if (gate_failed) {
        std::printf("mgperf: GATE FAILED — if the change is a deliberate "
                    "perf trade-off, refresh with --update-baselines and "
                    "commit the diff\n");
        return kExitRegression;
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
