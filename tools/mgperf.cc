// mgperf — benchmark orchestration and the perf-regression gate.
//
// Runs the registered bench presets (bench/bench_util.h) on the selected
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

#include "bench_util.h"
#include "common/error.h"
#include "common/json.h"
#include "common/logging.h"
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

void
usage(std::ostream &os)
{
    os << "usage: mgperf [options]\n"
          "\n"
          "  --baseline DIR     baseline directory to diff against\n"
          "                     (default bench/baselines)\n"
          "  --presets LIST     comma-separated preset subset (--list to"
          " enumerate;\n"
          "                     default: all)\n"
          "  --devices LIST     comma-separated devices (default"
          " a100,rtx3090)\n"
          "  --history PATH     JSONL corpus appended per run (default\n"
          "                     bench_history.jsonl; empty string"
          " disables)\n"
          "  --report PATH      machine-readable report (default\n"
          "                     mgperf_report.json; empty string"
          " disables)\n"
          "  --out-dir DIR      directory for artifacts (default .;"
          " relative\n"
          "                     --history/--report paths land under it)\n"
          "  --update-baselines write the current runs to the baseline"
          " directory\n"
          "                     instead of diffing (the documented refresh"
          " flow)\n"
          "  --tol-scale X      scale every regression threshold by X\n"
          "  --perturb-dram X   scale DRAM bandwidth by X (gate"
          " self-test);\n"
          "                     likewise --perturb-tensor, --perturb-cuda,"
          "\n"
          "                     --perturb-l2, --perturb-launch\n"
          "  --perturb-mem X    scale every annotated buffer size by X\n"
          "                     (memory-gate self-test; trips the exact\n"
          "                     peak_hbm_bytes policy)\n"
          "  --verbose-report   include in-tolerance deltas in the tables\n"
          "  --list             list registered presets and exit\n"
          "  --quiet            summary lines only (CI logs)\n"
          "  --help             this text\n";
}

void
add_perturb(Options &opt, const std::string &key, const std::string &value)
{
    bench::parse_double("--perturb-" + key, value);
    if (!opt.perturb.empty()) {
        opt.perturb += ",";
    }
    opt.perturb += key + "=" + value;
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
        if (arg == "--baseline") {
            opt.baseline_dir = next();
        } else if (arg == "--presets") {
            opt.presets = bench::split_csv(next());
        } else if (arg == "--devices") {
            opt.devices = bench::split_csv(next());
        } else if (arg == "--history") {
            opt.history_path = next();
        } else if (arg == "--report") {
            opt.report_path = next();
        } else if (arg == "--out-dir") {
            opt.out_dir = next();
            MG_CHECK(!opt.out_dir.empty()) << "--out-dir must be non-empty";
        } else if (arg == "--update-baselines") {
            opt.update_baselines = true;
        } else if (arg == "--tol-scale") {
            opt.tol_scale = bench::parse_double(arg, next());
        } else if (arg == "--perturb-dram") {
            add_perturb(opt, "dram", next());
        } else if (arg == "--perturb-tensor") {
            add_perturb(opt, "tensor", next());
        } else if (arg == "--perturb-cuda") {
            add_perturb(opt, "cuda", next());
        } else if (arg == "--perturb-l2") {
            add_perturb(opt, "l2", next());
        } else if (arg == "--perturb-launch") {
            add_perturb(opt, "launch", next());
        } else if (arg == "--perturb-mem") {
            opt.perturb_mem = next();
            bench::parse_double(arg, opt.perturb_mem);
        } else if (arg == "--verbose-report") {
            opt.verbose_report = true;
        } else if (arg == "--list") {
            opt.list = true;
        } else if (arg == "--quiet") {
            opt.quiet = true;
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
    if (opt.presets.empty()) {
        for (const bench::BenchPreset &preset : bench::bench_presets()) {
            opt.presets.push_back(preset.name);
        }
    }
    MG_CHECK(!opt.devices.empty()) << "--devices must name a device";
    MG_CHECK(opt.tol_scale >= 0) << "--tol-scale must be non-negative";
    opt.history_path =
        bench::resolve_out_path(opt.out_dir, opt.history_path);
    opt.report_path =
        bench::resolve_out_path(opt.out_dir, opt.report_path);
    return opt;
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
run(const Options &opt)
{
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
                bench::run_bench_preset(*preset, device);
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
    try {
        return run(parse_args(argc, argv));
    } catch (const Error &e) {
        std::fprintf(stderr, "mgperf: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mgperf: %s\n", e.what());
        return 1;
    }
}
