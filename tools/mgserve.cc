// mgserve — drive a serving traffic preset against a simulated device.
//
// Runs one mgserve preset (src/serve) end to end: seeded synthetic
// traffic through admission control and the continuous-batching
// scheduler, every round of batches replayed into gpusim through the
// plan cache. Prints the serving summary — latency percentiles per SLO
// class, throughput, queue/admission counters, the batch-size histogram,
// plan-cache hits/misses — and writes the same numbers as a
// manifest-stamped "mgprof.bench" artifact, the document the mgperf
// serving gate diffs against bench/baselines/serve_tiny@<device>.json.
//
// Typical uses:
//   mgserve --preset tiny --device a100      # the acceptance run
//   mgserve --preset overload                # watch the queue shed
//   mgserve --list                           # enumerate presets
//
// Exit codes: 0 clean, 1 usage/runtime error, 2 validation failure
// (unknown --preset/--device, reported via the shared ValidationError).

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "common/error.h"
#include "common/logging.h"
#include "gpusim/device.h"
#include "profiler/export.h"
#include "serve/server.h"

namespace {

using namespace multigrain;

struct Options {
    std::string preset = "tiny";
    std::string device = "a100";
    /// Artifact path; "-" means the default
    /// $MULTIGRAIN_BENCH_DIR/BENCH_serve_<preset>@<device>.json, empty
    /// disables the artifact.
    std::string bench_path = "-";
    /// Base directory for artifacts; relative --bench paths and the
    /// default artifact land here. "." preserves the historical layout
    /// (and lets MULTIGRAIN_BENCH_DIR steer the default path).
    std::string out_dir = ".";
    std::uint64_t seed = 0;  ///< 0 keeps the preset's seed.
    bool list = false;
    bool quiet = false;
};

void
usage(std::ostream &os)
{
    os << "usage: mgserve [options]\n"
          "\n"
          "  --preset NAME  traffic preset (--list to enumerate; default"
          " tiny)\n"
          "  --device NAME  device spec (a100 | rtx3090; default a100)\n"
          "  --seed N       override the preset's traffic seed\n"
          "  --bench PATH   bench artifact path (default\n"
          "                 $MULTIGRAIN_BENCH_DIR/BENCH_serve_<preset>@"
          "<device>.json;\n"
          "                 empty string disables)\n"
          "  --out-dir DIR  directory for artifacts (default .; relative\n"
          "                 --bench paths land under it)\n"
          "  --list         list registered presets and exit\n"
          "  --quiet        summary lines only\n"
          "  --help         this text\n";
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
        if (arg == "--preset") {
            opt.preset = next();
        } else if (arg == "--device") {
            opt.device = next();
        } else if (arg == "--seed") {
            opt.seed = bench::parse_unsigned(arg, next());
        } else if (arg == "--bench") {
            opt.bench_path = next();
        } else if (arg == "--out-dir") {
            opt.out_dir = next();
            MG_CHECK(!opt.out_dir.empty()) << "--out-dir must be non-empty";
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
    return opt;
}

void
print_report(const serve::ServeReport &report)
{
    std::printf("\nmgserve: preset %s on %s\n", report.preset.c_str(),
                report.device.c_str());

    std::printf("\n%-16s %10s\n", "admission", "count");
    std::printf("%-16s %10llu\n", "offered",
                static_cast<unsigned long long>(report.admission.offered));
    std::printf("%-16s %10llu\n", "admitted",
                static_cast<unsigned long long>(report.admission.admitted));
    std::printf("%-16s %10llu\n", "rejected",
                static_cast<unsigned long long>(report.admission.rejected));
    std::printf("%-16s %10llu\n", "timed_out",
                static_cast<unsigned long long>(
                    report.admission.timed_out));
    std::printf("%-16s %10llu\n", "completed",
                static_cast<unsigned long long>(report.completed));
    std::printf("%-16s %10llu\n", "deadline_miss",
                static_cast<unsigned long long>(report.deadline_miss));
    std::printf("%-16s %10zu\n", "max_queue_depth",
                report.admission.max_depth);

    std::printf("\n%-12s %6s %10s %10s %10s %10s\n", "latency (us)",
                "n", "p50", "p95", "p99", "max");
    const auto latency_row = [](const char *label,
                                const prof::LatencySummary &s) {
        std::printf("%-12s %6zu %10.1f %10.1f %10.1f %10.1f\n", label,
                    s.count, s.p50, s.p95, s.p99, s.max);
    };
    latency_row("all", report.latency);
    for (int c = 0; c < serve::kNumSloClasses; ++c) {
        latency_row(to_string(static_cast<serve::SloClass>(c)),
                    report.latency_by_class[c]);
    }

    std::printf("\nthroughput  %10.1f req/s over %.1f us makespan "
                "(gpu util %.0f%%)\n",
                report.throughput_rps, report.makespan_us,
                report.gpu_util * 100.0);
    std::printf("batching    %d rounds, avg batch %.2f, max batch %d\n",
                report.rounds, report.avg_batch, report.max_batch);

    std::printf("\n%-12s %10s\n", "batch size", "batches");
    for (const auto &[size, count] : report.batch_histogram) {
        std::printf("%-12d %10d\n", size, count);
    }

    std::printf("\nplan cache  %llu hits / %llu misses (hit rate %.0f%%)\n",
                static_cast<unsigned long long>(report.plan_cache.hits),
                static_cast<unsigned long long>(report.plan_cache.misses),
                report.plan_cache.hit_rate() * 100.0);
}

int
run(const Options &opt)
{
    if (opt.list) {
        for (const serve::ServePresetInfo &preset :
             serve::serve_presets()) {
            std::printf("%-10s %s\n", preset.name, preset.description);
        }
        return 0;
    }

    sim::DeviceSpec device;
    const serve::ServeConfig config = bench::validated_serve_config(
        opt.preset, opt.device, &device, opt.seed);

    serve::Server server(config, device);
    const serve::ServeReport report = server.run();
    if (!opt.quiet) {
        print_report(report);
    } else {
        std::printf("mgserve: %s@%s — %llu completed, %llu rejected, "
                    "p99 %.1f us, %.1f req/s\n",
                    opt.preset.c_str(), opt.device.c_str(),
                    static_cast<unsigned long long>(report.completed),
                    static_cast<unsigned long long>(
                        report.admission.rejected),
                    report.latency.p99, report.throughput_rps);
    }

    std::string bench_path = opt.bench_path;
    if (bench_path == "-") {
        bench_path = bench::default_artifact_dir(opt.out_dir) +
                     "/BENCH_serve_" + opt.preset + "@" + opt.device +
                     ".json";
    } else {
        bench_path = bench::resolve_out_path(opt.out_dir, bench_path);
    }
    if (!bench_path.empty()) {
        const prof::BenchRun run =
            serve::serve_bench_run(report, opt.device);
        prof::write_text_file(bench_path, run.to_json() + "\n");
        // Certify the artifact the way mgprof does: reparse before exit.
        json_parse(run.to_json());
        std::fprintf(stderr, "mgserve: wrote %s (%zu rows)\n",
                     bench_path.c_str(), run.rows.size());
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
        std::fprintf(stderr, "mgserve: validation failed: %s\n", e.what());
        return 2;
    } catch (const Error &e) {
        std::fprintf(stderr, "mgserve: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mgserve: %s\n", e.what());
        return 1;
    }
}
