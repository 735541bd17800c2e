// mgcost — per-tenant cost attribution and time-series telemetry for
// mgserve.
//
// Runs a serving preset with the TenantLedger and the fixed-interval
// telemetry sampler attached (src/serve/cost.h) and emits, per
// preset × device:
//   * the per-tenant cost report: every round's device-busy time split
//     down to tenants and SLO classes (compute by useful-token share,
//     pad waste pro-rata, HBM byte-time, queue occupancy) next to exact
//     outcome counters — validated "mgcost.report" v1 JSON;
//   * the time-series CSV (--timeseries): per-tenant queue depth and
//     token-bucket fill, in-flight requests, and the running round's
//     HBM watermark, sampled on a fixed grid of the virtual serving
//     clock (byte-identical across same-seed runs);
//   * a Perfetto timeline (--trace) with the same samples rendered as
//     "tele.*" counter tracks beside the mgtrace request/round lanes.
//
// The load-bearing property is conservation: per-tenant charged device
// time must telescope back to ServeReport::busy_us, and every counter
// must match its AdmissionStats twin exactly. reconcile_cost()
// re-derives everything it can from the ServeReport; any disagreement
// exits 2, distinct from usage errors — the same contract as mgtrace.
// --perturb-ledger seeds a deliberate corruption to prove the gate
// fails closed.
//
// Typical uses:
//   mgcost --preset noisy --device a100      # watch the hog get throttled
//   mgcost --all --device rtx3090            # gate every preset
//   mgcost --preset tiny --perturb-ledger 1.5   # self-test: must exit 2
//
// Exit codes: 0 clean, 1 usage/runtime error, 2 validation failed.

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
#include "gpusim/device.h"
#include "profiler/export.h"
#include "serve/cost.h"
#include "serve/server.h"
#include "serve/trace.h"

namespace {

using namespace multigrain;

struct Options {
    std::string preset = "tiny";
    std::string device = "a100";
    bool all = false;  ///< Every registered preset on --device.
    std::uint64_t seed = 0;  ///< 0 keeps the preset's seed.
    /// Report path; "-" = default mgcost_<preset>@<device>.report.json
    /// in $MULTIGRAIN_BENCH_DIR (or "."), empty disables.
    std::string report_path = "-";
    std::string timeseries_path;  ///< Telemetry CSV (empty disables).
    std::string trace_path;  ///< Perfetto timeline (empty disables).
    /// Base directory for artifacts; relative --report/--timeseries/
    /// --trace paths resolve under it.
    std::string out_dir = ".";
    double interval_us = 50;  ///< Telemetry sampling grid.
    /// Gate self-test: scale the first tenant's device charges by this
    /// factor before reconciling (1 = off). Must make mgcost exit 2.
    double perturb_ledger = 1;
    bool list = false;
    bool quiet = false;
};

void
usage(std::ostream &os)
{
    os << "usage: mgcost [options]\n"
          "\n"
          "  --preset NAME   traffic preset (--list to enumerate; default"
          " tiny)\n"
          "  --all           account every registered preset on --device\n"
          "  --device NAME   device spec (a100 | rtx3090; default a100)\n"
          "  --seed N        override the preset's traffic seed\n"
          "  --report PATH   mgcost.report JSON (default\n"
          "                  $MULTIGRAIN_BENCH_DIR/mgcost_<preset>@"
          "<device>.report.json;\n"
          "                  empty string disables)\n"
          "  --timeseries PATH\n"
          "                  write the telemetry time-series CSV\n"
          "  --trace PATH    write a Perfetto timeline with tele.*"
          " counter tracks\n"
          "  --out-dir DIR   directory for artifacts (default .; relative\n"
          "                  paths above land under it)\n"
          "  --interval-us US\n"
          "                  telemetry sampling grid (default 50)\n"
          "  --perturb-ledger X\n"
          "                  scale tenant 0's device charges by X before\n"
          "                  reconciling (conservation-gate self-test;\n"
          "                  X != 1 must exit 2)\n"
          "  --list          list registered presets and exit\n"
          "  --quiet         summary lines only\n"
          "  --verbose       raise the library log level to info\n"
          "  --help          this text\n";
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
        } else if (arg == "--all") {
            opt.all = true;
        } else if (arg == "--device") {
            opt.device = next();
        } else if (arg == "--seed") {
            opt.seed = bench::parse_unsigned(arg, next());
        } else if (arg == "--report") {
            opt.report_path = next();
        } else if (arg == "--timeseries") {
            opt.timeseries_path = next();
        } else if (arg == "--trace") {
            opt.trace_path = next();
        } else if (arg == "--out-dir") {
            opt.out_dir = next();
            MG_CHECK(!opt.out_dir.empty()) << "--out-dir must be non-empty";
        } else if (arg == "--interval-us") {
            opt.interval_us = bench::parse_double(arg, next());
            MG_CHECK(opt.interval_us > 0)
                << "--interval-us must be positive";
        } else if (arg == "--perturb-ledger") {
            opt.perturb_ledger = bench::parse_double(arg, next());
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
print_report(const serve::CostReport &cost)
{
    std::printf("\nmgcost: %lld rounds, busy %.1f us — charged device "
                "%.1f us, queue %.1f us, hbm %.3e byte-us\n",
                static_cast<long long>(cost.rounds), cost.busy_us,
                cost.charged_device_us, cost.charged_queue_us,
                cost.charged_hbm_byte_us);
    std::printf("\n%-10s %6s %10s %10s %10s %9s %6s %6s %6s %6s %10s\n",
                "tenant", "done", "compute_us", "pad_us", "queue_us",
                "dev_share", "shed_c", "shed_m", "shed_r", "aged",
                "p99_us");
    for (const serve::TenantCost &t : cost.tenants) {
        const serve::CostCell &c = t.total;
        const double share =
            cost.busy_us > 0 ? c.device_us() / cost.busy_us : 0;
        std::printf("%-10s %6llu %10.1f %10.1f %10.1f %8.1f%% %6llu "
                    "%6llu %6llu %6llu %10.1f\n",
                    t.tenant.c_str(),
                    static_cast<unsigned long long>(c.completed),
                    c.compute_us, c.pad_us, c.queue_us, share * 100.0,
                    static_cast<unsigned long long>(c.shed_capacity),
                    static_cast<unsigned long long>(c.shed_memory),
                    static_cast<unsigned long long>(c.shed_ratelimit),
                    static_cast<unsigned long long>(c.aged_out),
                    t.latency.p99);
    }
}

int
run_one(const Options &opt, const std::string &preset_name)
{
    sim::DeviceSpec device;
    const serve::ServeConfig config = bench::validated_serve_config(
        preset_name, opt.device, &device, opt.seed);
    const serve::CostRunInfo info{preset_name, opt.device,
                                  config.traffic.seed};

    std::vector<std::string> tenant_names;
    for (const serve::TenantSpec &t : config.traffic.tenants) {
        tenant_names.push_back(t.name);
    }
    serve::TelemetryRecorder telemetry({opt.interval_us},
                                       std::move(tenant_names));

    serve::TraceLog log;  // Only attached when --trace asks for it.
    serve::Server server(config, device);
    server.set_telemetry(&telemetry);
    if (!opt.trace_path.empty()) {
        server.set_trace(&log);
    }
    serve::ServeReport report = server.run();

    if (opt.perturb_ledger != 1 && !report.cost.tenants.empty()) {
        serve::scale_tenant_charges(report.cost, 0, opt.perturb_ledger);
    }
    const std::vector<std::string> errors =
        serve::reconcile_cost(report.cost, report);

    if (!opt.quiet) {
        print_report(report.cost);
    } else {
        std::printf("mgcost: %s@%s — %zu tenants, %lld rounds, "
                    "%.1f us charged, %s\n",
                    preset_name.c_str(), opt.device.c_str(),
                    report.cost.tenants.size(),
                    static_cast<long long>(report.cost.rounds),
                    report.cost.charged_device_us,
                    errors.empty() ? "conserved" : "RECONCILE FAILED");
    }

    // ---- Artifacts ----------------------------------------------------
    std::string report_path = opt.report_path;
    if (report_path == "-") {
        report_path = bench::default_artifact_dir(opt.out_dir) +
                      "/mgcost_" + preset_name + "@" + opt.device +
                      ".report.json";
    } else {
        report_path = bench::resolve_out_path(opt.out_dir, report_path);
    }
    if (!report_path.empty()) {
        const std::string json =
            serve::cost_report_json(report.cost, info, errors);
        prof::write_text_file(report_path, json + "\n");
        json_parse(json);  // Certify before exit, the mgprof way.
        if (!opt.quiet) {
            std::fprintf(stderr, "mgcost: wrote %s\n",
                         report_path.c_str());
        }
    }
    if (!opt.timeseries_path.empty()) {
        const std::string timeseries_path =
            bench::resolve_out_path(opt.out_dir, opt.timeseries_path);
        prof::write_text_file(timeseries_path,
                              serve::telemetry_csv(telemetry));
        if (!opt.quiet) {
            std::fprintf(stderr, "mgcost: wrote %s (%zu samples)\n",
                         timeseries_path.c_str(),
                         telemetry.samples().size());
        }
    }
    if (!opt.trace_path.empty()) {
        const std::string trace_path =
            bench::resolve_out_path(opt.out_dir, opt.trace_path);
        serve::ServeTraceOptions trace_options;
        trace_options.telemetry = &telemetry;
        serve::write_serve_trace_file(log, trace_path, trace_options);
        json_parse(serve::serve_trace_json(log, trace_options));
        if (!opt.quiet) {
            std::fprintf(stderr,
                         "mgcost: wrote %s (open in ui.perfetto.dev)\n",
                         trace_path.c_str());
        }
    }

    // ---- The gate -----------------------------------------------------
    if (!errors.empty()) {
        std::string what = "ledger does not reconcile with ServeReport (" +
                           preset_name + "@" + opt.device + "):";
        for (const std::string &e : errors) {
            what += "\n  " + e;
        }
        throw ValidationError(what);
    }
    return 0;
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
    if (!opt.all) {
        return run_one(opt, opt.preset);
    }
    return bench::run_preset_matrix(
        bench::serve_preset_names(),
        [&opt](const std::string &name) { return run_one(opt, name); });
}

}  // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parse_args(argc, argv));
    } catch (const ValidationError &e) {
        std::fprintf(stderr, "mgcost: validation failed: %s\n", e.what());
        return 2;
    } catch (const Error &e) {
        std::fprintf(stderr, "mgcost: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mgcost: %s\n", e.what());
        return 1;
    }
}
