// mgcluster — scale-out serving across simulated devices.
//
// Runs a fleet preset (src/serve/cluster.h): N data-parallel replicas —
// each an ordinary mgserve Server over its own GpuSim, heterogeneous
// fleets allowed — behind a deterministic router (round-robin |
// least-bytes | tenant-affinity), with optional scripted failover: a
// replica dies on the virtual clock, its running round is truncated
// (requests lost in flight), its admitted backlog drains back through
// the router, and it optionally revives later. Emits, per
// preset × device:
//   * the fleet report: per-replica serving summaries, router counters,
//     fleet latency percentiles, utilization skew, and the merged
//     per-tenant ledger — validated "mgcluster.report" v1 JSON;
//   * a Perfetto timeline (--trace) with every replica's serving lanes
//     and gpusim replays on the shared cluster clock, track names
//     prefixed "r<k>.".
//
// The load-bearing property is fleet-wide conservation: every request
// the traffic source issues is accounted exactly once — routed,
// rerouted after a fault, or shed by the router — and the per-replica
// ledgers telescope into the merged fleet ledger. reconcile_cluster()
// re-derives all of it; any disagreement exits 2, distinct from usage
// errors — the same contract as mgtrace/mgcost. --perturb-ledger and
// --perturb-counter seed deliberate corruptions to prove the gate
// fails closed.
//
// Typical uses:
//   mgcluster --preset failover              # watch the fleet absorb a fault
//   mgcluster --all --device rtx3090         # gate every fleet preset
//   mgcluster --preset hetero --policy round-robin   # affinity ablation
//   mgcluster --preset fleet2 --perturb-counter 1    # self-test: must exit 2
//
// Exit codes: 0 clean, 1 usage/runtime error, 2 validation failed.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/error.h"
#include "common/json.h"
#include "common/logging.h"
#include "gpusim/device.h"
#include "profiler/export.h"
#include "serve/cluster.h"
#include "serve/trace.h"

namespace {

using namespace multigrain;

struct Options {
    std::string preset = "fleet2";
    std::string device = "a100";
    /// Router policy override; empty keeps the preset's policy.
    std::string policy;
    bool all = false;  ///< Every registered fleet preset on --device.
    std::uint64_t seed = 0;  ///< 0 keeps the preset's seed.
    /// Report path; "-" = default mgcluster_<preset>@<device>.report.json
    /// in $MULTIGRAIN_BENCH_DIR (or "."), empty disables.
    std::string report_path = "-";
    std::string trace_path;  ///< Fleet Perfetto timeline (empty disables).
    std::string out_dir = ".";
    /// Gate self-tests: scale tenant 0's device charges in the merged
    /// ledger (1 = off), or shift the router's rerouted counter (0 =
    /// off). Either must make mgcluster exit 2.
    double perturb_ledger = 1;
    std::int64_t perturb_counter = 0;
    bool list = false;
    bool quiet = false;
};

void
usage(std::ostream &os)
{
    os << "usage: mgcluster [options]\n"
          "\n"
          "  --preset NAME   fleet preset (--list to enumerate; default"
          " fleet2)\n"
          "  --all           run every registered fleet preset on"
          " --device\n"
          "  --device NAME   replica device for homogeneous presets\n"
          "                  (a100 | rtx3090; default a100; the hetero\n"
          "                  preset pins its own pair)\n"
          "  --policy NAME   router policy override (round-robin |\n"
          "                  least-bytes | tenant-affinity)\n"
          "  --seed N        override the traffic + router seed\n"
          "  --report PATH   mgcluster.report JSON (default\n"
          "                  $MULTIGRAIN_BENCH_DIR/mgcluster_<preset>@"
          "<device>.report.json;\n"
          "                  empty string disables)\n"
          "  --trace PATH    write a fleet Perfetto timeline (replica k's\n"
          "                  tracks prefixed \"r<k>.\")\n"
          "  --out-dir DIR   directory for artifacts (default .; relative\n"
          "                  paths above land under it)\n"
          "  --perturb-ledger X\n"
          "                  scale tenant 0's merged device charges by X\n"
          "                  (conservation self-test; X != 1 must exit 2)\n"
          "  --perturb-counter N\n"
          "                  shift the router's rerouted counter by N\n"
          "                  (conservation self-test; N != 0 must exit 2)\n"
          "  --list          list registered fleet presets and exit\n"
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
        } else if (arg == "--policy") {
            opt.policy = next();
        } else if (arg == "--seed") {
            opt.seed = bench::parse_unsigned(arg, next());
        } else if (arg == "--report") {
            opt.report_path = next();
        } else if (arg == "--trace") {
            opt.trace_path = next();
        } else if (arg == "--out-dir") {
            opt.out_dir = next();
            MG_CHECK(!opt.out_dir.empty()) << "--out-dir must be non-empty";
        } else if (arg == "--perturb-ledger") {
            opt.perturb_ledger = bench::parse_double(arg, next());
        } else if (arg == "--perturb-counter") {
            opt.perturb_counter = bench::parse_signed(arg, next());
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

/// Builds the fleet configuration for one preset, surfacing unknown
/// preset/device/policy names as ValidationError (exit 2) the way every
/// serve tool does.
serve::ClusterConfig
validated_cluster_config(const Options &opt, const std::string &preset)
{
    serve::ClusterConfig config;
    try {
        config = serve::cluster_preset_by_name(preset, opt.device);
        if (!opt.policy.empty()) {
            config.policy = serve::route_policy_by_name(opt.policy);
        }
    } catch (const Error &e) {
        throw ValidationError(e.what());
    }
    if (opt.seed != 0) {
        config.serve.traffic.seed = opt.seed;
        config.router_seed = opt.seed;
    }
    return config;
}

void
print_report(const serve::ClusterReport &report)
{
    std::printf("\nmgcluster: %s, %zu replicas, policy %s\n",
                report.preset.c_str(), report.replicas.size(),
                serve::to_string(report.policy));
    std::printf("fleet: %llu arrivals — %llu completed, %llu rejected, "
                "%llu timed out, %llu lost in flight, %llu shed in "
                "failover\n",
                static_cast<unsigned long long>(report.arrivals),
                static_cast<unsigned long long>(report.completed),
                static_cast<unsigned long long>(report.rejected),
                static_cast<unsigned long long>(report.timed_out),
                static_cast<unsigned long long>(report.lost_in_flight),
                static_cast<unsigned long long>(
                    report.router.failover_sheds()));
    std::printf("       p50 %.1f us, p95 %.1f us, p99 %.1f us — %.0f "
                "req/s over %.1f us, util skew %.3f\n",
                report.latency.p50, report.latency.p95, report.latency.p99,
                report.throughput_rps, report.makespan_us,
                report.util_skew);
    std::printf("router: %llu routed, %llu rerouted, %llu repins\n",
                static_cast<unsigned long long>(report.router.routed),
                static_cast<unsigned long long>(report.router.rerouted),
                static_cast<unsigned long long>(
                    report.router.affinity_repins));
    std::printf("\n%-8s %-10s %8s %8s %6s %6s %8s %12s %6s\n", "replica",
                "device", "offered", "done", "lost", "rounds", "busy_us",
                "p99_us", "util");
    for (std::size_t k = 0; k < report.replicas.size(); ++k) {
        const serve::ServeReport &rep = report.replicas[k];
        std::printf("r%-7zu %-10s %8llu %8llu %6llu %6d %8.1f %12.1f "
                    "%5.1f%%\n",
                    k, report.device_names[k].c_str(),
                    static_cast<unsigned long long>(rep.admission.offered),
                    static_cast<unsigned long long>(rep.completed),
                    static_cast<unsigned long long>(rep.lost_in_flight),
                    rep.rounds, rep.busy_us, rep.latency.p99,
                    report.replica_util[k] * 100.0);
    }
}

int
run_one(const Options &opt, const std::string &preset_name)
{
    serve::ClusterConfig config = validated_cluster_config(opt, preset_name);
    // The hetero preset pins its own device pair — label it "mixed".
    const std::string device_label =
        preset_name == "hetero" ? "mixed" : opt.device;
    const serve::ClusterRunInfo info{preset_name, device_label,
                                     config.serve.traffic.seed};

    const std::size_t replicas = config.devices.size();
    serve::Cluster cluster(std::move(config));
    std::vector<serve::TraceLog> logs(opt.trace_path.empty() ? 0
                                                             : replicas);
    for (std::size_t k = 0; k < logs.size(); ++k) {
        cluster.set_trace(k, &logs[k]);
    }
    serve::ClusterReport report = cluster.run();

    if (opt.perturb_ledger != 1 && !report.cost.tenants.empty()) {
        serve::scale_tenant_charges(report.cost, 0, opt.perturb_ledger);
    }
    if (opt.perturb_counter != 0) {
        serve::perturb_router_counter(report, opt.perturb_counter);
    }
    const std::vector<std::string> errors =
        serve::reconcile_cluster(report);

    if (!opt.quiet) {
        print_report(report);
    } else {
        std::printf("mgcluster: %s@%s — %zu replicas, %llu/%llu "
                    "completed, %llu rerouted, %s\n",
                    preset_name.c_str(), device_label.c_str(),
                    report.replicas.size(),
                    static_cast<unsigned long long>(report.completed),
                    static_cast<unsigned long long>(report.arrivals),
                    static_cast<unsigned long long>(
                        report.router.rerouted),
                    errors.empty() ? "conserved" : "RECONCILE FAILED");
    }

    // ---- Artifacts ----------------------------------------------------
    std::string report_path = opt.report_path;
    if (report_path == "-") {
        report_path = bench::default_artifact_dir(opt.out_dir) +
                      "/mgcluster_" + preset_name + "@" + device_label +
                      ".report.json";
    } else {
        report_path = bench::resolve_out_path(opt.out_dir, report_path);
    }
    if (!report_path.empty()) {
        const std::string json =
            serve::cluster_report_json(report, info, errors);
        prof::write_text_file(report_path, json + "\n");
        json_parse(json);  // Certify before exit, the mgprof way.
        if (!opt.quiet) {
            std::fprintf(stderr, "mgcluster: wrote %s\n",
                         report_path.c_str());
        }
    }
    if (!logs.empty()) {
        const std::string trace_path =
            bench::resolve_out_path(opt.out_dir, opt.trace_path);
        std::vector<serve::FleetReplicaTrace> fleet;
        for (std::size_t k = 0; k < logs.size(); ++k) {
            fleet.push_back(
                {&logs[k], nullptr, "r" + std::to_string(k)});
        }
        serve::write_fleet_trace_file(fleet, trace_path);
        json_parse(serve::fleet_trace_json(fleet));
        if (!opt.quiet) {
            std::fprintf(stderr,
                         "mgcluster: wrote %s (open in ui.perfetto.dev)\n",
                         trace_path.c_str());
        }
    }

    // ---- The gate -----------------------------------------------------
    if (!errors.empty()) {
        std::string what =
            "fleet does not conserve (" + preset_name + "@" +
            device_label + "):";
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
        for (const serve::ClusterPresetInfo &preset :
             serve::cluster_presets()) {
            std::printf("%-10s %s\n", preset.name, preset.description);
        }
        return 0;
    }
    if (!opt.all) {
        return run_one(opt, opt.preset);
    }
    return bench::run_preset_matrix(
        bench::cluster_preset_names(),
        [&opt](const std::string &name) { return run_one(opt, name); });
}

}  // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parse_args(argc, argv));
    } catch (const ValidationError &e) {
        std::fprintf(stderr, "mgcluster: validation failed: %s\n",
                     e.what());
        return 2;
    } catch (const Error &e) {
        std::fprintf(stderr, "mgcluster: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mgcluster: %s\n", e.what());
        return 1;
    }
}
