// mgserve — serve traffic presets on simulated devices, gated.
//
// One preset namespace covers two kinds of run:
//   * serve presets (tiny steady overload closed memtight noisy): seeded
//     synthetic traffic through admission control and the
//     continuous-batching scheduler on one device, every round of
//     batches replayed into gpusim through the plan cache;
//   * fleet presets (fleet2 fleet4 hetero failover): N data-parallel
//     replicas of that server behind a deterministic router, with
//     optional scripted failover (src/serve/cluster.h).
//
// Every run is gated. A serve run attaches the request event log
// (src/serve/trace.h) and folds the telemetry time series from it
// (src/serve/cost.h), then requires the trace's per-class latency
// attribution and the per-tenant ledger to reconcile with the
// ServeReport, and every flight-recorder incident dump to parse back to
// the events it froze. A fleet run requires fleet-wide
// conservation (reconcile_cluster). Any disagreement exits 2.
//
// Artifacts, under --out-dir (or $MULTIGRAIN_BENCH_DIR when --out-dir is
// the default "."), for preset p on device d:
//   serve: BENCH_serve_<p>@<d>.json (mgprof.bench, the document the
//          mgperf serve_tiny gate diffs), mgtrace_<p>@<d>.report.json,
//          mgcost_<p>@<d>.report.json, incident_<p>@<d>_<k>.json;
//   fleet: mgcluster_<p>@<d>.report.json (the hetero preset pins its own
//          device pair and is labeled "mixed").
// --events (JSONL), --timeseries (CSV) and --trace (Perfetto) are
// opt-in paths.
//
// Typical uses:
//   mgserve --preset overload --device a100        # watch the queue shed
//   mgserve --all --device rtx3090 --quiet         # gate every preset
//   mgserve --preset hetero --policy round-robin   # router ablation
//   mgserve --preset tiny --perturb-ledger 1.5     # self-test: exits 2

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli.h"
#include "common/error.h"
#include "common/json.h"
#include "core/plan_cache.h"
#include "gpusim/device.h"
#include "profiler/export.h"
#include "serve/cluster.h"
#include "serve/cost.h"
#include "serve/server.h"
#include "serve/trace.h"

namespace {

using namespace multigrain;

struct Options {
    std::string preset = "tiny";
    bool all = false;  ///< Every serve and fleet preset on --device.
    std::string device = "a100";
    std::uint64_t seed = 0;  ///< 0 keeps the preset's seed.
    std::string policy;      ///< Fleet router override; empty keeps it.
    std::string out_dir = ".";
    std::string events_path;      ///< Serve: JSONL event log.
    std::string trace_path;       ///< Perfetto timeline.
    std::string timeseries_path;  ///< Serve: telemetry CSV.
    /// Gate self-tests: scale tenant 0's device charges by this factor
    /// (1 = off), or shift a fleet router's rerouted counter (0 = off).
    double perturb_ledger = 1;
    std::int64_t perturb_counter = 0;
    bool list = false;
    bool quiet = false;
};

cli::Table
flag_table(Options &opt)
{
    return {"mgserve",
            "Serves a traffic preset on a simulated device (or a fleet "
            "of them) and gates the run: the trace, the tenant ledger and "
            "the fleet accounting must reconcile with the serving report, "
            "else exit 2.",
            {
                cli::text("--preset", "NAME",
                          "serve or fleet preset (--list to enumerate; "
                          "default tiny)",
                          &opt.preset),
                cli::toggle("--all",
                            "run every serve and fleet preset on --device",
                            &opt.all),
                cli::text("--device", "NAME",
                          "device spec: a100 | rtx3090 (default a100; "
                          "hetero pins its own pair)",
                          &opt.device),
                cli::number("--seed", "N",
                            "override the preset's traffic (and router) "
                            "seed",
                            &opt.seed),
                cli::text("--policy", "NAME",
                          "fleet router override: round-robin | "
                          "least-bytes | tenant-affinity",
                          &opt.policy),
                cli::out_dir(&opt.out_dir),
                cli::text("--events", "PATH",
                          "serve: write the structured event log (JSONL)",
                          &opt.events_path),
                cli::text("--trace", "PATH",
                          "write the Perfetto timeline: request, round and "
                          "device-replay lanes plus tele.* counters; a "
                          "fleet prefixes replica k's tracks \"r<k>.\"",
                          &opt.trace_path),
                cli::text("--timeseries", "PATH",
                          "serve: write the telemetry time-series CSV",
                          &opt.timeseries_path),
                cli::number("--perturb-ledger", "X",
                            "scale tenant 0's device charges by X before "
                            "reconciling (gate self-test; X != 1 must "
                            "exit 2)",
                            &opt.perturb_ledger),
                cli::number("--perturb-counter", "N",
                            "fleet: shift the router's rerouted counter "
                            "by N (gate self-test; N != 0 must exit 2)",
                            &opt.perturb_counter),
                cli::toggle("--list", "list the presets and exit",
                            &opt.list),
                cli::toggle("--quiet", "one summary line per preset",
                            &opt.quiet),
            }};
}

bool
is_fleet_preset(const std::string &name)
{
    for (const serve::ClusterPresetInfo &preset : serve::cluster_presets()) {
        if (name == preset.name) {
            return true;
        }
    }
    return false;
}

/// The presets this invocation runs, in registry order for --all. An
/// unknown name is a ValidationError (exit 2); a flag that does not
/// apply to a selected preset's kind is a bad invocation (exit 1).
std::vector<std::string>
selected_presets(const Options &opt)
{
    std::vector<std::string> names;
    for (const serve::ServePresetInfo &p : serve::serve_presets()) {
        names.push_back(p.name);
    }
    for (const serve::ClusterPresetInfo &p : serve::cluster_presets()) {
        names.push_back(p.name);
    }
    if (!opt.all) {
        if (std::find(names.begin(), names.end(), opt.preset) ==
            names.end()) {
            throw ValidationError("unknown preset \"" + opt.preset +
                                  "\" (--list to enumerate)");
        }
        names = {opt.preset};
    }
    for (const std::string &name : names) {
        const bool fleet = is_fleet_preset(name);
        if (!fleet && (!opt.policy.empty() || opt.perturb_counter != 0)) {
            throw Error("--policy and --perturb-counter apply to fleet "
                        "presets only, not \"" + name + "\"");
        }
        if (fleet &&
            (!opt.events_path.empty() || !opt.timeseries_path.empty())) {
            throw Error("--events and --timeseries apply to serve presets "
                        "only, not \"" + name + "\"");
        }
    }
    return names;
}

/// Writes `json` to `path` and re-parses it, so exit 0 certifies a
/// valid document.
void
write_json(const Options &opt, const std::string &path,
           const std::string &json)
{
    prof::write_text_file(path, json + "\n");
    json_parse(json);
    if (!opt.quiet) {
        std::fprintf(stderr, "mgserve: wrote %s\n", path.c_str());
    }
}

/// Throws the gate's ValidationError when `errors` is non-empty.
void
require_clean(const std::string &what, const std::vector<std::string> &errors)
{
    if (errors.empty()) {
        return;
    }
    std::string message = what;
    for (const std::string &e : errors) {
        message += "\n  " + e;
    }
    throw ValidationError(message);
}

/// The incident dump must replay: parsed back, it must hold exactly the
/// events of the in-memory ring copy it froze, field for field.
void
verify_incident_replay(const serve::Incident &incident,
                       const std::string &json)
{
    const std::vector<serve::TraceEvent> replayed =
        serve::incident_from_json(json).events;
    if (replayed.size() != incident.events.size()) {
        throw ValidationError(
            "incident replay event count mismatch: live " +
            std::to_string(incident.events.size()) + " vs replayed " +
            std::to_string(replayed.size()));
    }
    for (std::size_t i = 0; i < replayed.size(); ++i) {
        if (!(replayed[i] == incident.events[i])) {
            throw ValidationError("incident replay diverged on event seq " +
                                  std::to_string(incident.events[i].seq));
        }
    }
}

void
print_serve(const serve::ServeReport &report,
            const serve::TraceReport &trace)
{
    const serve::AdmissionStats &adm = report.admission;
    std::printf("\nmgserve: preset %s on %s\n", report.preset.c_str(),
                report.device.c_str());
    std::printf("admission   %llu offered, %llu admitted, %llu rejected, "
                "%llu timed out, max queue %zu\n",
                static_cast<unsigned long long>(adm.offered),
                static_cast<unsigned long long>(adm.admitted),
                static_cast<unsigned long long>(adm.rejected),
                static_cast<unsigned long long>(adm.timed_out),
                adm.max_depth);
    std::printf("completed   %llu (%llu missed their deadline)\n",
                static_cast<unsigned long long>(report.completed),
                static_cast<unsigned long long>(report.deadline_miss));
    std::printf("throughput  %.1f req/s over %.1f us makespan (gpu util "
                "%.0f%%)\n",
                report.throughput_rps, report.makespan_us,
                report.gpu_util * 100.0);
    std::printf("batching    %d rounds, avg batch %.2f, max batch %d\n",
                report.rounds, report.avg_batch, report.max_batch);
    std::printf("plan cache  %llu hits / %llu misses (hit rate %.0f%%)\n",
                static_cast<unsigned long long>(report.plan_cache.hits),
                static_cast<unsigned long long>(report.plan_cache.misses),
                report.plan_cache.hit_rate() * 100.0);

    // Latency per SLO class, split into where the time went.
    std::printf("\n%-16s %6s %10s %10s %10s %10s %10s %10s\n",
                "latency (us)", "n", "total", "admission", "queue",
                "batch_wait", "pad", "device");
    for (const serve::ClassAttribution &attr : trace.classes) {
        if (attr.count == 0) {
            continue;
        }
        const char *slo = to_string(static_cast<serve::SloClass>(attr.slo));
        for (const auto &[label, b] :
             {std::pair{"mean", attr.mean}, std::pair{"p50", attr.p50},
              std::pair{"p95", attr.p95}, std::pair{"p99", attr.p99}}) {
            std::printf("%-11s %-4s %6zu %10.1f %10.1f %10.1f %10.1f "
                        "%10.1f %10.1f\n",
                        slo, label, attr.count, b.total_us, b.admission_us,
                        b.queue_us, b.batch_wait_us, b.pad_us, b.device_us);
        }
    }

    const serve::CostReport &cost = report.cost;
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

    for (const serve::Incident &inc : trace.incidents) {
        std::printf("incident    %-20s t=%.1f us  %s (%zu events)\n",
                    inc.trigger.c_str(), inc.t_us, inc.detail.c_str(),
                    inc.events.size());
    }
}

void
run_serve(const Options &opt, const std::string &preset)
{
    serve::ServeConfig config;
    sim::DeviceSpec device;
    try {
        config = serve::serve_preset_by_name(preset);
        device = sim::device_spec_by_name(opt.device);
    } catch (const Error &e) {
        throw ValidationError(e.what());
    }
    if (opt.seed != 0) {
        config.traffic.seed = opt.seed;
    }
    const std::string tag = preset + "@" + opt.device;
    const std::string dir = cli::default_artifact_dir(opt.out_dir);

    serve::TraceConfig trace_config;
    trace_config.capture_sim = !opt.trace_path.empty();
    serve::TraceLog log(trace_config);
    serve::Server server(config, device);
    server.set_trace(&log);
    serve::ServeReport report = server.run();
    serve::TelemetryRecorder telemetry({}, config.traffic.tenants);
    for (const serve::TraceEvent &e : log.events()) {
        telemetry.apply(e);
    }
    if (!log.events().empty()) {
        telemetry.finish(log.events().back().t_us);
    }

    const serve::TraceRunInfo info{preset, opt.device, config.traffic.seed};
    const serve::TraceReport trace =
        serve::build_trace_report(log, report, info);
    write_json(opt, dir + "/BENCH_serve_" + tag + ".json",
               serve::serve_bench_run(report, opt.device).to_json());
    if (opt.perturb_ledger != 1 && !report.cost.tenants.empty()) {
        serve::scale_tenant_charges(report.cost, 0, opt.perturb_ledger);
    }
    const std::vector<std::string> cost_errors =
        serve::reconcile_cost(report.cost, report);

    if (opt.quiet) {
        std::printf("mgserve: %s — %llu completed, %llu rejected, p99 "
                    "%.1f us, %zu incident(s); trace %s, ledger %s\n",
                    tag.c_str(),
                    static_cast<unsigned long long>(report.completed),
                    static_cast<unsigned long long>(
                        report.admission.rejected),
                    report.latency.p99, trace.incidents.size(),
                    trace.reconciled() ? "reconciled" : "RECONCILE FAILED",
                    cost_errors.empty() ? "conserved" : "RECONCILE FAILED");
    } else {
        print_serve(report, trace);
    }

    write_json(opt, dir + "/mgtrace_" + tag + ".report.json",
               serve::trace_report_json(trace));
    write_json(opt, dir + "/mgcost_" + tag + ".report.json",
               serve::cost_report_json(
                   report.cost, {preset, opt.device, config.traffic.seed},
                   cost_errors, prof::RunManifest::collect(opt.device)));
    if (!opt.events_path.empty()) {
        std::ostringstream os;
        serve::write_events_jsonl(log.events(), os);
        prof::write_text_file(
            cli::resolve_out_path(opt.out_dir, opt.events_path), os.str());
    }
    if (!opt.timeseries_path.empty()) {
        prof::write_text_file(
            cli::resolve_out_path(opt.out_dir, opt.timeseries_path),
            serve::telemetry_csv(telemetry));
    }
    if (!opt.trace_path.empty()) {
        write_json(opt, cli::resolve_out_path(opt.out_dir, opt.trace_path),
                   serve::serve_trace_json(log, &telemetry));
    }
    for (std::size_t k = 0; k < log.incidents().size(); ++k) {
        const std::string json =
            serve::incident_to_json(log.incidents()[k], info, trace_config);
        verify_incident_replay(log.incidents()[k], json);
        write_json(opt,
                   dir + "/incident_" + tag + "_" + std::to_string(k) +
                       ".json",
                   json);
    }

    require_clean("trace does not reconcile with ServeReport (" + tag + "):",
                  trace.reconcile_errors);
    require_clean("ledger does not reconcile with ServeReport (" + tag +
                      "):",
                  cost_errors);
}

void
print_fleet(const serve::ClusterReport &report)
{
    std::printf("\nmgserve: fleet %s, %zu replicas, policy %s\n",
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

void
run_fleet(const Options &opt, const std::string &preset)
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
    // The hetero preset pins its own device pair: label it "mixed".
    const std::string device = preset == "hetero" ? "mixed" : opt.device;
    const std::string tag = preset + "@" + device;
    const serve::ClusterRunInfo info{preset, device,
                                     config.serve.traffic.seed};

    std::vector<serve::TraceLog> logs(
        opt.trace_path.empty() ? 0 : config.devices.size());
    serve::Cluster cluster(std::move(config));
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
    const std::vector<std::string> errors = serve::reconcile_cluster(report);

    if (opt.quiet) {
        std::printf("mgserve: %s — %zu replicas, %llu/%llu completed, "
                    "%llu rerouted, %s\n",
                    tag.c_str(), report.replicas.size(),
                    static_cast<unsigned long long>(report.completed),
                    static_cast<unsigned long long>(report.arrivals),
                    static_cast<unsigned long long>(report.router.rerouted),
                    errors.empty() ? "conserved" : "RECONCILE FAILED");
    } else {
        print_fleet(report);
    }

    write_json(opt,
               cli::default_artifact_dir(opt.out_dir) + "/mgcluster_" + tag +
                   ".report.json",
               serve::cluster_report_json(
                   report, info, errors,
                   prof::RunManifest::collect(info.device)));
    if (!logs.empty()) {
        std::vector<serve::FleetReplicaTrace> fleet;
        for (std::size_t k = 0; k < logs.size(); ++k) {
            fleet.push_back({&logs[k], nullptr, "r" + std::to_string(k)});
        }
        write_json(opt, cli::resolve_out_path(opt.out_dir, opt.trace_path),
                   serve::fleet_trace_json(fleet));
    }
    require_clean("fleet does not conserve (" + tag + "):", errors);
}

int
run(const Options &opt)
{
    if (opt.list) {
        for (const serve::ServePresetInfo &p : serve::serve_presets()) {
            std::printf("%-10s serve  %s\n", p.name, p.description);
        }
        for (const serve::ClusterPresetInfo &p : serve::cluster_presets()) {
            std::printf("%-10s fleet  %s\n", p.name, p.description);
        }
        return 0;
    }
    for (const std::string &preset : selected_presets(opt)) {
        // Start every preset from an empty plan cache, so its plan-cache
        // counters (and so its artifacts) do not depend on what ran
        // before it in this process.
        PlanCache::instance().clear();
        if (is_fleet_preset(preset)) {
            run_fleet(opt, preset);
        } else {
            run_serve(opt, preset);
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
