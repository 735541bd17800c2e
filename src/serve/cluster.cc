#include "serve/cluster.h"

#include <algorithm>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/error.h"
#include "profiler/export.h"
#include "serve/traffic.h"

namespace multigrain::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One endpoint of a scripted fault, on the shared clock.
struct Transition {
    double t_us = 0;
    std::size_t replica = 0;
    bool down = false;
};

std::vector<Transition>
fault_transitions(const std::vector<ReplicaFault> &faults)
{
    std::vector<Transition> transitions;
    for (const ReplicaFault &f : faults) {
        transitions.push_back({f.down_us, f.replica, true});
        if (f.up_us < kInf) {
            transitions.push_back({f.up_us, f.replica, false});
        }
    }
    // Downs before ups at equal times so a fault window of zero length
    // still drains; replica index breaks the remaining ties.
    std::sort(transitions.begin(), transitions.end(),
              [](const Transition &a, const Transition &b) {
                  return std::tie(a.t_us, b.down, a.replica) <
                         std::tie(b.t_us, a.down, b.replica);
              });
    return transitions;
}

/// Sums the replicas' cost reports into the fleet's: tenant cells merged
/// by name (spec order, extras appended in replica order), each row's
/// total the sum of the replicas' totals. Latencies are left to
/// reduce_records.
CostReport
merge_replica_costs(const std::vector<ServeReport> &replicas)
{
    CostReport merged;
    for (const ServeReport &rep : replicas) {
        merged.rounds += rep.cost.rounds;
        merged.busy_us += rep.cost.busy_us;
        merged.charged_device_us += rep.cost.charged_device_us;
        merged.charged_queue_us += rep.cost.charged_queue_us;
        merged.charged_hbm_byte_us += rep.cost.charged_hbm_byte_us;
        for (const TenantCost &t : rep.cost.tenants) {
            TenantCost &into = tenant_row(merged.tenants, t.tenant);
            add_cell(into.total, t.total);
            for (int c = 0; c < kNumSloClasses; ++c) {
                add_cell(into.by_class[c], t.by_class[c]);
            }
        }
    }
    return merged;
}

}  // namespace

// ---- Presets ------------------------------------------------------------

namespace {

/// Shared base of the fleet presets: the tiny traffic shape scaled up
/// to keep N replicas busy, with a generous (never-shedding) byte
/// budget so every request is priced — the least-bytes policy balances
/// on those footprints.
ClusterConfig
cluster_base(const char *name, std::size_t replicas,
             const std::string &device_cli_name)
{
    ClusterConfig c;
    c.preset = name;
    c.serve = serve_preset_by_name("tiny");
    c.serve.preset = name;
    c.serve.traffic.num_requests =
        static_cast<int>(64 * replicas);
    c.serve.admission.hbm_budget_bytes = 1ull << 30;  // Prices, never sheds.
    const sim::DeviceSpec device =
        sim::device_spec_by_name(device_cli_name);
    for (std::size_t k = 0; k < replicas; ++k) {
        c.devices.push_back(device);
        c.device_names.push_back(device_cli_name);
    }
    return c;
}

}  // namespace

const std::vector<ClusterPresetInfo> &
cluster_presets()
{
    static const std::vector<ClusterPresetInfo> presets = {
        {"fleet2", "2 homogeneous replicas, round-robin routing"},
        {"fleet4",
         "4 homogeneous replicas, least-outstanding-bytes routing"},
        {"hetero",
         "a100 + rtx3090 pair, tenant-affinity routing (plan-cache "
         "locality)"},
        {"failover",
         "2 replicas, round-robin; replica 0 dies mid-run and its "
         "backlog reroutes"},
    };
    return presets;
}

ClusterConfig
cluster_preset_by_name(const std::string &name,
                       const std::string &device_cli_name)
{
    if (name == "fleet2") {
        return cluster_base("fleet2", 2, device_cli_name);
    }
    if (name == "fleet4") {
        ClusterConfig c = cluster_base("fleet4", 4, device_cli_name);
        c.serve.traffic.rate_rps = 40000;
        c.policy = RoutePolicy::kLeastBytes;
        return c;
    }
    if (name == "hetero") {
        ClusterConfig c = cluster_base("hetero", 2, "a100");
        c.devices[1] = sim::device_spec_by_name("rtx3090");
        c.device_names[1] = "rtx3090";
        c.policy = RoutePolicy::kTenantAffinity;
        return c;
    }
    if (name == "failover") {
        ClusterConfig c = cluster_base("failover", 2, device_cli_name);
        // Arrivals outpace the fleet early so replica 0 dies holding
        // real backlog (its queue drains through the router: the
        // self-tests assert rerouted > 0 and lost_in_flight > 0), then
        // it revives in time to absorb the tail.
        c.serve.traffic.rate_rps = 60000;
        c.faults.push_back({0, 1500.0, 4000.0});
        return c;
    }
    throw Error("unknown cluster preset \"" + name +
                "\" (fleet2|fleet4|hetero|failover)");
}

// ---- Cluster ------------------------------------------------------------

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      router_(config_.policy, config_.devices.size(),
              config_.serve.traffic.seed)
{
    MG_CHECK(!config_.devices.empty())
        << "a cluster needs at least one replica";
    MG_CHECK(config_.device_names.size() == config_.devices.size())
        << "device_names must parallel devices";
    MG_CHECK(config_.serve.traffic.arrivals != ArrivalProcess::kClosedLoop)
        << "closed-loop traffic is not supported fleet-wide";
    for (const ReplicaFault &f : config_.faults) {
        MG_CHECK(f.replica < config_.devices.size())
            << "fault on unknown replica " << f.replica;
        MG_CHECK(f.down_us >= 0 && f.up_us > f.down_us)
            << "fault window must be ordered";
    }
    servers_.reserve(config_.devices.size());
    for (const sim::DeviceSpec &device : config_.devices) {
        servers_.emplace_back(config_.serve, device);
    }
}

void
Cluster::set_trace(std::size_t replica, TraceLog *trace)
{
    MG_CHECK(replica < servers_.size()) << "no replica " << replica;
    servers_[replica].set_trace(trace);
}

std::vector<ReplicaView>
Cluster::views() const
{
    std::vector<ReplicaView> v;
    v.reserve(servers_.size());
    for (const Server &s : servers_) {
        v.push_back({!s.down(), s.outstanding_bytes()});
    }
    return v;
}

ClusterReport
Cluster::run()
{
    MG_CHECK(!ran_) << "Cluster::run may be called once";
    ran_ = true;

    const PlanCacheStats cache_before = PlanCache::instance().stats();
    for (Server &s : servers_) {
        s.begin();
    }
    TrafficSource source(config_.serve.traffic);
    const std::vector<Transition> transitions =
        fault_transitions(config_.faults);
    std::size_t next_transition = 0;

    double now = 0;
    for (;;) {
        // Fault transitions due first: a kill at this timestamp drains
        // before the timestamp's arrivals are placed, so the reroutes
        // and the arrivals see the same fleet state. (A round completing
        // exactly at the fault time already completed on the previous
        // clock advance — the fault truncates strictly running work.)
        while (next_transition < transitions.size() &&
               transitions[next_transition].t_us <= now) {
            const Transition &tr = transitions[next_transition++];
            if (tr.down) {
                std::vector<Request> drained =
                    servers_[tr.replica].kill(now);
                for (Request &r : drained) {
                    const int target = router_.reroute(r, views());
                    if (target >= 0) {
                        servers_[static_cast<std::size_t>(target)]
                            .reingest(std::move(r), now);
                    }
                }
            } else {
                servers_[tr.replica].revive();
            }
        }
        // Ingest every arrival due by now through the router; a fleet
        // with no replica alive sheds at the router with its own
        // counter (no replica ledger ever saw the request).
        while (source.peek_us() <= now) {
            Request r = source.pop();
            const int target = router_.route(r, views());
            if (target >= 0) {
                servers_[static_cast<std::size_t>(target)].ingest(
                    std::move(r), now);
            }
        }
        for (Server &s : servers_) {
            s.expire(now);
        }
        // Every eligible idle replica starts a round, in index order —
        // the fleet analogue of the single-server dispatch step.
        for (Server &s : servers_) {
            if (s.can_dispatch()) {
                s.dispatch(now);
            }
        }

        double next = source.peek_us();
        for (const Server &s : servers_) {
            next = std::min(next, s.busy_until());
        }
        if (next_transition < transitions.size()) {
            next = std::min(next, transitions[next_transition].t_us);
        }
        if (next == kInf) {
            break;
        }
        now = next;
        for (Server &s : servers_) {
            if (s.busy() && now >= s.busy_until()) {
                s.complete(source);
            }
        }
    }
    MG_CHECK(source.exhausted())
        << "cluster loop ended with arrivals pending";
    for (const Server &s : servers_) {
        MG_CHECK(!s.busy()) << "cluster loop ended with a round running";
    }

    // ---- Reduce the fleet ---------------------------------------------
    ClusterReport report;
    report.preset = config_.preset;
    report.policy = config_.policy;
    report.device_names = config_.device_names;
    report.faults = config_.faults;
    report.router = router_.stats();
    report.arrivals = static_cast<std::uint64_t>(source.issued());
    report.replicas.reserve(servers_.size());
    std::vector<RequestRecord> records;
    for (Server &s : servers_) {
        const ServeReport &rep = report.replicas.emplace_back(s.finish(now));
        report.rejected += rep.admission.rejected;
        report.timed_out += rep.admission.timed_out;
        report.rounds += rep.rounds;
        report.busy_us += rep.busy_us;
        records.insert(records.end(), rep.records.begin(),
                       rep.records.end());
    }
    report.cost = merge_replica_costs(report.replicas);
    reduce_records(records, report, report.cost);
    report.replica_util.reserve(report.replicas.size());
    double util_min = kInf;
    double util_max = 0;
    for (const ServeReport &rep : report.replicas) {
        const double util =
            report.makespan_us > 0
                ? std::min(1.0, rep.busy_us / report.makespan_us)
                : 0.0;
        report.replica_util.push_back(util);
        util_min = std::min(util_min, util);
        util_max = std::max(util_max, util);
    }
    report.util_skew =
        report.replicas.empty() ? 0.0 : util_max - util_min;
    report.plan_cache =
        stats_delta(cache_before, PlanCache::instance().stats());
    return report;
}

// ---- Reconciliation -----------------------------------------------------

std::vector<std::string>
reconcile_cluster(const ClusterReport &report)
{
    Mismatches m{"report", "re-derived", {}};
    const std::size_t n = report.replicas.size();
    const RouterStats &router = report.router;
    m.check(router.per_replica.size() == n,
            "router per-replica counters do not match the replica count");

    // ---- Per-replica cost reports + the router's placements -----------
    std::uint64_t offered = 0;
    std::uint64_t drained = 0;
    double busy = 0;
    for (std::size_t k = 0; k < n; ++k) {
        const ServeReport &rep = report.replicas[k];
        const std::string prefix = "replica " + std::to_string(k) + ": ";
        for (const std::string &e : reconcile_cost(rep.cost, rep)) {
            m.check(false, prefix + e);
        }
        if (k < router.per_replica.size()) {
            m.exact(prefix + "router placements vs offered",
                    router.per_replica[k], rep.admission.offered);
        }
        offered += rep.admission.offered;
        drained += rep.admission.drained;
        busy += rep.busy_us;
    }

    // ---- The fleet conservation telescope -----------------------------
    // Arrivals split at the router, offers split at each replica, and
    // drains come back through the router: the three identities chain
    // into arrivals == terminal outcomes + failover sheds.
    m.exact("arrivals vs routed + shed_arrivals", report.arrivals,
            router.routed + router.shed_arrivals);
    m.exact("fleet offered vs routed + rerouted", offered,
            router.routed + router.rerouted);
    m.exact("fleet drained vs rerouted + shed_reroutes", drained,
            router.rerouted + router.shed_reroutes);
    m.exact("fleet conservation (arrivals vs outcomes)", report.arrivals,
            report.completed + report.rejected + report.timed_out +
                report.lost_in_flight + router.failover_sheds());

    // ---- The fleet's charges telescope to the replicas' busy time -----
    double charged = 0;
    for (const TenantCost &t : report.cost.tenants) {
        charged += t.total.device_us();
    }
    m.close("fleet charged device time vs replica busy_us", charged, busy);
    return std::move(m.errors);
}

void
perturb_router_counter(ClusterReport &report, std::int64_t offset)
{
    report.router.rerouted = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(report.router.rerouted) + offset);
}

// ---- Report document ----------------------------------------------------

std::string
cluster_report_json(const ClusterReport &report,
                    const ClusterRunInfo &info,
                    const std::vector<std::string> &errors,
                    const prof::RunManifest &manifest)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.begin_object();
        w.field("schema", prof::kClusterReportSchema);
        w.field("schema_version", prof::kClusterReportVersion);
        w.key("manifest");
        prof::write_manifest(w, manifest);
        w.field("preset", info.preset);
        w.field("device", info.device);
        w.field("policy", to_string(report.policy));
        w.field("seed", static_cast<std::int64_t>(info.seed));
        w.field("replicas", static_cast<std::int64_t>(
                                report.replicas.size()));

        w.key("fleet");
        w.begin_object();
        w.field("arrivals", static_cast<std::int64_t>(report.arrivals));
        w.field("completed",
                static_cast<std::int64_t>(report.completed));
        w.field("deadline_miss",
                static_cast<std::int64_t>(report.deadline_miss));
        w.field("rejected", static_cast<std::int64_t>(report.rejected));
        w.field("timed_out",
                static_cast<std::int64_t>(report.timed_out));
        w.field("lost_in_flight",
                static_cast<std::int64_t>(report.lost_in_flight));
        w.field("failover_sheds", static_cast<std::int64_t>(
                                      report.router.failover_sheds()));
        w.field("rounds", report.rounds);
        w.field("makespan_us", report.makespan_us);
        w.field("busy_us", report.busy_us);
        w.field("throughput_rps", report.throughput_rps);
        w.field("util_skew", report.util_skew);
        w.key("latency");
        write_latency(w, report.latency);
        w.key("latency_by_class");
        w.begin_array();
        for (int c = 0; c < kNumSloClasses; ++c) {
            w.begin_object();
            w.field("class", to_string(static_cast<SloClass>(c)));
            w.key("latency");
            write_latency(w, report.latency_by_class[c]);
            w.end_object();
        }
        w.end_array();
        w.end_object();

        w.key("router");
        w.begin_object();
        w.field("policy", to_string(report.policy));
        w.field("routed",
                static_cast<std::int64_t>(report.router.routed));
        w.field("rerouted",
                static_cast<std::int64_t>(report.router.rerouted));
        w.field("shed_arrivals", static_cast<std::int64_t>(
                                     report.router.shed_arrivals));
        w.field("shed_reroutes", static_cast<std::int64_t>(
                                     report.router.shed_reroutes));
        w.field("affinity_repins", static_cast<std::int64_t>(
                                       report.router.affinity_repins));
        w.key("per_replica");
        w.begin_array();
        for (const std::uint64_t c : report.router.per_replica) {
            w.value(static_cast<std::int64_t>(c));
        }
        w.end_array();
        w.end_object();

        w.key("faults");
        w.begin_array();
        for (const ReplicaFault &f : report.faults) {
            w.begin_object();
            w.field("replica", static_cast<std::int64_t>(f.replica));
            w.field("down_us", f.down_us);
            w.field("up_us", f.up_us);  // null when permanent.
            w.end_object();
        }
        w.end_array();

        w.key("replica_reports");
        w.begin_array();
        for (std::size_t k = 0; k < report.replicas.size(); ++k) {
            const ServeReport &rep = report.replicas[k];
            w.begin_object();
            w.field("replica", static_cast<std::int64_t>(k));
            w.field("device", k < report.device_names.size()
                                  ? report.device_names[k]
                                  : rep.device);
            w.field("offered", static_cast<std::int64_t>(
                                   rep.admission.offered));
            w.field("admitted", static_cast<std::int64_t>(
                                    rep.admission.admitted));
            w.field("completed",
                    static_cast<std::int64_t>(rep.completed));
            w.field("rejected", static_cast<std::int64_t>(
                                    rep.admission.rejected));
            w.field("timed_out", static_cast<std::int64_t>(
                                     rep.admission.timed_out));
            w.field("drained", static_cast<std::int64_t>(
                                   rep.admission.drained));
            w.field("lost_in_flight",
                    static_cast<std::int64_t>(rep.lost_in_flight));
            w.field("rounds", rep.rounds);
            w.field("busy_us", rep.busy_us);
            w.field("util",
                    k < report.replica_util.size()
                        ? report.replica_util[k]
                        : 0.0);
            w.key("latency");
            write_latency(w, rep.latency);
            w.end_object();
        }
        w.end_array();

        w.key("plan_cache");
        w.begin_object();
        w.field("hits",
                static_cast<std::int64_t>(report.plan_cache.hits));
        w.field("misses",
                static_cast<std::int64_t>(report.plan_cache.misses));
        w.field("evictions",
                static_cast<std::int64_t>(report.plan_cache.evictions));
        w.end_object();

        w.key("tenants");
        w.begin_array();
        for (const TenantCost &t : report.cost.tenants) {
            w.begin_object();
            w.field("tenant", t.tenant);
            write_cost_cell(w, t.total, report.cost.busy_us);
            w.key("latency");
            write_latency(w, t.latency);
            w.end_object();
        }
        w.end_array();

        write_reconcile(w, "conserved", errors);
        w.end_object();
    }
    return os.str();
}

}  // namespace multigrain::serve
