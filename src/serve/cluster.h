#ifndef MULTIGRAIN_SERVE_CLUSTER_H_
#define MULTIGRAIN_SERVE_CLUSTER_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/plan_cache.h"
#include "gpusim/device.h"
#include "profiler/history.h"
#include "serve/cost.h"
#include "serve/router.h"
#include "serve/server.h"

/// Scale-out serving across simulated devices (mgserve's fleet presets).
///
/// A Cluster drives N data-parallel replicas — each an ordinary Server
/// over its own GpuSim/DeviceSpec, heterogeneous fleets allowed — on
/// one shared virtual clock, behind a Router that places every arrival
/// (serve/router.h). The cluster loop is the single-server event loop
/// lifted fleet-wide: at each timestamp it applies due fault
/// transitions, ingests due arrivals through the router, expires every
/// queue, dispatches every eligible idle replica in index order, then
/// advances the clock to the next arrival / round completion / fault.
/// The whole fleet run is a pure function of (preset, seed, devices,
/// policy), exactly like a single-server run.
///
/// Failover is scripted on the same clock: a ReplicaFault kills its
/// replica at down_us — the running round is truncated and its
/// requests recorded as lost in flight, the admitted-but-undispatched
/// backlog is drained and re-offered fleet-wide through the router —
/// and optionally revives it at up_us. Every request is conserved
/// through the move: per replica, offered == terminal outcomes +
/// drained; fleet-wide, arrivals == terminal outcomes + failover
/// sheds, with the router's exact counters closing the telescope.
/// reconcile_cluster() checks all of it against those counters and
/// mgserve turns any disagreement into a ValidationError (exit 2).
namespace multigrain::serve {

/// One scripted replica outage on the virtual clock.
struct ReplicaFault {
    std::size_t replica = 0;
    double down_us = 0;
    /// Revival time; infinity (the default) keeps the replica down for
    /// the rest of the run. Must be > down_us.
    double up_us = std::numeric_limits<double>::infinity();
};

struct ClusterConfig {
    std::string preset = "custom";
    /// The per-replica serving configuration (admission, scheduler,
    /// mode) and the *fleet* arrival stream — one TrafficSource feeds
    /// the router, not N sources. Closed-loop traffic is not supported
    /// (a fleet-wide outage would deadlock the completion feedback).
    ServeConfig serve;
    /// One device per replica; heterogeneous fleets allowed.
    std::vector<sim::DeviceSpec> devices;
    /// CLI names parallel to `devices` ("a100" | "rtx3090"), stamped
    /// into reports.
    std::vector<std::string> device_names;
    /// How the router places arrivals. The router's round-robin start
    /// and affinity hash are seeded with serve.traffic.seed.
    RoutePolicy policy = RoutePolicy::kRoundRobin;
    std::vector<ReplicaFault> faults;
};

/// Registered fleet presets ("fleet2" | "fleet4" | "hetero" |
/// "failover"); homogeneous presets replicate the device named by
/// `device_cli_name`, "hetero" pins an a100 + rtx3090 pair and ignores
/// it. Throws Error on unknown names.
ClusterConfig cluster_preset_by_name(const std::string &name,
                                     const std::string &device_cli_name);

struct ClusterPresetInfo {
    const char *name;
    const char *description;
};
const std::vector<ClusterPresetInfo> &cluster_presets();

/// The fleet's outcome counts and latency figures (RecordSummary) are
/// reduced from its replicas' records by the one reduce_records that
/// reduces a single Server's.
struct ClusterReport : RecordSummary {
    std::string preset;
    RoutePolicy policy = RoutePolicy::kRoundRobin;
    /// One finished ServeReport per replica, index-aligned with
    /// device_names.
    std::vector<ServeReport> replicas;
    std::vector<std::string> device_names;
    RouterStats router;
    std::vector<ReplicaFault> faults;

    // ---- Fleet aggregates ------------------------------------------
    std::uint64_t arrivals = 0;  ///< Requests the traffic source issued.
    std::uint64_t rejected = 0;
    std::uint64_t timed_out = 0;
    int rounds = 0;
    double busy_us = 0;      ///< Sum of replica busy time.
    /// Per-replica busy / fleet makespan, index-aligned; and the
    /// max - min spread — the load-balance figure of merit.
    std::vector<double> replica_util;
    double util_skew = 0;
    /// The fleet's cost report: the replicas' cells summed cell by cell
    /// (add_cell), latencies reduced from the fleet's completed records.
    CostReport cost;
    /// Fleet-wide plan-cache movement (the cache is process-wide, so
    /// same-device replicas share entries and per-replica deltas
    /// overlap; only this fleet delta is gated).
    PlanCacheStats plan_cache;
};

class Cluster {
  public:
    explicit Cluster(ClusterConfig config);

    std::size_t size() const { return servers_.size(); }

    /// Attaches a per-replica event log (same observer contract as
    /// Server::set_trace; must outlive run()).
    void set_trace(std::size_t replica, TraceLog *trace);

    /// Runs the fleet to completion. May be called once.
    ClusterReport run();

  private:
    std::vector<ReplicaView> views() const;

    ClusterConfig config_;
    std::vector<Server> servers_;
    Router router_;
    bool ran_ = false;
};

/// Cross-checks the fleet report against sources the replicas' folds do
/// not compute: every replica's own cost report reconciles, the router's
/// counters match each replica's offers and close the conservation
/// telescope (arrivals == terminal outcomes + failover sheds; drained ==
/// rerouted + shed_reroutes), and the fleet's charged device time
/// telescopes to the replicas' busy time. Returns the collected failures
/// (empty = conserved); never throws.
std::vector<std::string> reconcile_cluster(const ClusterReport &report);

/// Adds `offset` to the report's rerouted counter — the seeded
/// corruption mgserve's --perturb-counter flag and the tests use to
/// prove the fleet conservation gate fails closed. (Ledger corruption
/// goes through scale_tenant_charges on report.cost.)
void perturb_router_counter(ClusterReport &report, std::int64_t offset);

using ClusterRunInfo = RunInfo;

/// The validated "mgcluster.report" v1 JSON document, stamped with
/// `manifest` (RunManifest::collect for a live run). A fixed manifest
/// makes the document a pure function of (report, info) — what the
/// byte-identical tests pin.
std::string cluster_report_json(const ClusterReport &report,
                                const ClusterRunInfo &info,
                                const std::vector<std::string> &errors,
                                const prof::RunManifest &manifest);

}  // namespace multigrain::serve

#endif  // MULTIGRAIN_SERVE_CLUSTER_H_
