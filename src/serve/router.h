#ifndef MULTIGRAIN_SERVE_ROUTER_H_
#define MULTIGRAIN_SERVE_ROUTER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/traffic.h"

/// Request routing for fleet serving: which replica gets each
/// arrival, and where a dead replica's drained backlog goes.
///
/// The router is a pure placement policy: it never holds requests and
/// never talks to a Server — the Cluster asks it to pick a replica from
/// a snapshot of per-replica views (alive? how many outstanding bytes?)
/// and does the offering itself. All three policies are deterministic
/// functions of (seed, the request stream, the view snapshots), so a
/// cluster run is as replayable as a single-server run.
///
/// Routing counters obey the same conservation discipline as the rest
/// of the serving stack: routed + shed_arrivals == arrivals,
/// rerouted + shed_reroutes == drained, and a request the router could
/// not place (no replica alive) is counted here precisely because no
/// replica's ledger ever saw it — the fleet identity in
/// reconcile_cluster leans on these counters being exact.
namespace multigrain::serve {

enum class RoutePolicy {
    /// Rotating cursor over the alive replicas; the seed picks the
    /// starting replica.
    kRoundRobin = 0,
    /// The alive replica with the fewest outstanding (queued +
    /// in-flight) projected HBM bytes; ties go to the lowest index.
    /// Balances heterogeneous fleets by actual backlog, not turn order.
    kLeastBytes,
    /// Each tenant is pinned to a seed-hashed replica so its repeated
    /// shapes stay hot in that replica's plan working set (plan-cache
    /// locality). A dead pin re-pins to the next alive replica —
    /// stickily, so the tenant's cache investment is not thrown away
    /// the moment the old replica revives.
    kTenantAffinity,
};

const char *to_string(RoutePolicy policy);
/// Inverse of to_string over the CLI names ("round-robin" |
/// "least-bytes" | "tenant-affinity"); throws Error on anything else.
RoutePolicy route_policy_by_name(const std::string &name);

/// What the router may look at when placing a request: one entry per
/// replica, index-aligned with the cluster's replica list.
struct ReplicaView {
    bool alive = true;
    /// Server::outstanding_bytes() — queued + in-flight projected HBM.
    std::uint64_t outstanding_bytes = 0;
};

struct RouterStats {
    /// Arrivals assigned to a replica.
    std::uint64_t routed = 0;
    /// Drained (failover) requests assigned to a replica — counted even
    /// when the target's own valves then shed the request terminally.
    std::uint64_t rerouted = 0;
    /// Arrivals dropped because no replica was alive to take them.
    std::uint64_t shed_arrivals = 0;
    /// Drained requests dropped because no replica was alive.
    std::uint64_t shed_reroutes = 0;
    /// Tenant-affinity pins moved off a dead replica.
    std::uint64_t affinity_repins = 0;
    /// routed + rerouted per replica, index-aligned.
    std::vector<std::uint64_t> per_replica;

    /// Requests the fleet dropped without any replica seeing them.
    std::uint64_t failover_sheds() const
    {
        return shed_arrivals + shed_reroutes;
    }
};

class Router {
  public:
    Router(RoutePolicy policy, std::size_t replicas, std::uint64_t seed);

    RoutePolicy policy() const { return policy_; }

    /// Picks a replica for an arriving request; -1 (and a
    /// shed_arrivals count) when no replica is alive. `views` must have
    /// one entry per replica.
    int route(const Request &r, const std::vector<ReplicaView> &views);
    /// Picks a replica for a request drained from a dead replica; -1
    /// (and a shed_reroutes count) when no replica is alive.
    int reroute(const Request &r, const std::vector<ReplicaView> &views);

    const RouterStats &stats() const { return stats_; }

  private:
    int pick(const Request &r, const std::vector<ReplicaView> &views);

    RoutePolicy policy_;
    std::size_t replicas_;
    std::uint64_t seed_;
    std::size_t cursor_;  ///< Round-robin state.
    /// Tenant-affinity pins, created on first sight from the seeded
    /// hash and moved (stickily) off dead replicas.
    std::map<std::string, std::size_t> pins_;
    RouterStats stats_;
};

}  // namespace multigrain::serve

#endif  // MULTIGRAIN_SERVE_ROUTER_H_
