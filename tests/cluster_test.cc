// Tests for mgcluster, the scale-out serving layer (ISSUE 9): seeded
// router policies (round-robin rotation, least-bytes placement,
// sticky tenant-affinity pins), burst-aware WFQ dequeue in admission,
// fleet-wide request conservation across scripted failover, same-seed
// byte-identical fleet reports, the tenant-affinity plan-cache
// advantage on a heterogeneous fleet, and the conservation gate's
// fail-closed self-tests.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "core/plan_cache.h"
#include "figures.h"
#include "gpusim/device.h"
#include "serve/admission.h"
#include "serve/cluster.h"
#include "serve/cost.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/traffic.h"

namespace multigrain {
namespace {

using serve::ReplicaView;
using serve::Request;
using serve::Router;
using serve::RoutePolicy;

Request
make_request(std::int64_t id, const std::string &tenant,
             double deadline_us = 0)
{
    Request r;
    r.id = id;
    r.tenant = tenant;
    r.deadline_us = deadline_us;
    return r;
}

std::vector<ReplicaView>
alive_views(std::size_t n)
{
    return std::vector<ReplicaView>(n, ReplicaView{true, 0});
}

// ---- Router policies ----------------------------------------------------

TEST(RouterTest, RoundRobinRotatesFromSeededStart)
{
    Router router(RoutePolicy::kRoundRobin, 3, /*seed=*/7);  // 7 % 3 = 1.
    const auto views = alive_views(3);
    EXPECT_EQ(router.route(make_request(0, "a"), views), 1);
    EXPECT_EQ(router.route(make_request(1, "a"), views), 2);
    EXPECT_EQ(router.route(make_request(2, "a"), views), 0);
    EXPECT_EQ(router.route(make_request(3, "a"), views), 1);
    EXPECT_EQ(router.stats().routed, 4u);
    EXPECT_EQ(router.stats().per_replica[1], 2u);
}

TEST(RouterTest, RoundRobinSkipsDeadReplicas)
{
    Router router(RoutePolicy::kRoundRobin, 3, /*seed=*/0);
    auto views = alive_views(3);
    views[0].alive = false;
    EXPECT_EQ(router.route(make_request(0, "a"), views), 1);
    EXPECT_EQ(router.route(make_request(1, "a"), views), 2);
    EXPECT_EQ(router.route(make_request(2, "a"), views), 1);

    // No replica alive: the arrival is shed at the router with its own
    // counter — no replica ledger ever sees it.
    for (ReplicaView &v : views) {
        v.alive = false;
    }
    EXPECT_EQ(router.route(make_request(3, "a"), views), -1);
    EXPECT_EQ(router.reroute(make_request(4, "a"), views), -1);
    EXPECT_EQ(router.stats().shed_arrivals, 1u);
    EXPECT_EQ(router.stats().shed_reroutes, 1u);
    EXPECT_EQ(router.stats().failover_sheds(), 2u);
}

TEST(RouterTest, LeastBytesPicksSmallestBacklogTiesToLowestIndex)
{
    Router router(RoutePolicy::kLeastBytes, 3, /*seed=*/0);
    std::vector<ReplicaView> views = {
        {true, 500}, {true, 300}, {true, 300}};
    EXPECT_EQ(router.route(make_request(0, "a"), views), 1);
    views[1].outstanding_bytes = 900;
    EXPECT_EQ(router.route(make_request(1, "a"), views), 2);
    views = {{true, 0}, {true, 0}, {true, 0}};
    EXPECT_EQ(router.route(make_request(2, "a"), views), 0);
    views[0].alive = false;  // The minimum must be among the alive.
    EXPECT_EQ(router.route(make_request(3, "a"), views), 1);
}

TEST(RouterTest, TenantAffinityPinsAreSeededAndSticky)
{
    Router router(RoutePolicy::kTenantAffinity, 4, /*seed=*/2022);
    Router twin(RoutePolicy::kTenantAffinity, 4, /*seed=*/2022);
    auto views = alive_views(4);

    // Same seed, same pins; a tenant always lands on its pin.
    const int alice = router.route(make_request(0, "alice"), views);
    const int bob = router.route(make_request(1, "bob"), views);
    EXPECT_EQ(router.route(make_request(2, "alice"), views), alice);
    EXPECT_EQ(twin.route(make_request(0, "alice"), views), alice);
    EXPECT_EQ(twin.route(make_request(1, "bob"), views), bob);

    // A dead pin moves to the next alive replica — and stays there
    // after the old replica revives (stickiness preserves the
    // plan-cache working set built at the new home).
    views[static_cast<std::size_t>(alice)].alive = false;
    const int moved = router.route(make_request(3, "alice"), views);
    EXPECT_NE(moved, alice);
    EXPECT_EQ(router.stats().affinity_repins, 1u);
    views[static_cast<std::size_t>(alice)].alive = true;
    EXPECT_EQ(router.route(make_request(4, "alice"), views), moved);
    EXPECT_EQ(router.stats().affinity_repins, 1u);
}

// ---- Fleet conservation -------------------------------------------------

serve::ClusterReport
run_preset(const std::string &preset, const std::string &device)
{
    serve::Cluster cluster(serve::cluster_preset_by_name(preset, device));
    return cluster.run();
}

TEST(ClusterTest, EveryPresetConservesOnBothDevices)
{
    for (const std::string device : {"a100", "rtx3090"}) {
        for (const serve::ClusterPresetInfo &preset :
             serve::cluster_presets()) {
            if (std::string(preset.name) == "hetero" &&
                device != "a100") {
                continue;  // hetero pins its own pair.
            }
            const serve::ClusterReport report =
                run_preset(preset.name, device);
            const std::vector<std::string> errors =
                serve::reconcile_cluster(report);
            EXPECT_TRUE(errors.empty())
                << preset.name << "@" << device << ": " << errors.size()
                << " errors, first: "
                << (errors.empty() ? "" : errors.front());
            EXPECT_EQ(report.arrivals,
                      static_cast<std::uint64_t>(
                          serve::cluster_preset_by_name(preset.name,
                                                        device)
                              .serve.traffic.num_requests));
            PlanCache::instance().clear();
        }
    }
}

TEST(ClusterTest, FailoverReroutesBacklogAndRecordsLostWork)
{
    const serve::ClusterReport report = run_preset("failover", "a100");
    EXPECT_TRUE(serve::reconcile_cluster(report).empty());

    // The fault must actually bite: work died on the device, and the
    // dead replica's backlog moved through the router.
    EXPECT_GT(report.router.rerouted, 0u);
    EXPECT_GT(report.lost_in_flight, 0u);
    EXPECT_GT(report.replicas[0].lost_in_flight, 0u);
    EXPECT_EQ(report.replicas[0].admission.drained,
              report.router.rerouted + report.router.shed_reroutes);

    // Exact conservation telescope, restated from the raw counters.
    std::uint64_t terminal = report.completed + report.rejected +
                             report.timed_out + report.lost_in_flight;
    EXPECT_EQ(report.arrivals,
              terminal + report.router.failover_sheds());
}

TEST(ClusterTest, SingleReplicaFleetMatchesStandaloneServer)
{
    // One replica behind the router sees the exact event stream a
    // standalone Server sees — the cluster loop is the server loop
    // lifted, so every timing figure must agree.
    serve::ClusterConfig config;
    config.preset = "tiny";
    config.serve = serve::serve_preset_by_name("tiny");
    config.devices = {sim::DeviceSpec::a100()};
    config.device_names = {"a100"};
    serve::Cluster cluster(std::move(config));
    const serve::ClusterReport fleet = cluster.run();
    PlanCache::instance().clear();

    serve::Server server(serve::serve_preset_by_name("tiny"),
                         sim::DeviceSpec::a100());
    const serve::ServeReport solo = server.run();

    ASSERT_EQ(fleet.replicas.size(), 1u);
    const serve::ServeReport &rep = fleet.replicas[0];
    EXPECT_EQ(rep.completed, solo.completed);
    EXPECT_EQ(rep.rounds, solo.rounds);
    EXPECT_DOUBLE_EQ(rep.busy_us, solo.busy_us);
    EXPECT_DOUBLE_EQ(rep.latency.p99, solo.latency.p99);
    EXPECT_DOUBLE_EQ(rep.makespan_us, solo.makespan_us);
    EXPECT_EQ(rep.admission.offered, solo.admission.offered);
    EXPECT_EQ(rep.batch_histogram, solo.batch_histogram);
}

// ---- Determinism --------------------------------------------------------

TEST(ClusterTest, SameSeedProducesByteIdenticalReports)
{
    // The whole fleet run is a pure function of (preset, seed, devices,
    // policy); with the manifest pinned, so is the report document.
    const serve::ClusterRunInfo info{"failover", "a100", 2022};
    const prof::RunManifest manifest;  // Fixed: no wall-clock stamp.
    std::vector<std::string> docs;
    for (int i = 0; i < 2; ++i) {
        PlanCache::instance().clear();  // Same cold start both times.
        const serve::ClusterReport report =
            run_preset("failover", "a100");
        docs.push_back(serve::cluster_report_json(
            report, info, serve::reconcile_cluster(report), manifest));
    }
    EXPECT_EQ(docs[0], docs[1]);
}

TEST(ClusterTest, AffinityBeatsRoundRobinOnHeteroPlanCache)
{
    // On a heterogeneous fleet the plan cache keys on the device, so a
    // tenant bouncing between devices (round-robin) compiles its shapes
    // twice; affinity keeps each tenant's working set on one device.
    PlanCache::instance().clear();
    const serve::ClusterReport affinity = run_preset("hetero", "a100");
    PlanCache::instance().clear();
    serve::ClusterConfig config =
        serve::cluster_preset_by_name("hetero", "a100");
    config.policy = RoutePolicy::kRoundRobin;
    serve::Cluster cluster(std::move(config));
    const serve::ClusterReport round_robin = cluster.run();
    PlanCache::instance().clear();

    EXPECT_LT(affinity.plan_cache.misses, round_robin.plan_cache.misses);
    EXPECT_GE(affinity.plan_cache.hit_rate(),
              round_robin.plan_cache.hit_rate());
}

// ---- The gate fails closed ----------------------------------------------

TEST(ClusterTest, PerturbedRouterCounterFailsReconciliation)
{
    serve::ClusterReport report = run_preset("fleet2", "a100");
    ASSERT_TRUE(serve::reconcile_cluster(report).empty());
    serve::perturb_router_counter(report, 1);
    EXPECT_FALSE(serve::reconcile_cluster(report).empty());
    PlanCache::instance().clear();
}

TEST(ClusterTest, PerturbedMergedLedgerFailsReconciliation)
{
    serve::ClusterReport report = run_preset("fleet2", "a100");
    ASSERT_TRUE(serve::reconcile_cluster(report).empty());
    ASSERT_FALSE(report.cost.tenants.empty());
    serve::scale_tenant_charges(report.cost, 0, 1.5);
    EXPECT_FALSE(serve::reconcile_cluster(report).empty());
    PlanCache::instance().clear();
}

// ---- The mgperf gate preset ---------------------------------------------

TEST(ClusterTest, ClusterTinyBenchPresetEmitsFleetRows)
{
    const bench::BenchPreset *preset =
        bench::find_bench_preset("cluster_tiny");
    ASSERT_NE(preset, nullptr);
    const prof::BenchRun run = bench::run_bench_preset(*preset, {"a100"});
    EXPECT_EQ(run.name, "cluster_tiny@a100");
    int cluster_rows = 0, replica_rows = 0;
    for (const prof::BenchRow &row : run.rows) {
        cluster_rows += row.series == "cluster";
        replica_rows += row.series == "cluster_replica";
    }
    EXPECT_EQ(cluster_rows, 1);
    EXPECT_EQ(replica_rows, 2);
    PlanCache::instance().clear();
}

}  // namespace
}  // namespace multigrain
