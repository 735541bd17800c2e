// Tests for mgcost (ISSUE 8): per-tenant cost attribution and its
// conservation gate (the ledger must telescope back to busy_us on every
// preset x device, and a seeded corruption must fail reconciliation),
// token-bucket rate limiting (refill units, burst
// cap, the disjoint shed_ratelimit valve, the noisy-neighbor
// guarantee), the fixed-grid telemetry sampler, and byte-identical
// same-seed report/CSV artifacts.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "gpusim/device.h"
#include "serve/admission.h"
#include "serve/cost.h"
#include "serve/server.h"
#include "serve/trace.h"
#include "serve/traffic.h"

namespace multigrain::serve {
namespace {

ServeReport
run_preset(const std::string &preset, const std::string &device,
           TraceLog *log = nullptr)
{
    Server server(serve_preset_by_name(preset),
                  sim::device_spec_by_name(device));
    server.set_trace(log);
    return server.run();
}

/// The telemetry series folded from `log`, flushed to its last event.
void
fold_telemetry(TelemetryRecorder &recorder, const TraceLog &log)
{
    for (const TraceEvent &e : log.events()) {
        recorder.apply(e);
    }
    recorder.finish(log.events().back().t_us);
}

// ---- Reconciliation -----------------------------------------------------

TEST(CostLedgerTest, ConservesBusyTimeOnEveryPresetAndDevice)
{
    // Untraced runs: the ledger is folded from the same events whether
    // or not a TraceLog is attached.
    for (const char *preset : {"tiny", "steady", "overload", "closed",
                               "memtight", "noisy"}) {
        for (const char *device : {"a100", "rtx3090"}) {
            SCOPED_TRACE(std::string(preset) + "@" + device);
            const ServeReport report = run_preset(preset, device);
            const CostReport &cost = report.cost;
            for (const std::string &err :
                 reconcile_cost(cost, report)) {
                ADD_FAILURE() << err;
            }
            // The headline invariant, asserted directly too: per-tenant
            // device charges telescope to the run's device-busy time.
            double charged = 0;
            for (const TenantCost &t : cost.tenants) {
                charged += t.total.device_us();
            }
            EXPECT_NEAR(charged, report.busy_us,
                        kReconcileRelTol *
                            std::max(1.0, report.busy_us));
            EXPECT_DOUBLE_EQ(cost.busy_us, report.busy_us);
            EXPECT_EQ(cost.rounds, report.rounds);
        }
    }
}

TEST(CostLedgerTest, SeededMismatchFailsReconciliation)
{
    ServeReport report = run_preset("tiny", "a100");
    ASSERT_TRUE(reconcile_cost(report.cost, report).empty());
    ASSERT_FALSE(report.cost.tenants.empty());
    // The same corruption mgserve --perturb-ledger seeds: the gate must
    // fail closed, not absorb it.
    scale_tenant_charges(report.cost, 0, 1.5);
    EXPECT_FALSE(reconcile_cost(report.cost, report).empty());
}

TEST(CostLedgerTest, UnknownTenantGetsARowAppended)
{
    ServeFold fold({{"known"}});
    TraceEvent arrive;
    arrive.kind = TraceEventKind::kArrive;
    arrive.request = 0;
    arrive.tenant = "stranger";
    arrive.slo = static_cast<int>(SloClass::kStandard);
    fold.apply(arrive);
    TraceEvent shed = arrive;
    shed.kind = TraceEventKind::kShed;
    fold.apply(shed);
    const CostReport &cost = fold.state().cost;
    ASSERT_EQ(cost.tenants.size(), 2u);
    EXPECT_EQ(cost.tenants[0].tenant, "known");
    EXPECT_EQ(cost.tenants[1].tenant, "stranger");
    EXPECT_EQ(cost.tenants[1]
                  .by_class[static_cast<int>(SloClass::kStandard)]
                  .shed_capacity,
              1u);
    // The request is retired: a second terminal event for it is an error.
    EXPECT_THROW(fold.apply(shed), Error);
}

// ---- Token bucket -------------------------------------------------------

TEST(TokenBucketTest, StartsFullAndRefillsAtTheConfiguredRate)
{
    // 1000 req/s = one token per 1000 us, burst 4: four back-to-back
    // takes drain the full bucket, the fifth is refused.
    TokenBucket bucket(1000, 4);
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(bucket.try_take(0)) << "take " << i;
    }
    EXPECT_FALSE(bucket.try_take(0));
    EXPECT_FALSE(bucket.try_take(500));  // Half a token refilled.
    EXPECT_TRUE(bucket.try_take(1600));  // > one token since t=0.
    EXPECT_FALSE(bucket.try_take(1700));
}

TEST(TokenBucketTest, RefillCapsAtBurst)
{
    TokenBucket bucket(1000, 2);
    EXPECT_TRUE(bucket.try_take(0));
    EXPECT_TRUE(bucket.try_take(0));
    // A long idle gap refills to burst, not to rate * elapsed.
    for (int i = 0; i < 2; ++i) {
        EXPECT_TRUE(bucket.try_take(1e6));
    }
    EXPECT_FALSE(bucket.try_take(1e6));
}

TEST(TokenBucketTest, DefaultBucketIsUnlimited)
{
    TokenBucket bucket;
    EXPECT_FALSE(bucket.limited());
    for (int i = 0; i < 1000; ++i) {
        EXPECT_TRUE(bucket.try_take(0));
    }
    EXPECT_EQ(bucket.fill(), 1);  // Reports its (default) burst.
}

TEST(AdmissionRateLimitTest, ShedRateLimitIsDisjointFromTheOtherValves)
{
    AdmissionConfig config;
    config.queue_capacity = 1;
    // "free" has no rate limit; "lim" admits one request per ms with no
    // burst allowance beyond the first.
    AdmissionQueue queue(config, {{"free"}, {"lim", 1.0,
                                             SloClass::kStandard,
                                             /*rate_rps=*/1000,
                                             /*burst=*/1}});
    Request r;
    r.tenant = "lim";
    r.arrival_us = 0;
    EXPECT_TRUE(queue.offer(r, 0));
    // Second arrival at t=0: the bucket is empty — shed by rate, not by
    // the (now full) queue.
    const AdmitDecision rate = queue.offer(r, 0);
    EXPECT_FALSE(rate);
    EXPECT_EQ(rate.reason, AdmitDecision::Shed::kRateLimit);
    // The unlimited tenant passes its bucket but finds the queue full.
    r.tenant = "free";
    const AdmitDecision depth = queue.offer(r, 0);
    EXPECT_FALSE(depth);
    EXPECT_EQ(depth.reason, AdmitDecision::Shed::kCapacity);

    EXPECT_EQ(queue.stats().shed_ratelimit, 1u);
    EXPECT_EQ(queue.stats().rejected, 2u);
    EXPECT_EQ(queue.stats().admitted, 1u);
}

// ---- The noisy-neighbor guarantee ---------------------------------------

TEST(NoisyNeighborTest, HogIsThrottledAndVictimsKeepTheirTail)
{
    const ServeReport throttled = run_preset("noisy", "a100");

    // The hog is the only rate-limited tenant, and the preset drives it
    // hard past its allowance: its bucket must shed, nobody else's.
    const TenantCost *hog = nullptr;
    std::uint64_t other_ratelimit = 0;
    for (const TenantCost &t : throttled.cost.tenants) {
        if (t.tenant == "hog") {
            hog = &t;
        } else {
            other_ratelimit += t.total.shed_ratelimit;
        }
    }
    ASSERT_NE(hog, nullptr);
    EXPECT_GT(hog->total.shed_ratelimit, 0u);
    EXPECT_EQ(other_ratelimit, 0u);
    EXPECT_EQ(hog->total.shed_ratelimit,
              throttled.admission.shed_ratelimit);

    // Same traffic with the hog's bucket disabled: the victims' p99
    // under throttling must stay within tolerance of (in practice,
    // below) their tail when the hog runs unpoliced — the property that
    // makes rate limiting a protection, not just a penalty.
    ServeConfig unpoliced = serve_preset_by_name("noisy");
    for (TenantSpec &t : unpoliced.traffic.tenants) {
        t.rate_rps = 0;
    }
    Server server(unpoliced, sim::device_spec_by_name("a100"));
    const ServeReport open = server.run();
    EXPECT_EQ(open.admission.shed_ratelimit, 0u);
    for (const TenantCost &t : throttled.cost.tenants) {
        if (t.tenant == "hog" || t.latency.count == 0) {
            continue;
        }
        for (const TenantCost &u : open.cost.tenants) {
            if (u.tenant == t.tenant && u.latency.count > 0) {
                EXPECT_LE(t.latency.p99, u.latency.p99 * 1.5)
                    << t.tenant;
            }
        }
    }
}

// ---- Report document ----------------------------------------------------

TEST(CostReportJsonTest, SameSeedRunsAreByteIdentical)
{
    const CostRunInfo info{"noisy", "a100",
                           serve_preset_by_name("noisy").traffic.seed};
    // Pin the manifest: the document becomes a pure function of the run
    // (RunManifest::collect stamps wall-clock time).
    const prof::RunManifest manifest;
    std::string json[2];
    for (int i = 0; i < 2; ++i) {
        const ServeReport report = run_preset("noisy", "a100");
        json[i] = cost_report_json(
            report.cost, info, reconcile_cost(report.cost, report),
            manifest);
    }
    EXPECT_EQ(json[0], json[1]);

    const JsonValue doc = json_parse(json[0]);
    EXPECT_EQ(doc.at("schema").as_string(), "mgcost.report");
    EXPECT_TRUE(doc.at("conserved").as_bool());
    EXPECT_EQ(doc.at("tenants").array.size(), 4u);
}

// ---- Telemetry ----------------------------------------------------------

TEST(TelemetryRecorderTest, EmitsAStepFunctionOnTheGrid)
{
    TenantSpec a;
    a.name = "a";
    TelemetryRecorder recorder({a});
    const double dt = kTelemetryIntervalUs;
    const auto event = [&recorder](TraceEventKind kind, double t_us,
                                   std::int64_t request) {
        TraceEvent e;
        e.kind = kind;
        e.t_us = t_us;
        e.request = request;
        e.tenant = "a";
        e.model = "tiny";
        e.slo = 1;
        e.batch = 0;
        e.round = 0;
        e.fill = 0.5;
        e.hbm_bytes = 100;
        recorder.apply(e);
    };
    // Grid points 0, 1, 2 (in intervals) elapse before the first event
    // and carry the initial state: empty, with a fresh bucket's fill.
    event(TraceEventKind::kArrive, 2.5 * dt, 1);
    event(TraceEventKind::kAdmit, 2.5 * dt, 1);
    event(TraceEventKind::kArrive, 2.5 * dt, 2);
    event(TraceEventKind::kAdmit, 2.5 * dt, 2);
    // Point 3 carries the two queued requests; 4 and 5 the round.
    event(TraceEventKind::kBatchForm, 3.5 * dt, 1);
    event(TraceEventKind::kBatchForm, 3.5 * dt, 2);
    event(TraceEventKind::kRoundDispatch, 3.5 * dt, -1);
    recorder.finish(5 * dt);

    const std::vector<TelemetrySample> &samples = recorder.samples();
    ASSERT_EQ(samples.size(), 6u);
    const double expected_t[] = {0, dt, 2 * dt, 3 * dt, 4 * dt, 5 * dt};
    const int expected_in_flight[] = {0, 0, 0, 0, 2, 2};
    const std::size_t expected_depth[] = {0, 0, 0, 2, 0, 0};
    for (std::size_t i = 0; i < samples.size(); ++i) {
        EXPECT_DOUBLE_EQ(samples[i].t_us, expected_t[i]) << i;
        EXPECT_EQ(samples[i].in_flight, expected_in_flight[i]) << i;
        EXPECT_EQ(samples[i].queue_depth[0], expected_depth[i]) << i;
        EXPECT_EQ(samples[i].round_hbm_bytes, i < 4 ? 0u : 100u) << i;
    }
    EXPECT_DOUBLE_EQ(samples[0].bucket_fill[0], 1.0);
    EXPECT_DOUBLE_EQ(samples[3].bucket_fill[0], 0.5);
}

TEST(TelemetryRecorderTest, CsvIsByteIdenticalAcrossSameSeedRuns)
{
    const ServeConfig config = serve_preset_by_name("noisy");
    std::string csv[2];
    for (int i = 0; i < 2; ++i) {
        TraceLog log;
        run_preset("noisy", "a100", &log);
        TelemetryRecorder recorder(config.traffic.tenants);
        fold_telemetry(recorder, log);
        EXPECT_FALSE(recorder.samples().empty());
        csv[i] = telemetry_csv(recorder);
    }
    EXPECT_EQ(csv[0], csv[1]);
    // Wide format: one queue-depth and one bucket-fill column per tenant.
    const std::string header = csv[0].substr(0, csv[0].find('\n'));
    EXPECT_EQ(header,
              "t_us,in_flight,round_hbm_bytes,"
              "queue_depth.alice,queue_depth.bob,queue_depth.carol,"
              "queue_depth.hog,"
              "bucket_fill.alice,bucket_fill.bob,bucket_fill.carol,"
              "bucket_fill.hog");
}

TEST(TelemetryRecorderTest, ObserverDoesNotPerturbTheRun)
{
    // The series is folded from the run's event log afterwards, so the
    // logged run is the bare run, and the grid covers it to the end.
    const ServeConfig config = serve_preset_by_name("noisy");
    TraceLog log;
    const ServeReport watched = run_preset("noisy", "a100", &log);
    TelemetryRecorder recorder(config.traffic.tenants);
    fold_telemetry(recorder, log);
    const ServeReport bare = run_preset("noisy", "a100");
    EXPECT_DOUBLE_EQ(watched.busy_us, bare.busy_us);
    EXPECT_DOUBLE_EQ(watched.makespan_us, bare.makespan_us);
    EXPECT_EQ(watched.completed, bare.completed);
    EXPECT_EQ(watched.admission.shed_ratelimit,
              bare.admission.shed_ratelimit);
    ASSERT_FALSE(recorder.samples().empty());
    EXPECT_GT(recorder.samples().back().t_us + kTelemetryIntervalUs,
              log.events().back().t_us);
}

}  // namespace
}  // namespace multigrain::serve
