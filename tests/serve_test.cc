// Tests for the mgserve serving layer (ISSUE 4): latency percentiles,
// deterministic traffic generation, sequence-length bucketing, admission
// control (shedding, aging, EDF-with-fairness dequeue), compatible-only
// batching, end-to-end scheduler determinism (same seed, same bytes),
// and the serving regression gate (a perturbed run must fail).

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "plan_test_util.h"

#include "common/error.h"
#include "figures.h"
#include "gpusim/device.h"
#include "profiler/percentile.h"
#include "profiler/regress.h"
#include "serve/admission.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/traffic.h"
#include "transformer/workload.h"

namespace multigrain {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- Percentiles --------------------------------------------------------

TEST(PercentileTest, LinearInterpolation)
{
    EXPECT_DOUBLE_EQ(prof::percentile({}, 50), 0);
    EXPECT_DOUBLE_EQ(prof::percentile({7}, 0), 7);
    EXPECT_DOUBLE_EQ(prof::percentile({7}, 99), 7);

    // Order must not matter.
    const std::vector<double> v = {40, 10, 30, 20};
    EXPECT_DOUBLE_EQ(prof::percentile(v, 0), 10);
    EXPECT_DOUBLE_EQ(prof::percentile(v, 50), 25);
    EXPECT_DOUBLE_EQ(prof::percentile(v, 100), 40);
    EXPECT_DOUBLE_EQ(prof::percentile(v, 25), 17.5);

    EXPECT_THROW(prof::percentile({1.0}, -1), Error);
    EXPECT_THROW(prof::percentile({1.0}, 101), Error);
}

TEST(PercentileTest, SummaryReducesTheTail)
{
    std::vector<double> latencies;
    for (int i = 1; i <= 100; ++i) {
        latencies.push_back(i);
    }
    const prof::LatencySummary s =
        prof::summarize_latencies(std::move(latencies));
    EXPECT_EQ(s.count, 100u);
    EXPECT_DOUBLE_EQ(s.mean, 50.5);
    EXPECT_DOUBLE_EQ(s.p50, 50.5);
    EXPECT_DOUBLE_EQ(s.max, 100);
    EXPECT_GT(s.p99, s.p95);
    EXPECT_GT(s.p95, s.p50);

    const prof::LatencySummary empty = prof::summarize_latencies({});
    EXPECT_EQ(empty.count, 0u);
    EXPECT_DOUBLE_EQ(empty.p99, 0);
}

TEST(PercentileTest, EdgeCases)
{
    // A single sample is every percentile, including the p=0/p=100
    // boundaries.
    EXPECT_DOUBLE_EQ(prof::percentile({42.0}, 0), 42.0);
    EXPECT_DOUBLE_EQ(prof::percentile({42.0}, 50), 42.0);
    EXPECT_DOUBLE_EQ(prof::percentile({42.0}, 100), 42.0);

    // p=0 is the min and p=100 the max, never an out-of-range rank.
    const std::vector<double> v = {5, 1, 9, 3};
    EXPECT_DOUBLE_EQ(prof::percentile(v, 0), 1);
    EXPECT_DOUBLE_EQ(prof::percentile(v, 100), 9);

    // Non-finite samples would silently poison every rank after the
    // sort; they must throw instead of propagating NaN.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(prof::percentile({1.0, nan}, 50), Error);
    EXPECT_THROW(prof::percentile({kInf}, 50), Error);
    EXPECT_THROW(prof::summarize_latencies({1.0, nan}), Error);

    // Negative samples are legal (deltas, clock skews): the summary max
    // must be the largest sample, not a phantom 0.
    const prof::LatencySummary neg =
        prof::summarize_latencies({-3.0, -1.0, -2.0});
    EXPECT_EQ(neg.count, 3u);
    EXPECT_DOUBLE_EQ(neg.max, -1.0);
    EXPECT_DOUBLE_EQ(neg.mean, -2.0);
    EXPECT_DOUBLE_EQ(neg.p50, -2.0);

    const prof::LatencySummary one = prof::summarize_latencies({7.5});
    EXPECT_EQ(one.count, 1u);
    EXPECT_DOUBLE_EQ(one.p50, 7.5);
    EXPECT_DOUBLE_EQ(one.p99, 7.5);
    EXPECT_DOUBLE_EQ(one.max, 7.5);
}

// ---- Traffic ------------------------------------------------------------

serve::TrafficConfig
small_poisson()
{
    serve::TrafficConfig config;
    config.arrivals = serve::ArrivalProcess::kPoisson;
    config.rate_rps = 5000;
    config.num_requests = 24;
    config.seed = 7;
    config.models = {"tiny"};
    config.min_len = 8;
    config.tenants = {{"a", 3.0, serve::SloClass::kInteractive},
                      {"b", 1.0, serve::SloClass::kBatch}};
    config.slo_budget_us[0] = 500;
    return config;
}

TEST(TrafficTest, PoissonStreamIsDeterministicAndOrdered)
{
    serve::TrafficSource first(small_poisson());
    serve::TrafficSource second(small_poisson());

    double prev = -1;
    int n = 0;
    while (first.peek_us() < kInf) {
        ASSERT_EQ(first.peek_us(), second.peek_us());
        const serve::Request a = first.pop();
        const serve::Request b = second.pop();
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.tenant, b.tenant);
        EXPECT_EQ(a.model, b.model);
        EXPECT_EQ(a.valid_len, b.valid_len);
        EXPECT_EQ(a.arrival_us, b.arrival_us);
        EXPECT_EQ(a.deadline_us, b.deadline_us);
        EXPECT_GE(a.arrival_us, prev);
        prev = a.arrival_us;
        // Budgeted classes get arrival + budget; batch has no deadline.
        if (a.slo == serve::SloClass::kInteractive) {
            EXPECT_DOUBLE_EQ(a.deadline_us, a.arrival_us + 500);
        } else {
            EXPECT_EQ(a.deadline_us, kInf);
        }
        ++n;
    }
    EXPECT_EQ(n, 24);
    EXPECT_TRUE(first.exhausted());
    EXPECT_TRUE(second.exhausted());
}

TEST(TrafficTest, ClosedLoopIssuesOnCompletion)
{
    serve::TrafficConfig config;
    config.arrivals = serve::ArrivalProcess::kClosedLoop;
    config.concurrency = 2;
    config.think_time_us = 50;
    config.num_requests = 5;
    config.models = {"tiny"};
    config.min_len = 8;
    serve::TrafficSource source(config);

    // The loop seeds one request per client at t = 0 ...
    const serve::Request r0 = source.pop();
    const serve::Request r1 = source.pop();
    EXPECT_DOUBLE_EQ(r0.arrival_us, 0);
    EXPECT_DOUBLE_EQ(r1.arrival_us, 0);
    EXPECT_EQ(source.peek_us(), kInf);

    // ... and each completion schedules that client's next request.
    source.on_completion(r0, 100);
    ASSERT_LT(source.peek_us(), kInf);
    const serve::Request r2 = source.pop();
    EXPECT_DOUBLE_EQ(r2.arrival_us, 150);  // finish + think time

    source.on_completion(r1, 120);
    source.on_completion(r2, 400);
    const serve::Request r3 = source.pop();
    const serve::Request r4 = source.pop();
    EXPECT_DOUBLE_EQ(r3.arrival_us, 170);
    EXPECT_DOUBLE_EQ(r4.arrival_us, 450);
    // num_requests reached: further completions issue nothing.
    source.on_completion(r3, 500);
    EXPECT_EQ(source.peek_us(), kInf);
    EXPECT_TRUE(source.exhausted());
}

// ---- Bucketing ----------------------------------------------------------

TEST(BucketTest, BucketLenRoundsUpAndClamps)
{
    EXPECT_EQ(bucket_len(1, 64, 512), 64);
    EXPECT_EQ(bucket_len(64, 64, 512), 64);
    EXPECT_EQ(bucket_len(65, 64, 512), 128);
    EXPECT_EQ(bucket_len(512, 64, 512), 512);
    EXPECT_EQ(bucket_len(600, 64, 512), 512);  // Clamped to the cap.
}

TEST(BucketTest, CanonicalSamplesAreReproducible)
{
    const ModelConfig tiny = model_config_by_name("tiny");
    const ModelConfig bucketed = bucketed_model(tiny, 64);
    EXPECT_EQ(bucketed.max_seq_len, 64);

    const WorkloadSample a = canonical_bucket_sample(bucketed, 64);
    const WorkloadSample b = canonical_bucket_sample(bucketed, 64);
    EXPECT_EQ(a.valid_len, b.valid_len);
    EXPECT_EQ(a.special_tokens, b.special_tokens);

    // Misaligned or oversized buckets are planning bugs, not inputs.
    EXPECT_THROW(bucketed_model(tiny, 63), Error);
    EXPECT_THROW(bucketed_model(tiny, tiny.max_seq_len + tiny.block),
                 Error);
}

// ---- Admission ----------------------------------------------------------

serve::Request
make_request(std::uint64_t id, const std::string &tenant, double arrival,
             double deadline)
{
    serve::Request r;
    r.id = id;
    r.tenant = tenant;
    r.model = "tiny";
    r.valid_len = 16;
    r.arrival_us = arrival;
    r.deadline_us = deadline;
    return r;
}

TEST(AdmissionTest, ShedsAtCapacity)
{
    serve::AdmissionConfig config;
    config.queue_capacity = 2;
    serve::AdmissionQueue queue(config, {{"a"}});
    EXPECT_TRUE(queue.offer(make_request(0, "a", 0, kInf), 0));
    EXPECT_TRUE(queue.offer(make_request(1, "a", 0, kInf), 0));
    EXPECT_FALSE(queue.offer(make_request(2, "a", 0, kInf), 0));
    EXPECT_EQ(queue.stats().offered, 3u);
    EXPECT_EQ(queue.stats().admitted, 2u);
    EXPECT_EQ(queue.stats().rejected, 1u);
    EXPECT_EQ(queue.stats().max_depth, 2u);
}

TEST(AdmissionTest, AgesOutStaleRequests)
{
    serve::AdmissionConfig config;
    config.queue_capacity = 8;
    config.max_queue_wait_us = 100;
    serve::AdmissionQueue queue(config, {{"a"}});
    EXPECT_TRUE(queue.offer(make_request(0, "a", 0, kInf), 0));
    EXPECT_TRUE(queue.offer(make_request(1, "a", 90, kInf), 90));

    EXPECT_TRUE(queue.expire(50).empty());
    const std::vector<serve::Request> expired = queue.expire(150);
    ASSERT_EQ(expired.size(), 1u);
    EXPECT_EQ(expired[0].id, 0u);
    EXPECT_EQ(queue.stats().timed_out, 1u);
    EXPECT_EQ(queue.depth(), 1u);
}

TEST(AdmissionTest, PopsEarliestDeadlineWithTenantRotation)
{
    serve::AdmissionConfig config;
    serve::AdmissionQueue queue(config, {{"a"}, {"b"}});
    // b's head has the earlier deadline: EDF picks it over a.
    ASSERT_TRUE(queue.offer(make_request(0, "a", 0, 400), 0));
    ASSERT_TRUE(queue.offer(make_request(1, "b", 0, 200), 0));
    ASSERT_TRUE(queue.offer(make_request(2, "b", 0, 400), 0));
    auto first = queue.pop_seed();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->id, 1u);

    // The heads now tie at deadline 400. The cursor rotated past b, so
    // fairness gives a the tie — b cannot monopolize the device.
    auto second = queue.pop_seed();
    auto third = queue.pop_seed();
    ASSERT_TRUE(second.has_value() && third.has_value());
    EXPECT_EQ(second->id, 0u);
    EXPECT_EQ(third->id, 2u);
    EXPECT_FALSE(queue.pop_seed().has_value());
    EXPECT_EQ(queue.stats().dispatched, 3u);
}

TEST(AdmissionTest, CountersStayExactUnderSimultaneousShedAndAgeOut)
{
    // Sheds and age-outs in the same tick must not double-count or lose
    // requests: every offer lands in exactly one of admitted/rejected,
    // and every admitted request in exactly one of
    // dispatched/timed_out/still-queued.
    serve::AdmissionConfig config;
    config.queue_capacity = 4;
    config.max_queue_wait_us = 100;
    serve::AdmissionQueue queue(config, {{"a"}, {"b"}});

    // Fill to capacity at t=0, then shed two more at t=0.
    for (std::uint64_t id = 0; id < 4; ++id) {
        ASSERT_TRUE(queue.offer(
            make_request(id, id % 2 ? "b" : "a", 0, kInf), 0));
    }
    EXPECT_FALSE(queue.offer(make_request(4, "a", 0, kInf), 0));
    EXPECT_FALSE(queue.offer(make_request(5, "b", 0, kInf), 0));

    // t=150: everything queued is stale. In the same tick, age out the
    // backlog, then offer two fresh requests — one admitted into the
    // freed space, one... also admitted (capacity is free again), then
    // dispatch one and age out the other at t=300.
    const std::vector<serve::Request> aged = queue.expire(150);
    EXPECT_EQ(aged.size(), 4u);
    ASSERT_TRUE(queue.offer(make_request(6, "a", 150, kInf), 150));
    ASSERT_TRUE(queue.offer(make_request(7, "b", 150, kInf), 150));
    auto popped = queue.pop_seed();
    ASSERT_TRUE(popped.has_value());
    const std::vector<serve::Request> aged2 = queue.expire(300);
    EXPECT_EQ(aged2.size(), 1u);

    const serve::AdmissionStats &s = queue.stats();
    EXPECT_EQ(s.offered, 8u);
    EXPECT_EQ(s.admitted, 6u);
    EXPECT_EQ(s.rejected, 2u);
    EXPECT_EQ(s.timed_out, 5u);
    EXPECT_EQ(s.dispatched, 1u);
    // The conservation laws the SLO-attribution report relies on.
    EXPECT_EQ(s.offered, s.admitted + s.rejected);
    EXPECT_EQ(s.admitted, s.dispatched + s.timed_out + queue.depth());
    EXPECT_EQ(queue.depth(), 0u);
}

TEST(AdmissionTest, EndToEndCountersSumToArrivals)
{
    // Under the overload preset every arrival must be accounted for:
    // completed + rejected + timed_out + still-in-flight == offered, and
    // offered == the number of synthetic arrivals. A leak here would
    // corrupt the mgtrace span census silently.
    serve::ServeConfig config = serve::serve_preset_by_name("overload");
    const sim::DeviceSpec device = sim::device_spec_by_name("a100");
    serve::Server server(config, device);
    const serve::ServeReport report = server.run();

    EXPECT_EQ(report.admission.offered,
              static_cast<std::uint64_t>(config.traffic.num_requests));
    EXPECT_EQ(report.admission.offered,
              report.admission.admitted + report.admission.rejected);
    EXPECT_EQ(report.admission.admitted,
              report.completed + report.admission.timed_out);
    EXPECT_GT(report.admission.rejected, 0u);
}

// ---- Scheduler ----------------------------------------------------------

TEST(SchedulerTest, BatchesOnlyCompatibleRequests)
{
    serve::SchedulerConfig config;
    config.max_batch = 8;
    config.bucket_granularity = 64;
    config.max_concurrent_batches = 4;
    const serve::Scheduler scheduler(config, {"tiny"});

    serve::AdmissionQueue queue(serve::AdmissionConfig{}, {{"a"}});
    // Two bucket-64 requests and one bucket-128 request: the round must
    // not mix them into one plan.
    serve::Request r0 = make_request(0, "a", 0, kInf);
    serve::Request r1 = make_request(1, "a", 0, kInf);
    serve::Request r2 = make_request(2, "a", 0, kInf);
    r0.valid_len = 16;
    r1.valid_len = 60;
    r2.valid_len = 100;
    ASSERT_TRUE(queue.offer(std::move(r0), 0));
    ASSERT_TRUE(queue.offer(std::move(r1), 0));
    ASSERT_TRUE(queue.offer(std::move(r2), 0));

    const std::vector<serve::Batch> round = scheduler.next_round(queue);
    ASSERT_EQ(round.size(), 2u);
    EXPECT_EQ(round[0].bucket, 64);
    EXPECT_EQ(round[0].size(), 2);
    EXPECT_EQ(round[0].planned_batch, 2);
    EXPECT_EQ(round[1].bucket, 128);
    EXPECT_EQ(round[1].size(), 1);
    EXPECT_TRUE(queue.empty());

    // Power-of-two padding quantizes plan keys.
    EXPECT_EQ(scheduler.planned_batch(3), 4);
    EXPECT_EQ(scheduler.planned_batch(5), 8);

    // Granularity below the model's block size is a config error.
    serve::SchedulerConfig bad = config;
    bad.bucket_granularity = 63;
    EXPECT_THROW(serve::Scheduler(bad, {"tiny"}), Error);
}

// ---- End to end ---------------------------------------------------------

double
metric(const serve::ServeReport &report, const std::string &key)
{
    for (const serve::ServeMetricDef &def : serve::serve_metric_registry()) {
        if (key == def.key) {
            return def.get(report);
        }
    }
    ADD_FAILURE() << "no serve metric " << key;
    return 0;
}

TEST(ServerTest, OverloadPresetShedsAndRespectsQueueBound)
{
    ::unsetenv("MULTIGRAIN_PERTURB");
    const serve::ServeConfig config =
        serve::serve_preset_by_name("overload");
    serve::Server server(config, sim::device_spec_by_name("a100"));
    const serve::ServeReport report = server.run();

    // Load shedding engaged, surfaced through the metric registry.
    EXPECT_GT(metric(report, "rejected"), 0);
    EXPECT_LE(metric(report, "max_queue_depth"),
              static_cast<double>(config.admission.queue_capacity));
    // Conservation: every offered request is accounted for exactly once.
    EXPECT_EQ(metric(report, "requests"),
              metric(report, "completed") + metric(report, "rejected") +
                  metric(report, "timed_out"));
    EXPECT_EQ(report.records.size(),
              static_cast<std::size_t>(config.traffic.num_requests));
}

TEST(ServerTest, OnlyCompletedRecordsCanMeetTheirDeadline)
{
    // A shed, rate-limited, aged-out or lost request was never served,
    // so its record reports a missed deadline whatever its budget.
    ::unsetenv("MULTIGRAIN_PERTURB");
    for (const char *preset : {"overload", "noisy"}) {
        SCOPED_TRACE(preset);
        serve::Server server(serve::serve_preset_by_name(preset),
                             sim::device_spec_by_name("a100"));
        const serve::ServeReport report = server.run();
        std::size_t unserved = 0;
        for (const serve::RequestRecord &rec : report.records) {
            if (rec.outcome != serve::RequestRecord::Outcome::kCompleted) {
                ++unserved;
                EXPECT_FALSE(rec.deadline_met)
                    << "request " << rec.request.id;
            }
        }
        EXPECT_GT(unserved, 0u);
    }
}

TEST(ServerTest, TinyPresetReusesPlansAndMeetsDeadlines)
{
    ::unsetenv("MULTIGRAIN_PERTURB");
    serve::Server server(serve::serve_preset_by_name("tiny"),
                         sim::device_spec_by_name("a100"));
    const serve::ServeReport report = server.run();

    EXPECT_EQ(metric(report, "rejected"), 0);
    EXPECT_EQ(metric(report, "completed"), 64);
    // Bucketing + pow2 padding make plan keys repeat across requests.
    EXPECT_GT(report.plan_cache.hits, 0u);
    // Continuous batching actually batches.
    EXPECT_GT(metric(report, "avg_batch"), 1.0);
    EXPECT_GT(metric(report, "p99_us"), metric(report, "p50_us"));
}

TEST(ServerTest, MemtightPresetShedsOnMemoryAndPacksRoundsToBytes)
{
    ::unsetenv("MULTIGRAIN_PERTURB");
    const serve::ServeConfig config =
        serve::serve_preset_by_name("memtight");
    ASSERT_GT(config.admission.hbm_budget_bytes, 0u);
    ASSERT_GT(config.scheduler.round_hbm_budget_bytes, 0u);
    serve::Server server(config, sim::device_spec_by_name("a100"));
    const serve::ServeReport report = server.run();

    // The memory valve engaged, with exact counters: every shed is a
    // rejection, and conservation still holds.
    EXPECT_GT(metric(report, "shed_memory"), 0);
    EXPECT_LE(metric(report, "shed_memory"), metric(report, "rejected"));
    EXPECT_EQ(metric(report, "requests"),
              metric(report, "completed") + metric(report, "rejected") +
                  metric(report, "timed_out"));
    // The queue's projected bytes never passed the admission budget ...
    EXPECT_LE(report.admission.max_queued_bytes,
              config.admission.hbm_budget_bytes);
    // ... and every round packed under the round byte budget (the
    // first-batch exemption never fires here: a single tiny batch is
    // far below the budget).
    ASSERT_EQ(report.round_hbm_bytes.size(),
              static_cast<std::size_t>(report.rounds));
    for (const std::uint64_t bytes : report.round_hbm_bytes) {
        EXPECT_GT(bytes, 0u);
        EXPECT_LE(bytes, config.scheduler.round_hbm_budget_bytes);
    }
    EXPECT_GT(report.peak_round_hbm_bytes, 0u);
    EXPECT_LE(report.peak_round_hbm_bytes,
              config.scheduler.round_hbm_budget_bytes);
}

TEST(ServerTest, RoundWatermarksAreReportedWithoutAnyBudget)
{
    ::unsetenv("MULTIGRAIN_PERTURB");
    serve::Server server(serve::serve_preset_by_name("tiny"),
                         sim::device_spec_by_name("a100"));
    const serve::ServeReport report = server.run();

    // Byte watermarks are observability, not policy: the unbudgeted
    // preset still carries one per round.
    EXPECT_EQ(metric(report, "shed_memory"), 0);
    ASSERT_EQ(report.round_hbm_bytes.size(),
              static_cast<std::size_t>(report.rounds));
    EXPECT_GT(report.peak_round_hbm_bytes, 0u);
}

TEST(ServerTest, MemtightSameSeedSameBytes)
{
    ::unsetenv("MULTIGRAIN_PERTURB");
    const sim::DeviceSpec device = sim::device_spec_by_name("a100");
    PlanCache::instance().clear();
    serve::Server first(serve::serve_preset_by_name("memtight"), device);
    prof::BenchRun a = serve::serve_bench_run(first.run(), "a100");
    PlanCache::instance().clear();
    serve::Server second(serve::serve_preset_by_name("memtight"), device);
    prof::BenchRun b = serve::serve_bench_run(second.run(), "a100");

    EXPECT_EQ(a.name, "serve_memtight@a100");
    a.manifest.timestamp.clear();
    b.manifest.timestamp.clear();
    EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(AdmissionTest, MemoryBudgetShedsAndPushFrontRestores)
{
    serve::AdmissionConfig config;
    config.queue_capacity = 8;
    config.hbm_budget_bytes = 1000;
    serve::AdmissionQueue queue(config, {{"t"}});

    serve::Request a;
    a.id = 1;
    a.tenant = "t";
    a.footprint_bytes = 600;
    serve::Request b = a;
    b.id = 2;
    b.footprint_bytes = 500;

    EXPECT_TRUE(queue.offer(a, 0));
    EXPECT_EQ(queue.queued_bytes(), 600u);
    // 600 + 500 > 1000: shed on memory, not on depth.
    EXPECT_FALSE(queue.offer(b, 0));
    EXPECT_EQ(queue.stats().shed_memory, 1u);
    EXPECT_EQ(queue.stats().rejected, 1u);

    // Draining releases the bytes; push_front restores them and the
    // request's place at its tenant head.
    std::optional<serve::Request> seed = queue.pop_seed();
    ASSERT_TRUE(seed.has_value());
    EXPECT_EQ(queue.queued_bytes(), 0u);
    queue.push_front(std::move(*seed));
    EXPECT_EQ(queue.queued_bytes(), 600u);
    EXPECT_EQ(queue.stats().dispatched, 0u);
    std::optional<serve::Request> again = queue.pop_seed();
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->id, 1u);
    // Now b fits.
    EXPECT_TRUE(queue.offer(b, 0));
    EXPECT_EQ(queue.stats().max_queued_bytes, 600u);
}

TEST(ServerTest, SameSeedSamePresetSameBytes)
{
    ::unsetenv("MULTIGRAIN_PERTURB");
    const sim::DeviceSpec device = sim::device_spec_by_name("a100");
    // Two full in-process runs from the same cache start state (the
    // report's plan_cache delta is part of the gated bytes, so the
    // cache is cleared first exactly as run_bench_preset does).
    PlanCache::instance().clear();
    serve::Server first(serve::serve_preset_by_name("tiny"), device);
    prof::BenchRun a = serve::serve_bench_run(first.run(), "a100");
    PlanCache::instance().clear();
    serve::Server second(serve::serve_preset_by_name("tiny"), device);
    prof::BenchRun b = serve::serve_bench_run(second.run(), "a100");

    EXPECT_EQ(a.name, "serve_tiny@a100");
    // The manifest timestamp is wall clock — the one legitimate
    // difference between the two documents.
    a.manifest.timestamp.clear();
    b.manifest.timestamp.clear();
    EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(ServeGateTest, RegisteredPresetFailsUnderPerturbation)
{
    ::unsetenv("MULTIGRAIN_PERTURB");
    const bench::BenchPreset *preset =
        bench::find_bench_preset("serve_tiny");
    ASSERT_NE(preset, nullptr);
    const prof::BenchRun baseline =
        bench::run_bench_preset(*preset, {"a100"});

    prof::BenchRun perturbed;
    {
        // A 40 % DRAM-bandwidth cut is far outside every tolerance.
        const fixtures::ScopedEnv perturb("MULTIGRAIN_PERTURB", "dram=0.6");
        perturbed = bench::run_bench_preset(*preset, {"a100"});
    }
    const prof::RegressionReport report =
        prof::compare_runs(baseline, perturbed);
    EXPECT_TRUE(report.gate_failed());
    EXPECT_GT(report.regressed, 0);

    // And a clean re-run still matches the baseline bit for bit on the
    // gated metrics — the serving loop leaves no residue.
    const prof::BenchRun clean = bench::run_bench_preset(*preset, {"a100"});
    const prof::RegressionReport clean_report =
        prof::compare_runs(baseline, clean);
    EXPECT_FALSE(clean_report.gate_failed());
    EXPECT_EQ(clean_report.regressed, 0);
}

}  // namespace
}  // namespace multigrain
