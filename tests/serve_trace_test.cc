// Tests for mgtrace: the fold's request spans, and the trace report
// reconciled against ServeReport across every preset x device,
// byte-identical same-seed event logs, zero-perturbation of
// untraced runs, the anomaly flight recorder (triggers, ring bounds,
// incident JSON round-trip and replay), the correlated Perfetto export,
// and a failover replica's log accounting for every request it was
// offered, including one drained and re-offered to it.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "gpusim/device.h"
#include "serve/cluster.h"
#include "serve/server.h"
#include "serve/trace.h"
#include "serve/traffic.h"

namespace multigrain::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct TracedRun {
    TraceLog log;
    ServeReport report;
};

/// Runs `preset` on `device` with tracing attached.
TracedRun
traced_run(const std::string &preset, const std::string &device,
           TraceConfig config = {})
{
    TracedRun out{TraceLog(config), ServeReport{}};
    const ServeConfig serve_config = serve_preset_by_name(preset);
    Server server(serve_config, sim::device_spec_by_name(device));
    server.set_trace(&out.log);
    out.report = server.run();
    return out;
}

/// The spans a ServeFold builds from `events`.
std::vector<RequestSpans>
spans_of(const std::vector<TraceEvent> &events)
{
    ServeFold fold({});
    for (const TraceEvent &e : events) {
        fold.apply(e);
    }
    return fold.spans();
}

TraceRunInfo
run_info(const std::string &preset, const std::string &device)
{
    TraceRunInfo info;
    info.preset = preset;
    info.device = device;
    info.seed = serve_preset_by_name(preset).traffic.seed;
    return info;
}

// ---- Reconciliation across the preset matrix ----------------------------

TEST(TraceReconcileTest, EveryPresetAndDeviceReconciles)
{
    for (const char *preset : {"tiny", "steady", "overload", "closed",
                               "memtight", "noisy"}) {
        for (const char *device : {"a100", "rtx3090"}) {
            SCOPED_TRACE(std::string(preset) + "@" + device);
            TracedRun run = traced_run(preset, device);
            const TraceReport report = build_trace_report(
                run.log, run.report, run_info(preset, device));
            for (const std::string &err : report.reconcile_errors) {
                ADD_FAILURE() << err;
            }
            EXPECT_TRUE(report.reconciled());
            EXPECT_EQ(report.requests,
                      static_cast<std::size_t>(
                          run.report.admission.offered));
            EXPECT_EQ(report.completed,
                      static_cast<std::size_t>(run.report.completed));
        }
    }
}

TEST(TraceSpanTest, ComponentsTelescopeToLatency)
{
    TracedRun run = traced_run("tiny", "a100");
    const std::vector<RequestSpans> spans =
        spans_of(run.log.events());
    ASSERT_FALSE(spans.empty());
    for (const RequestSpans &s : spans) {
        SCOPED_TRACE("request " + std::to_string(s.request));
        // Boundaries chain: each component is a difference of adjacent
        // boundaries, so the telescoped sum is exact by construction.
        EXPECT_LE(s.arrive_us, s.admit_us);
        EXPECT_LE(s.admit_us, s.batched_us);
        EXPECT_LE(s.batched_us, s.dispatched_us);
        EXPECT_LE(s.dispatched_us, s.finish_us);
        EXPECT_DOUBLE_EQ(s.admission_us() + s.queue_us() +
                             s.batch_wait_us() + s.device_us(),
                         s.latency_us());
        EXPECT_GE(s.pad_us, 0);
        EXPECT_LE(s.pad_us, s.device_us());
        if (s.outcome == "completed") {
            EXPECT_GE(s.batch, 0);
            EXPECT_GE(s.round, 0);
            EXPECT_GT(s.device_us(), 0);
        } else {
            // Terminal sheds/age-outs never reach the device.
            EXPECT_DOUBLE_EQ(s.device_us(), 0);
            EXPECT_DOUBLE_EQ(s.pad_us, 0);
        }
    }
}

TEST(TraceSpanTest, OutcomeCensusMatchesAdmissionCounters)
{
    TracedRun run = traced_run("overload", "a100");
    const std::vector<RequestSpans> spans =
        spans_of(run.log.events());
    std::size_t completed = 0, shed = 0, aged = 0;
    for (const RequestSpans &s : spans) {
        if (s.outcome == "completed") {
            ++completed;
        } else if (s.outcome == "shed") {
            ++shed;
        } else if (s.outcome == "aged_out") {
            ++aged;
        }
    }
    EXPECT_EQ(completed + shed + aged, spans.size());
    EXPECT_EQ(completed, static_cast<std::size_t>(run.report.completed));
    EXPECT_EQ(shed,
              static_cast<std::size_t>(run.report.admission.rejected));
    EXPECT_EQ(aged,
              static_cast<std::size_t>(run.report.admission.timed_out));
    EXPECT_EQ(spans.size(),
              static_cast<std::size_t>(run.report.admission.offered));
}

// ---- Determinism --------------------------------------------------------

TEST(TraceDeterminismTest, SameSeedProducesByteIdenticalEventLogs)
{
    TracedRun first = traced_run("tiny", "a100");
    TracedRun second = traced_run("tiny", "a100");
    std::ostringstream a, b;
    write_events_jsonl(first.log.events(), a);
    write_events_jsonl(second.log.events(), b);
    EXPECT_FALSE(a.str().empty());
    EXPECT_EQ(a.str(), b.str());
}

TEST(TraceDeterminismTest, TracingDoesNotPerturbTheRun)
{
    // The traced run must produce the exact ServeReport an untraced run
    // does: tracing observes the clock, never advances it. The plan
    // cache is process-global, so warm it first — otherwise the two
    // runs differ in their hit/miss delta for reasons unrelated to
    // tracing.
    const ServeConfig config = serve_preset_by_name("tiny");
    const sim::DeviceSpec device = sim::device_spec_by_name("a100");
    Server(config, device).run();

    Server untraced(config, device);
    const ServeReport plain = untraced.run();

    TracedRun traced = traced_run("tiny", "a100");
    EXPECT_EQ(serve_bench_run(plain, "a100").to_json(),
              serve_bench_run(traced.report, "a100").to_json());
}

// ---- Event serialization ------------------------------------------------

/// The failover preset with every replica traced: its logs carry the
/// lost, drained and re-arrived requests a kill produces.
struct TracedFleet {
    std::vector<TraceLog> logs;
    ClusterReport report;
};

TracedFleet
traced_failover()
{
    TracedFleet out;
    ClusterConfig config = cluster_preset_by_name("failover", "a100");
    out.logs.resize(config.devices.size());
    Cluster cluster(std::move(config));
    for (std::size_t k = 0; k < out.logs.size(); ++k) {
        cluster.set_trace(k, &out.logs[k]);
    }
    out.report = cluster.run();
    return out;
}

/// Writes `events` as JSONL, parses them back, and compares every field.
void
expect_jsonl_round_trip(const std::vector<TraceEvent> &events)
{
    std::ostringstream os;
    write_events_jsonl(events, os);
    std::istringstream lines(os.str());
    std::vector<TraceEvent> parsed;
    for (std::string line; std::getline(lines, line);) {
        parsed.push_back(event_from_json(json_parse(line)));
    }
    ASSERT_EQ(parsed.size(), events.size());
    for (std::size_t i = 0; i < parsed.size(); ++i) {
        EXPECT_TRUE(parsed[i] == events[i]) << event_to_json(events[i]);
    }
}

TEST(TraceEventTest, JsonlRoundTripPreservesEveryField)
{
    TracedRun run = traced_run("overload", "a100");
    expect_jsonl_round_trip(run.log.events());

    // A failover replica's log adds the kinds and fields a kill brings.
    const TracedFleet fleet = traced_failover();
    std::map<TraceEventKind, int> kinds;
    bool rerouted = false;
    bool footprint = false;
    for (const TraceLog &log : fleet.logs) {
        for (const TraceEvent &e : log.events()) {
            ++kinds[e.kind];
            rerouted |= e.kind == TraceEventKind::kArrive &&
                        e.arrival_us < e.t_us;
            footprint |= e.kind == TraceEventKind::kBatchForm &&
                         e.footprint_bytes > 0;
        }
        expect_jsonl_round_trip(log.events());
    }
    EXPECT_GT(kinds[TraceEventKind::kLost], 0);
    EXPECT_GT(kinds[TraceEventKind::kDrain], 0);
    EXPECT_TRUE(rerouted);
    EXPECT_TRUE(footprint);
}

TEST(TraceEventTest, InfiniteDeadlineSurvivesTheRoundTrip)
{
    TraceEvent e;
    e.kind = TraceEventKind::kArrive;
    e.t_us = 1.5;
    e.request = 3;
    e.tenant = "t";
    e.model = "tiny";
    e.slo = 2;
    e.valid_len = 64;
    e.deadline_us = kInf;
    const TraceEvent back = event_from_json(json_parse(event_to_json(e)));
    EXPECT_EQ(back.deadline_us, kInf);
}

// ---- Flight recorder ----------------------------------------------------

/// A synthetic shed event at `t_us`.
TraceEvent
shed_at(double t_us, std::int64_t request)
{
    TraceEvent e;
    e.kind = TraceEventKind::kShed;
    e.t_us = t_us;
    e.request = request;
    return e;
}

TEST(FlightRecorderTest, ShedBurstFiresInsideTheWindowOnly)
{
    TraceConfig config;
    config.shed_burst = 3;
    config.shed_window_us = 100;
    config.miss_streak = 0;
    TraceLog log(config);
    // Two sheds 200us apart never fire; three within 100us do.
    log.record(shed_at(0, 0));
    log.record(shed_at(200, 1));
    EXPECT_TRUE(log.incidents().empty());
    log.record(shed_at(250, 2));
    log.record(shed_at(260, 3));
    ASSERT_EQ(log.incidents().size(), 1u);
    EXPECT_EQ(log.incidents()[0].trigger, "shed_burst");
    EXPECT_EQ(log.incidents()[0].t_us, 260);
    // The window clears on firing: the next shed alone cannot re-fire.
    log.record(shed_at(261, 4));
    EXPECT_EQ(log.incidents().size(), 1u);
}

TEST(FlightRecorderTest, DeadlineMissStreakFiresAndResets)
{
    TraceConfig config;
    config.shed_burst = 0;
    config.miss_streak = 2;
    TraceLog log(config);
    TraceEvent miss;
    miss.kind = TraceEventKind::kComplete;
    miss.flag = false;  // deadline missed
    TraceEvent hit = miss;
    hit.flag = true;

    log.record(miss);
    log.record(hit);  // streak broken
    log.record(miss);
    EXPECT_TRUE(log.incidents().empty());
    log.record(miss);
    ASSERT_EQ(log.incidents().size(), 1u);
    EXPECT_EQ(log.incidents()[0].trigger, "deadline_miss_streak");
    // The streak resets when it fires.
    log.record(miss);
    EXPECT_EQ(log.incidents().size(), 1u);
}

TEST(FlightRecorderTest, EmptyRoundStallFires)
{
    TraceConfig config;
    config.shed_burst = 0;
    config.miss_streak = 0;
    config.stall_us = 50;
    TraceLog log(config);
    TraceEvent done;
    done.kind = TraceEventKind::kRoundDone;
    done.t_us = 100;
    done.round = 0;
    TraceEvent dispatch;
    dispatch.kind = TraceEventKind::kRoundDispatch;
    dispatch.round = 1;

    log.record(done);
    dispatch.t_us = 120;  // 20us idle: fine
    log.record(dispatch);
    EXPECT_TRUE(log.incidents().empty());

    done.t_us = 200;
    done.round = 1;
    log.record(done);
    dispatch.round = 2;
    dispatch.t_us = 300;  // 100us idle > 50us stall bound
    log.record(dispatch);
    ASSERT_EQ(log.incidents().size(), 1u);
    EXPECT_EQ(log.incidents()[0].trigger, "empty_round_stall");
}

TEST(FlightRecorderTest, RateLimitBurstFiresAfterAnUnbrokenStreak)
{
    TraceConfig config;
    config.shed_burst = 0;
    config.miss_streak = 0;
    config.ratelimit_streak = 3;
    TraceLog log(config);
    TraceEvent rl;
    rl.kind = TraceEventKind::kShedRateLimit;
    TraceEvent admit;
    admit.kind = TraceEventKind::kAdmit;

    rl.t_us = 10;
    log.record(rl);
    rl.t_us = 20;
    log.record(rl);
    admit.t_us = 25;
    log.record(admit);  // An admit breaks the streak.
    rl.t_us = 30;
    log.record(rl);
    rl.t_us = 40;
    log.record(rl);
    EXPECT_TRUE(log.incidents().empty());
    rl.t_us = 50;
    log.record(rl);
    ASSERT_EQ(log.incidents().size(), 1u);
    EXPECT_EQ(log.incidents()[0].trigger, "ratelimit_burst");
    EXPECT_EQ(log.incidents()[0].t_us, 50);
    // The streak resets when it fires: one more shed cannot re-fire.
    rl.t_us = 60;
    log.record(rl);
    EXPECT_EQ(log.incidents().size(), 1u);
}

TEST(TraceReportTest, NoisyPresetCountsRateLimitShedsApart)
{
    TracedRun run = traced_run("noisy", "a100");
    const TraceReport report = build_trace_report(
        run.log, run.report, run_info("noisy", "a100"));
    EXPECT_TRUE(report.reconciled());
    EXPECT_GT(report.rate_limited, 0u);
    EXPECT_EQ(report.rate_limited,
              static_cast<std::size_t>(
                  run.report.admission.shed_ratelimit));
    // Token-bucket sheds are not double-counted as depth/memory sheds.
    EXPECT_EQ(report.shed + report.rate_limited,
              static_cast<std::size_t>(run.report.admission.rejected));
}

TEST(FlightRecorderTest, RingIsBoundedToTheConfiguredRounds)
{
    TraceConfig config;
    config.ring_rounds = 2;
    config.shed_burst = 0;
    config.miss_streak = 0;
    TraceLog log(config);
    for (std::int64_t round = 0; round < 5; ++round) {
        TraceEvent dispatch;
        dispatch.kind = TraceEventKind::kRoundDispatch;
        dispatch.round = round;
        dispatch.t_us = 100.0 * static_cast<double>(round);
        log.record(dispatch);
        TraceEvent done = dispatch;
        done.kind = TraceEventKind::kRoundDone;
        done.t_us += 50;
        log.record(done);
    }
    // Only the last two rounds' events remain in the ring; the full log
    // still has everything.
    EXPECT_EQ(log.ring().size(), 4u);
    EXPECT_EQ(log.ring().front().round, 3);
    EXPECT_EQ(log.events().size(), 10u);
}

TEST(FlightRecorderTest, OverloadPresetDeterministicallyTriggers)
{
    TracedRun first = traced_run("overload", "a100");
    TracedRun second = traced_run("overload", "a100");
    ASSERT_FALSE(first.log.incidents().empty());
    ASSERT_EQ(first.log.incidents().size(),
              second.log.incidents().size());
    const TraceRunInfo info = run_info("overload", "a100");
    for (std::size_t i = 0; i < first.log.incidents().size(); ++i) {
        EXPECT_EQ(first.log.incidents()[i].trigger, "shed_burst");
        // Byte-identical incident documents across same-seed runs.
        EXPECT_EQ(incident_to_json(first.log.incidents()[i], info,
                                   first.log.config()),
                  incident_to_json(second.log.incidents()[i], info,
                                   second.log.config()));
    }
}

TEST(FlightRecorderTest, IncidentJsonReplaysToTheSameEvents)
{
    TracedRun run = traced_run("overload", "a100");
    ASSERT_FALSE(run.log.incidents().empty());
    const Incident &live = run.log.incidents().back();
    const TraceRunInfo info = run_info("overload", "a100");

    const Incident parsed = incident_from_json(
        incident_to_json(live, info, run.log.config()));
    EXPECT_EQ(parsed.trigger, live.trigger);
    EXPECT_EQ(parsed.t_us, live.t_us);
    EXPECT_EQ(parsed.first_seq, live.first_seq);
    EXPECT_EQ(parsed.last_seq, live.last_seq);
    ASSERT_EQ(parsed.events.size(), live.events.size());
    for (std::size_t i = 0; i < parsed.events.size(); ++i) {
        EXPECT_TRUE(parsed.events[i] == live.events[i])
            << event_to_json(live.events[i]);
    }
}

TEST(FlightRecorderTest, IncidentRejectsWrongSchema)
{
    EXPECT_THROW(
        incident_from_json(std::string("{\"schema\": \"bogus\"}")),
        Error);
}

// ---- Report document ----------------------------------------------------

TEST(TraceReportTest, JsonCarriesSchemaAndReconciles)
{
    TracedRun run = traced_run("tiny", "rtx3090");
    const TraceReport report = build_trace_report(
        run.log, run.report, run_info("tiny", "rtx3090"));
    ASSERT_TRUE(report.reconciled());
    const JsonValue doc = json_parse(trace_report_json(report));
    EXPECT_EQ(doc.at("schema").as_string(), "mgtrace.report");
    EXPECT_EQ(doc.at("schema_version").as_number(), 1);
    EXPECT_EQ(doc.at("preset").as_string(), "tiny");
    EXPECT_EQ(doc.at("device").as_string(), "rtx3090");
    EXPECT_EQ(doc.at("reconciled").as_bool(), true);
    EXPECT_EQ(doc.at("requests").as_number(),
              static_cast<double>(report.requests));
    // Per-class decomposition rows are present.
    EXPECT_FALSE(doc.at("classes").array.empty());
}

// ---- Perfetto export ----------------------------------------------------

TEST(ServeTraceExportTest, EmitsCorrelatedTimeline)
{
    TraceConfig config;
    config.capture_sim = true;
    TracedRun run = traced_run("tiny", "a100", config);
    const JsonValue doc = json_parse(serve_trace_json(run.log));
    const auto &events = doc.at("traceEvents").array;
    ASSERT_FALSE(events.empty());

    std::size_t request_spans = 0, device_slices = 0, counters = 0;
    std::set<double> pids;
    for (const JsonValue &e : events) {
        const std::string &ph = e.at("ph").as_string();
        pids.insert(e.at("pid").as_number());
        if (ph == "b") {
            ++request_spans;
        } else if (ph == "C") {
            ++counters;
        } else if (ph == "X" && e.at("pid").as_number() == 1) {
            ++device_slices;
        }
    }
    // Serving process 0 and the device-replay process 1 share the file.
    EXPECT_EQ(pids.count(0), 1u);
    EXPECT_EQ(pids.count(1), 1u);
    EXPECT_GT(request_spans, 0u);
    EXPECT_GT(device_slices, 0u);
    EXPECT_GT(counters, 0u);
}

TEST(ServeTraceExportTest, AsyncSpansBalance)
{
    TracedRun run = traced_run("overload", "a100");
    const JsonValue doc = json_parse(serve_trace_json(run.log));
    std::size_t begins = 0, ends = 0;
    for (const JsonValue &e : doc.at("traceEvents").array) {
        const std::string &ph = e.at("ph").as_string();
        if (ph == "b") {
            ++begins;
        } else if (ph == "e") {
            ++ends;
        }
    }
    EXPECT_GT(begins, 0u);
    EXPECT_EQ(begins, ends);
}

// ---- Failover ------------------------------------------------------------

TEST(FleetTraceTest, FailoverReplicaLogsAccountForEveryOffer)
{
    const TracedFleet fleet = traced_failover();
    ASSERT_GT(fleet.report.lost_in_flight, 0u);
    std::vector<FleetReplicaTrace> replicas;
    for (std::size_t k = 0; k < fleet.logs.size(); ++k) {
        SCOPED_TRACE("replica " + std::to_string(k));
        const ServeReport &rep = fleet.report.replicas[k];
        const std::vector<RequestSpans> spans =
            spans_of(fleet.logs[k].events());
        // Every request the replica was offered has a span with an
        // outcome: lost and drained ones included.
        EXPECT_EQ(spans.size(), rep.admission.offered);
        std::size_t lost = 0;
        std::size_t drained = 0;
        for (const RequestSpans &s : spans) {
            lost += s.outcome == "lost";
            drained += s.outcome == "drained";
        }
        EXPECT_EQ(lost, rep.lost_in_flight);
        EXPECT_EQ(drained, rep.admission.drained);
        replicas.push_back(
            {&fleet.logs[k], nullptr, "r" + std::to_string(k)});
    }

    // Both event-edge counters of every replica return to 0.
    std::map<std::string, double> last;
    const JsonValue doc = json_parse(fleet_trace_json(replicas));
    for (const JsonValue &e : doc.at("traceEvents").array) {
        if (e.at("ph").as_string() == "C") {
            last[e.at("name").as_string()] =
                e.at("args").at("value").as_number();
        }
    }
    for (std::size_t k = 0; k < replicas.size(); ++k) {
        for (const char *counter : {"in_flight", "queue_depth"}) {
            const std::string name =
                "r" + std::to_string(k) + "." + counter;
            ASSERT_EQ(last.count(name), 1u) << name;
            EXPECT_EQ(last[name], 0) << name;
        }
    }
}

TEST(FleetTraceTest, DrainedAndReofferedRequestKeepsBothSpans)
{
    // A replica killed with a request queued drains it; revived, it
    // takes the same request back. Its timeline shows both visits: one
    // span that ends "drained" and one that ends "completed".
    const ServeConfig config = serve_preset_by_name("tiny");
    TraceLog log;
    Server server(config, sim::device_spec_by_name("a100"));
    server.set_trace(&log);
    server.begin();
    Request r;
    r.id = 7;
    r.tenant = "alice";
    r.model = "tiny";
    r.slo = SloClass::kInteractive;
    r.valid_len = 32;
    r.deadline_us = kInf;
    server.ingest(r, 0);
    const std::vector<Request> drained = server.kill(10);
    ASSERT_EQ(drained.size(), 1u);
    server.revive();
    ASSERT_TRUE(server.reingest(drained.front(), 20));
    server.dispatch(20);
    TrafficSource source(config.traffic);
    const double done = server.busy_until();
    server.complete(source);
    EXPECT_EQ(server.finish(done).completed, 1u);

    std::vector<std::string> outcomes;
    const JsonValue doc = json_parse(serve_trace_json(log));
    for (const JsonValue &e : doc.at("traceEvents").array) {
        const JsonValue *args = e.find("args");
        if (e.at("ph").as_string() == "b" && args != nullptr &&
            e.at("id").as_number() == 7) {
            outcomes.push_back(args->at("outcome").as_string());
        }
    }
    EXPECT_EQ(outcomes,
              (std::vector<std::string>{"drained", "completed"}));
}

}  // namespace
}  // namespace multigrain::serve
