// Robustness guard for the readers that take bytes from outside the
// process: every truncation and a seeded set of 3-byte garbles of a real
// document must be either accepted or rejected with multigrain::Error —
// never another exception type, never a crash (run it under ASan/UBSan).

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"
#include "gpusim/device.h"
#include "profiler/history.h"
#include "serve/server.h"
#include "serve/trace.h"

namespace multigrain {
namespace {

constexpr int kGarbles = 1000;

/// Every strict prefix of `doc`, then kGarbles copies with three bytes
/// overwritten at seeded positions.
std::vector<std::string>
mutations(const std::string &doc, std::uint64_t seed)
{
    std::vector<std::string> out;
    for (std::size_t n = 0; n < doc.size(); ++n) {
        out.push_back(doc.substr(0, n));
    }
    Rng rng(seed);
    for (int i = 0; i < kGarbles; ++i) {
        std::string garbled = doc;
        for (int b = 0; b < 3; ++b) {
            garbled[rng.next_below(garbled.size())] =
                static_cast<char>(rng.next_below(256));
        }
        out.push_back(std::move(garbled));
    }
    return out;
}

struct Outcome {
    int accepted = 0;
    int rejected = 0;
};

/// Feeds `doc` and its mutations to `read`; any exception other than
/// Error fails the test. Returns how the mutations fared.
Outcome
feed(const std::string &doc, std::uint64_t seed,
     const std::function<void(const std::string &)> &read)
{
    EXPECT_NO_THROW(read(doc)) << "the unmutated document must read";
    Outcome outcome;
    for (const std::string &input : mutations(doc, seed)) {
        try {
            read(input);
            ++outcome.accepted;
        } catch (const Error &) {
            ++outcome.rejected;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "foreign exception on a " << input.size()
                          << "-byte input: " << e.what();
        }
    }
    return outcome;
}

/// A memtight serving run — the source of the bench document and of
/// flight-recorder incidents (it sheds on memory; the ring keeps one
/// round so the dump stays small).
struct ServedMemtight {
    serve::TraceConfig trace_config;
    serve::TraceLog log;
    serve::ServeReport report;

    ServedMemtight() : trace_config(make_trace_config()), log(trace_config)
    {
        const serve::ServeConfig config =
            serve::serve_preset_by_name("memtight");
        serve::Server server(config, sim::DeviceSpec::a100());
        server.set_trace(&log);
        report = server.run();
    }

    static serve::TraceConfig
    make_trace_config()
    {
        serve::TraceConfig c;
        c.ring_rounds = 1;
        return c;
    }
};

const ServedMemtight &
served_memtight()
{
    static const ServedMemtight *run = new ServedMemtight;
    return *run;
}

std::string
bench_document()
{
    return serve::serve_bench_run(served_memtight().report, "a100").to_json();
}

TEST(ReaderRobustnessTest, JsonParse)
{
    const std::string doc = bench_document();
    const Outcome o = feed(doc, 1, [](const std::string &text) {
        json_parse(text);
    });
    // A strict prefix of an object is never a complete document.
    EXPECT_GE(o.rejected, static_cast<int>(doc.size()));
}

TEST(ReaderRobustnessTest, BenchRunFromJson)
{
    const std::string doc = bench_document();
    const Outcome o = feed(doc, 2, [](const std::string &text) {
        prof::bench_run_from_json(text);
    });
    EXPECT_GE(o.rejected, static_cast<int>(doc.size()));
}

/// A hand-built incident holding what a replica kill logs: a
/// re-arrival whose arrival_us predates its t_us, a batch with its
/// footprint, a request lost on the device and one drained from the
/// queue.
std::string
failover_incident_document()
{
    serve::TraceLog log;
    const auto event = [&log](serve::TraceEventKind kind, double t_us,
                              std::int64_t request) {
        serve::TraceEvent e;
        e.kind = kind;
        e.t_us = t_us;
        e.request = request;
        e.batch = 0;
        e.round = 0;
        if (kind == serve::TraceEventKind::kArrive) {
            e.tenant = "t";
            e.model = "tiny";
            e.slo = 1;
            e.valid_len = 30;
            e.deadline_us = 500;
            e.arrival_us = request == 1 ? 4 : t_us;
        }
        e.bucket = 64;
        e.planned_batch = 1;
        e.actual_batch = 1;
        e.footprint_bytes = 4096;
        e.hbm_bytes = 4096;
        log.record(e);
    };
    using Kind = serve::TraceEventKind;
    event(Kind::kArrive, 10, 1);
    event(Kind::kAdmit, 10, 1);
    event(Kind::kArrive, 11, 2);
    event(Kind::kAdmit, 11, 2);
    event(Kind::kBatchForm, 12, 1);
    event(Kind::kRoundDispatch, 12, -1);
    event(Kind::kLost, 20, 1);
    event(Kind::kBatchDone, 20, -1);
    event(Kind::kRoundDone, 20, -1);
    event(Kind::kDrain, 20, 2);
    serve::Incident incident;
    incident.trigger = "replica_kill";
    incident.t_us = 20;
    incident.last_seq = log.events().back().seq;
    incident.events = log.events();
    return serve::incident_to_json(incident, {"failover", "a100", 0},
                                   log.config());
}

TEST(ReaderRobustnessTest, IncidentFromJson)
{
    const ServedMemtight &run = served_memtight();
    ASSERT_FALSE(run.log.incidents().empty());
    const std::string doc = serve::incident_to_json(
        run.log.incidents().front(), {"memtight", "a100", 0}, run.trace_config);
    const Outcome o = feed(doc, 4, [](const std::string &text) {
        serve::incident_from_json(text);
    });
    EXPECT_GE(o.rejected, static_cast<int>(doc.size()));

    // The failover kinds and fields read back and fold into their spans;
    // their mutations fail with Error like any other.
    const std::string failover = failover_incident_document();
    const auto fold = [](const std::string &text) {
        serve::ServeFold fold({});
        for (const serve::TraceEvent &e :
             serve::incident_from_json(text).events) {
            fold.apply(e);
        }
        return fold.spans();
    };
    const std::vector<serve::RequestSpans> spans = fold(failover);
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].outcome, "lost");
    EXPECT_EQ(spans[1].outcome, "drained");
    const Outcome f = feed(failover, 5, fold);
    EXPECT_GE(f.rejected, static_cast<int>(failover.size()));
}

}  // namespace
}  // namespace multigrain
