// mgtrace — end-to-end request tracing and SLO attribution for mgserve.
//
// Runs a serving preset with the request-level event log attached
// (src/serve/trace.h) and emits, per preset × device:
//   * the SLO-attribution report: every class's p50/p95/p99/mean latency
//     decomposed into admission / queue / batch-wait / pad / device
//     components, cross-checked ("reconciled") against the ServeReport
//     the same run produced — validated "mgtrace.report" v1 JSON;
//   * the raw structured event log (--events, JSONL, byte-identical
//     across same-seed runs);
//   * a correlated Perfetto timeline (--trace): async request spans,
//     batch/round lanes, serving counter tracks, and each round's gpusim
//     kernel replay overlaid at its dispatch offset;
//   * flight-recorder incident dumps: when an anomaly trigger fires
//     (shed burst, deadline-miss streak, empty-round stall), the last N
//     rounds of events freeze into a self-contained
//     "mgtrace.incident" JSON under --incident-dir.
//
// Every incident dump is round-tripped before exit: parse it back,
// rebuild the spans, and require byte-for-byte agreement with the spans
// the live ring produces. A reconciliation failure — span components
// that do not sum to the request latency, or a percentile that
// disagrees with the ServeReport — exits 2, distinct from usage errors.
//
// Typical uses:
//   mgtrace --preset overload --device a100     # watch the recorder fire
//   mgtrace --all --device rtx3090              # gate every preset
//   mgtrace --preset tiny --trace tiny.trace.json
//
// Exit codes: 0 clean, 1 usage/runtime error, 2 validation failed.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/error.h"
#include "common/json.h"
#include "common/logging.h"
#include "gpusim/device.h"
#include "profiler/export.h"
#include "serve/server.h"
#include "serve/trace.h"

namespace {

using namespace multigrain;

struct Options {
    std::string preset = "tiny";
    std::string device = "a100";
    bool all = false;  ///< Every registered preset on --device.
    std::uint64_t seed = 0;  ///< 0 keeps the preset's seed.
    /// Report path; "-" = default mgtrace_<preset>@<device>.report.json
    /// in $MULTIGRAIN_BENCH_DIR (or "."), empty disables.
    std::string report_path = "-";
    std::string events_path;    ///< JSONL event log (empty disables).
    std::string trace_path;     ///< Perfetto timeline (empty disables).
    std::string incident_dir = ".";  ///< Empty discards incident dumps.
    /// Base directory for artifacts; relative --report/--events/--trace
    /// paths and --incident-dir resolve under it. "." preserves the
    /// historical layout (and lets MULTIGRAIN_BENCH_DIR steer the
    /// default report path).
    std::string out_dir = ".";
    serve::TraceConfig trace;
    bool list = false;
    bool quiet = false;
};

void
usage(std::ostream &os)
{
    os << "usage: mgtrace [options]\n"
          "\n"
          "  --preset NAME   traffic preset (--list to enumerate; default"
          " tiny)\n"
          "  --all           trace every registered preset on --device\n"
          "  --device NAME   device spec (a100 | rtx3090; default a100)\n"
          "  --seed N        override the preset's traffic seed\n"
          "  --report PATH   mgtrace.report JSON (default\n"
          "                  $MULTIGRAIN_BENCH_DIR/mgtrace_<preset>@"
          "<device>.report.json;\n"
          "                  empty string disables)\n"
          "  --events PATH   write the structured event log (JSONL)\n"
          "  --trace PATH    write the correlated Perfetto timeline\n"
          "  --incident-dir DIR\n"
          "                  where flight-recorder dumps go (default .;"
          " empty discards)\n"
          "  --out-dir DIR   directory for artifacts (default .; relative\n"
          "                  paths above land under it)\n"
          "  --ring N        flight-recorder window, rounds (default 8)\n"
          "  --shed-burst N  sheds within --shed-window triggering an"
          " incident (default 8)\n"
          "  --shed-window US\n"
          "                  shed-burst window (default 1000)\n"
          "  --miss-streak N consecutive deadline misses triggering an"
          " incident (default 4)\n"
          "  --stall-us US   device idle gap between rounds triggering an"
          " incident (default off)\n"
          "  --list          list registered presets and exit\n"
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
        } else if (arg == "--seed") {
            opt.seed = bench::parse_unsigned(arg, next());
        } else if (arg == "--report") {
            opt.report_path = next();
        } else if (arg == "--events") {
            opt.events_path = next();
        } else if (arg == "--trace") {
            opt.trace_path = next();
        } else if (arg == "--incident-dir") {
            opt.incident_dir = next();
        } else if (arg == "--out-dir") {
            opt.out_dir = next();
            MG_CHECK(!opt.out_dir.empty()) << "--out-dir must be non-empty";
        } else if (arg == "--ring") {
            opt.trace.ring_rounds =
                bench::parse_unsigned<std::size_t>(arg, next());
        } else if (arg == "--shed-burst") {
            opt.trace.shed_burst = bench::parse_signed<int>(arg, next());
        } else if (arg == "--shed-window") {
            opt.trace.shed_window_us = bench::parse_double(arg, next());
        } else if (arg == "--miss-streak") {
            opt.trace.miss_streak = bench::parse_signed<int>(arg, next());
        } else if (arg == "--stall-us") {
            opt.trace.stall_us = bench::parse_double(arg, next());
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

void
print_breakdown_row(const char *label, const serve::SpanBreakdown &b)
{
    std::printf("%-14s %10.1f %10.1f %10.1f %10.1f %10.1f %10.1f\n",
                label, b.total_us, b.admission_us, b.queue_us,
                b.batch_wait_us, b.pad_us, b.device_us);
}

void
print_report(const serve::TraceReport &report)
{
    std::printf("\nmgtrace: preset %s on %s — %zu events, %zu requests "
                "(%zu completed, %zu shed, %zu aged out, %zu deadline "
                "misses)\n",
                report.info.preset.c_str(), report.info.device.c_str(),
                report.events, report.requests, report.completed,
                report.shed, report.aged_out, report.deadline_miss);
    for (const serve::ClassAttribution &attr : report.classes) {
        if (attr.count == 0) {
            continue;
        }
        std::printf("\n%s (%zu completed)\n",
                    to_string(static_cast<serve::SloClass>(attr.slo)),
                    attr.count);
        std::printf("%-14s %10s %10s %10s %10s %10s %10s\n", "percentile",
                    "total", "admission", "queue", "batch_wait", "pad",
                    "device");
        print_breakdown_row("mean", attr.mean);
        print_breakdown_row("p50", attr.p50);
        print_breakdown_row("p95", attr.p95);
        print_breakdown_row("p99", attr.p99);
    }
    if (!report.incidents.empty()) {
        std::printf("\nflight recorder: %zu incident(s)\n",
                    report.incidents.size());
        for (const serve::Incident &inc : report.incidents) {
            std::printf("  %-20s t=%.1f us  %s (%zu events, seq %llu–"
                        "%llu)\n",
                        inc.trigger.c_str(), inc.t_us,
                        inc.detail.c_str(), inc.events.size(),
                        static_cast<unsigned long long>(inc.first_seq),
                        static_cast<unsigned long long>(inc.last_seq));
        }
    }
}

/// Incident self-test: the dump must replay — parse the JSON back and
/// require the rebuilt spans to serialize identically to the spans of
/// the in-memory ring copy it froze.
void
verify_incident_replay(const serve::Incident &incident,
                       const std::string &json)
{
    const serve::Incident parsed = serve::incident_from_json(json);
    const std::vector<serve::RequestSpans> live =
        serve::spans_from_events(incident.events);
    const std::vector<serve::RequestSpans> replayed =
        serve::spans_from_events(parsed.events);
    if (live.size() != replayed.size()) {
        throw ValidationError(
            "incident replay span count mismatch: live " +
            std::to_string(live.size()) + " vs replayed " +
            std::to_string(replayed.size()));
    }
    for (std::size_t i = 0; i < live.size(); ++i) {
        const serve::RequestSpans &a = live[i];
        const serve::RequestSpans &b = replayed[i];
        const bool same =
            a.request == b.request && a.outcome == b.outcome &&
            a.arrive_us == b.arrive_us && a.admit_us == b.admit_us &&
            a.batched_us == b.batched_us &&
            a.dispatched_us == b.dispatched_us &&
            a.finish_us == b.finish_us && a.pad_us == b.pad_us &&
            a.batch == b.batch && a.round == b.round;
        if (!same) {
            throw ValidationError(
                "incident replay diverged on request " +
                std::to_string(a.request));
        }
    }
}

int
run_one(const Options &opt, const std::string &preset_name)
{
    sim::DeviceSpec device;
    const serve::ServeConfig config = bench::validated_serve_config(
        preset_name, opt.device, &device, opt.seed);
    const serve::TraceRunInfo info{preset_name, opt.device,
                                   config.traffic.seed};

    serve::TraceConfig trace_config = opt.trace;
    trace_config.retain_full = true;
    trace_config.capture_sim = !opt.trace_path.empty();
    serve::TraceLog log(trace_config);

    serve::Server server(config, device);
    server.set_trace(&log);
    const serve::ServeReport report = server.run();

    const serve::TraceReport trace_report =
        serve::build_trace_report(log, report, info);
    if (!opt.quiet) {
        print_report(trace_report);
    } else {
        std::printf("mgtrace: %s@%s — %zu events, %zu spans, %zu "
                    "incident(s), %s\n",
                    preset_name.c_str(), opt.device.c_str(),
                    trace_report.events, trace_report.requests,
                    trace_report.incidents.size(),
                    trace_report.reconciled() ? "reconciled"
                                              : "RECONCILE FAILED");
    }

    // ---- Artifacts ----------------------------------------------------
    std::string report_path = opt.report_path;
    if (report_path == "-") {
        report_path = bench::default_artifact_dir(opt.out_dir) + "/mgtrace_" +
                      preset_name + "@" + opt.device + ".report.json";
    } else {
        report_path = bench::resolve_out_path(opt.out_dir, report_path);
    }
    if (!report_path.empty()) {
        const std::string json = serve::trace_report_json(trace_report);
        prof::write_text_file(report_path, json + "\n");
        json_parse(json);  // Certify before exit, the mgprof way.
        if (!opt.quiet) {
            std::fprintf(stderr, "mgtrace: wrote %s\n",
                         report_path.c_str());
        }
    }
    if (!opt.events_path.empty()) {
        const std::string events_path =
            bench::resolve_out_path(opt.out_dir, opt.events_path);
        std::ostringstream os;
        serve::write_events_jsonl(log.events(), os);
        prof::write_text_file(events_path, os.str());
        if (!opt.quiet) {
            std::fprintf(stderr, "mgtrace: wrote %s (%zu events)\n",
                         events_path.c_str(), log.events().size());
        }
    }
    if (!opt.trace_path.empty()) {
        const std::string trace_path =
            bench::resolve_out_path(opt.out_dir, opt.trace_path);
        serve::write_serve_trace_file(log, trace_path);
        json_parse(serve::serve_trace_json(log));
        if (!opt.quiet) {
            std::fprintf(stderr,
                         "mgtrace: wrote %s (open in ui.perfetto.dev)\n",
                         trace_path.c_str());
        }
    }
    int incident_index = 0;
    for (const serve::Incident &inc : log.incidents()) {
        const std::string json =
            serve::incident_to_json(inc, info, trace_config);
        verify_incident_replay(inc, json);
        if (!opt.incident_dir.empty()) {
            const std::string path =
                bench::resolve_out_path(opt.out_dir, opt.incident_dir) + "/incident_" +
                preset_name + "@" +
                opt.device + "_" + std::to_string(incident_index) +
                ".json";
            prof::write_text_file(path, json + "\n");
            if (!opt.quiet) {
                std::fprintf(stderr, "mgtrace: wrote %s (%s)\n",
                             path.c_str(), inc.trigger.c_str());
            }
        }
        ++incident_index;
    }

    // ---- The gate -----------------------------------------------------
    if (!trace_report.reconciled()) {
        std::string what = "trace does not reconcile with ServeReport (" +
                           preset_name + "@" + opt.device + "):";
        for (const std::string &e : trace_report.reconcile_errors) {
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
        for (const serve::ServePresetInfo &preset :
             serve::serve_presets()) {
            std::printf("%-10s %s\n", preset.name, preset.description);
        }
        return 0;
    }
    if (!opt.all) {
        return run_one(opt, opt.preset);
    }
    return bench::run_preset_matrix(
        bench::serve_preset_names(),
        [&opt](const std::string &name) { return run_one(opt, name); });
}

}  // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parse_args(argc, argv));
    } catch (const ValidationError &e) {
        std::fprintf(stderr, "mgtrace: validation failed: %s\n",
                     e.what());
        return 2;
    } catch (const Error &e) {
        std::fprintf(stderr, "mgtrace: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mgtrace: %s\n", e.what());
        return 1;
    }
}
