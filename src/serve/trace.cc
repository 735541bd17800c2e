#include "serve/trace.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "gpusim/trace.h"
#include "profiler/export.h"
#include "profiler/history.h"
#include "serve/cost.h"
#include "serve/server.h"

namespace multigrain::serve {

// ---- Event names --------------------------------------------------------

namespace {

/// Every kind with its log name, in declaration order.
constexpr std::pair<TraceEventKind, const char *> kKindNames[] = {
    {TraceEventKind::kArrive, "arrive"},
    {TraceEventKind::kAdmit, "admit"},
    {TraceEventKind::kShed, "shed"},
    {TraceEventKind::kShedRateLimit, "shed_ratelimit"},
    {TraceEventKind::kAgeOut, "age_out"},
    {TraceEventKind::kBatchForm, "batch_form"},
    {TraceEventKind::kRoundDispatch, "round_dispatch"},
    {TraceEventKind::kBatchDone, "batch_done"},
    {TraceEventKind::kComplete, "complete"},
    {TraceEventKind::kRoundDone, "round_done"},
    {TraceEventKind::kLost, "lost"},
    {TraceEventKind::kDrain, "drain"},
};

}  // namespace

const char *
to_string(TraceEventKind kind)
{
    return kKindNames[static_cast<int>(kind)].second;
}

TraceEventKind
trace_event_kind_by_name(const std::string &name)
{
    for (const auto &[kind, kind_name] : kKindNames) {
        if (name == kind_name) {
            return kind;
        }
    }
    throw Error("unknown trace event kind \"" + name + "\"");
}

// ---- Event serialization ------------------------------------------------

namespace {

/// Emits one event object. Field presence is a deterministic function
/// of the kind, so same-seed logs are byte-identical; +inf deadlines
/// (classes without a budget) are represented by omitting the field.
void
write_event(JsonWriter &w, const TraceEvent &e)
{
    using Kind = TraceEventKind;
    const Kind k = e.kind;
    w.begin_object();
    w.field("seq", static_cast<std::int64_t>(e.seq));
    w.field("kind", to_string(k));
    w.field("t_us", e.t_us);
    const bool batch = k == Kind::kBatchForm || k == Kind::kBatchDone ||
                       k == Kind::kComplete || k == Kind::kLost;
    const bool round =
        batch || k == Kind::kRoundDispatch || k == Kind::kRoundDone;
    if (k != Kind::kRoundDispatch && k != Kind::kBatchDone &&
        k != Kind::kRoundDone) {
        w.field("request", e.request);
    }
    if (batch) {
        w.field("batch", e.batch);
    }
    if (round) {
        w.field("round", e.round);
    }
    switch (k) {
      case Kind::kArrive:
        w.field("tenant", e.tenant);
        w.field("model", e.model);
        w.field("slo", e.slo);
        w.field("valid_len", static_cast<std::int64_t>(e.valid_len));
        if (std::isfinite(e.deadline_us)) {
            w.field("deadline_us", e.deadline_us);
        }
        w.field("arrival_us", e.arrival_us);
        break;
      case Kind::kBatchForm:
        w.field("model", e.model);
        w.field("bucket", static_cast<std::int64_t>(e.bucket));
        w.field("planned_batch", e.planned_batch);
        w.field("actual_batch", e.actual_batch);
        w.field("footprint_bytes",
                static_cast<std::int64_t>(e.footprint_bytes));
        break;
      case Kind::kRoundDispatch:
        w.field("actual_batch", e.actual_batch);
        w.field("hbm_bytes", static_cast<std::int64_t>(e.hbm_bytes));
        break;
      case Kind::kAdmit:
      case Kind::kShed:
      case Kind::kShedRateLimit:
        w.field("fill", e.fill);
        if (k == Kind::kShed) {
            w.field("flag", e.flag);
        }
        break;
      case Kind::kComplete:
        w.field("flag", e.flag);
        break;
      default:
        break;
    }
    w.end_object();
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// `v` as an integer. Casting a double outside an integer's range is
/// undefined, so a field outside [-2^63, 2^63), or NaN, throws Error.
std::int64_t
checked_integer(double v, const char *field)
{
    MG_CHECK(v >= -9.2e18 && v <= 9.2e18)
        << "field \"" << field << "\" is not an integer in range";
    return static_cast<std::int64_t>(v);
}

}  // namespace

std::string
event_to_json(const TraceEvent &event)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        write_event(w, event);
    }
    return os.str();
}

TraceEvent
event_from_json(const JsonValue &doc)
{
    MG_CHECK(doc.is_object()) << "trace event must be a JSON object";
    TraceEvent e;
    e.kind = trace_event_kind_by_name(doc.at("kind").as_string());
    e.t_us = doc.at("t_us").as_number();
    const auto number = [&doc](const char *k, double fallback) {
        const JsonValue *v = doc.find(k);
        return v != nullptr ? v->as_number() : fallback;
    };
    const auto integer = [&number](const char *k, double fallback) {
        return checked_integer(number(k, fallback), k);
    };
    e.seq = static_cast<std::uint64_t>(
        checked_integer(doc.at("seq").as_number(), "seq"));
    e.request = integer("request", -1);
    e.batch = integer("batch", -1);
    e.round = integer("round", -1);
    if (const JsonValue *v = doc.find("tenant")) {
        e.tenant = v->as_string();
    }
    if (const JsonValue *v = doc.find("model")) {
        e.model = v->as_string();
    }
    e.slo = static_cast<int>(integer("slo", -1));
    e.valid_len = integer("valid_len", 0);
    e.deadline_us = e.kind == TraceEventKind::kArrive
                        ? number("deadline_us", kInf)
                        : number("deadline_us", 0);
    // A log written before re-arrivals carried their original arrival
    // has the arrival in t_us.
    if (e.kind == TraceEventKind::kArrive) {
        e.arrival_us = number("arrival_us", e.t_us);
    }
    e.bucket = integer("bucket", 0);
    e.planned_batch = static_cast<int>(integer("planned_batch", 0));
    e.actual_batch = static_cast<int>(integer("actual_batch", 0));
    e.hbm_bytes = static_cast<std::uint64_t>(integer("hbm_bytes", 0));
    e.footprint_bytes =
        static_cast<std::uint64_t>(integer("footprint_bytes", 0));
    if (const JsonValue *v = doc.find("flag")) {
        e.flag = v->as_bool();
    }
    e.fill = number("fill", 0);
    return e;
}

void
write_events_jsonl(const std::vector<TraceEvent> &events, std::ostream &os)
{
    for (const TraceEvent &e : events) {
        os << event_to_json(e) << "\n";
    }
}

// ---- TraceLog + flight recorder -----------------------------------------

TraceLog::TraceLog(TraceConfig config) : config_(config)
{
    MG_CHECK(config_.ring_rounds > 0)
        << "flight recorder needs at least one round of window";
}

void
TraceLog::record(TraceEvent event, const sim::SimResult *round_sim)
{
    event.seq = next_seq_++;
    if (round_sim != nullptr && config_.capture_sim) {
        round_sims_.push_back({event.round, event.t_us, *round_sim});
    }
    if (config_.retain_full) {
        events_.push_back(event);
    }
    ring_.push_back(event);
    if (event.kind == TraceEventKind::kRoundDispatch) {
        round_start_seqs_.push_back(event.seq);
        if (round_start_seqs_.size() > config_.ring_rounds) {
            // The ring keeps the last ring_rounds rounds: drop the
            // oldest retained round and every event before the new
            // oldest round's dispatch.
            round_start_seqs_.pop_front();
            while (!ring_.empty() &&
                   ring_.front().seq < round_start_seqs_.front()) {
                ring_.pop_front();
            }
        }
    }
    detect(ring_.back());
}

void
TraceLog::detect(const TraceEvent &event)
{
    switch (event.kind) {
      case TraceEventKind::kAdmit:
        ratelimit_run_ = 0;
        break;
      case TraceEventKind::kShedRateLimit: {
        ++ratelimit_run_;
        if (config_.ratelimit_streak > 0 &&
            ratelimit_run_ >= config_.ratelimit_streak) {
            std::ostringstream os;
            os << ratelimit_run_
               << " consecutive token-bucket sheds";
            fire("ratelimit_burst", event.t_us, os.str());
            ratelimit_run_ = 0;
        }
        break;
      }
      case TraceEventKind::kShed: {
        ratelimit_run_ = 0;
        recent_shed_us_.push_back(event.t_us);
        while (!recent_shed_us_.empty() &&
               recent_shed_us_.front() <
                   event.t_us - config_.shed_window_us) {
            recent_shed_us_.pop_front();
        }
        if (config_.shed_burst > 0 &&
            recent_shed_us_.size() >=
                static_cast<std::size_t>(config_.shed_burst)) {
            std::ostringstream os;
            os << recent_shed_us_.size() << " sheds within "
               << config_.shed_window_us << " us";
            fire("shed_burst", event.t_us, os.str());
            recent_shed_us_.clear();  // Re-arm from an empty window.
        }
        break;
      }
      case TraceEventKind::kComplete: {
        if (event.flag) {
            miss_run_ = 0;
            break;
        }
        ++miss_run_;
        if (config_.miss_streak > 0 && miss_run_ >= config_.miss_streak) {
            std::ostringstream os;
            os << miss_run_ << " consecutive deadline misses";
            fire("deadline_miss_streak", event.t_us, os.str());
            miss_run_ = 0;
        }
        break;
      }
      case TraceEventKind::kRoundDispatch: {
        if (config_.stall_us > 0 && last_round_done_us_ >= 0 &&
            event.t_us - last_round_done_us_ > config_.stall_us) {
            std::ostringstream os;
            os << "device idle " << event.t_us - last_round_done_us_
               << " us between rounds";
            fire("empty_round_stall", event.t_us, os.str());
        }
        break;
      }
      case TraceEventKind::kRoundDone:
        last_round_done_us_ = event.t_us;
        break;
      default:
        break;
    }
}

void
TraceLog::fire(const char *trigger, double t_us, std::string detail)
{
    Incident inc;
    inc.trigger = trigger;
    inc.t_us = t_us;
    inc.detail = std::move(detail);
    MG_CHECK(!ring_.empty()) << "anomaly fired on an empty ring";
    inc.first_seq = ring_.front().seq;
    inc.last_seq = ring_.back().seq;
    inc.events.assign(ring_.begin(), ring_.end());
    incidents_.push_back(std::move(inc));
}

// ---- Incident serialization ---------------------------------------------

std::string
incident_to_json(const Incident &incident, const TraceRunInfo &info,
                 const TraceConfig &config)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.begin_object();
        w.field("schema", prof::kServeIncidentSchema);
        w.field("schema_version", prof::kServeIncidentVersion);
        w.field("preset", info.preset);
        w.field("device", info.device);
        w.field("seed", static_cast<std::int64_t>(info.seed));
        w.field("trigger", incident.trigger);
        w.field("t_us", incident.t_us);
        w.field("detail", incident.detail);
        w.field("first_seq", static_cast<std::int64_t>(incident.first_seq));
        w.field("last_seq", static_cast<std::int64_t>(incident.last_seq));
        w.key("thresholds");
        w.begin_object();
        w.field("ring_rounds", static_cast<std::int64_t>(config.ring_rounds));
        w.field("shed_burst", config.shed_burst);
        w.field("shed_window_us", config.shed_window_us);
        w.field("miss_streak", config.miss_streak);
        w.field("stall_us", config.stall_us);
        w.field("ratelimit_streak", config.ratelimit_streak);
        w.end_object();
        w.key("events");
        w.begin_array();
        for (const TraceEvent &e : incident.events) {
            write_event(w, e);
        }
        w.end_array();
        w.end_object();
    }
    return os.str();
}

Incident
incident_from_json(const std::string &text)
{
    const JsonValue doc = json_parse(text);
    MG_CHECK(doc.is_object()) << "incident must be a JSON object";
    MG_CHECK(doc.at("schema").as_string() == prof::kServeIncidentSchema)
        << "not an mgtrace.incident document";
    MG_CHECK(doc.at("schema_version").as_number() ==
             prof::kServeIncidentVersion)
        << "unsupported incident schema version";
    Incident inc;
    inc.trigger = doc.at("trigger").as_string();
    inc.t_us = doc.at("t_us").as_number();
    inc.detail = doc.at("detail").as_string();
    inc.first_seq = static_cast<std::uint64_t>(
        checked_integer(doc.at("first_seq").as_number(), "first_seq"));
    inc.last_seq = static_cast<std::uint64_t>(
        checked_integer(doc.at("last_seq").as_number(), "last_seq"));
    const JsonValue &events = doc.at("events");
    MG_CHECK(events.is_array()) << "incident events must be an array";
    inc.events.reserve(events.array.size());
    for (const JsonValue &e : events.array) {
        inc.events.push_back(event_from_json(e));
    }
    return inc;
}

// ---- SLO attribution + reconciliation -----------------------------------

namespace {

/// The components of a breakdown with their report names, total first.
constexpr std::pair<const char *, double SpanBreakdown::*> kComponents[] = {
    {"total_us", &SpanBreakdown::total_us},
    {"admission_us", &SpanBreakdown::admission_us},
    {"queue_us", &SpanBreakdown::queue_us},
    {"batch_wait_us", &SpanBreakdown::batch_wait_us},
    {"pad_us", &SpanBreakdown::pad_us},
    {"device_us", &SpanBreakdown::device_us}};

/// One span's latency split into its components.
SpanBreakdown
components(const RequestSpans &s)
{
    return {s.latency_us(), s.admission_us(), s.queue_us(),
            s.batch_wait_us(), s.pad_us, s.compute_us()};
}

/// Interpolated percentile breakdown over completed spans sorted by
/// (latency, request id) — the same closest-ranks formula as
/// prof::percentile, applied to every component between the same two
/// ranked requests, so the component interpolations sum to the latency
/// interpolation and the total reconciles with the ServeReport figure.
SpanBreakdown
breakdown_at(const std::vector<const RequestSpans *> &sorted, double p)
{
    SpanBreakdown b;
    if (sorted.empty()) {
        return b;
    }
    const std::size_t n = sorted.size();
    const double rank = p / 100.0 * static_cast<double>(n - 1);
    const std::size_t lo =
        std::min(static_cast<std::size_t>(std::floor(rank)), n - 1);
    const std::size_t hi = std::min(lo + 1, n - 1);
    const double frac = rank - static_cast<double>(lo);
    const SpanBreakdown a = components(*sorted[lo]);
    const SpanBreakdown z = components(*sorted[hi]);
    for (const auto &[name, c] : kComponents) {
        b.*c = a.*c + (z.*c - a.*c) * frac;
    }
    return b;
}

SpanBreakdown
breakdown_mean(const std::vector<const RequestSpans *> &spans)
{
    SpanBreakdown b;
    for (const RequestSpans *s : spans) {
        const SpanBreakdown one = components(*s);
        for (const auto &[name, c] : kComponents) {
            b.*c += one.*c;
        }
    }
    for (const auto &[name, c] : kComponents) {
        b.*c /= spans.empty() ? 1.0 : static_cast<double>(spans.size());
    }
    return b;
}

void
write_breakdown(JsonWriter &w, const char *key, const SpanBreakdown &b)
{
    w.key(key);
    w.begin_object();
    for (const auto &[name, c] : kComponents) {
        w.field(name, b.*c);
    }
    w.end_object();
}

}  // namespace

TraceReport
build_trace_report(const TraceLog &log, const ServeReport &report,
                   const TraceRunInfo &info)
{
    TraceReport tr;
    tr.info = info;
    tr.events = log.events().size();
    tr.incidents = log.incidents();
    Mismatches m{"trace", "ServeReport", {}};

    ServeFold fold({});
    for (const TraceEvent &e : log.events()) {
        fold.apply(e);
    }
    const std::vector<RequestSpans> &spans = fold.spans();
    tr.requests = spans.size();

    std::vector<const RequestSpans *> completed[kNumSloClasses];
    std::vector<const RequestSpans *> all_completed;
    for (const RequestSpans &s : spans) {
        // Boundary chaining: consecutive timestamps, so the components
        // telescope to the latency exactly. A violation means the
        // instrumentation emitted out-of-order times.
        const std::string request = "request " + std::to_string(s.request);
        m.check(s.arrive_us <= s.admit_us && s.admit_us <= s.batched_us &&
                    s.batched_us <= s.dispatched_us &&
                    s.dispatched_us <= s.finish_us,
                request + ": span boundaries not monotone");
        m.check(s.pad_us >= 0 && s.pad_us <= s.device_us(),
                request + ": pad outside device span");
        m.close(request + " component sum",
                s.admission_us() + s.queue_us() + s.batch_wait_us() +
                    s.pad_us + s.compute_us(),
                s.latency_us());
        if (s.outcome == "shed") {
            ++tr.shed;
        } else if (s.outcome == "rate_limited") {
            ++tr.rate_limited;
        } else if (s.outcome == "aged_out") {
            ++tr.aged_out;
        } else if (s.outcome == "completed") {
            ++tr.completed;
            if (!s.deadline_met) {
                ++tr.deadline_miss;
            }
            completed[s.slo].push_back(&s);  // The fold checked the class.
            all_completed.push_back(&s);
        }
    }
    tr.rounds = report.rounds;

    // ---- Counters against the admission queue's own (exact) -----------
    const AdmissionStats &adm = report.admission;
    m.exact("offered requests", tr.requests, adm.offered);
    m.exact("shed requests", tr.shed + tr.rate_limited, adm.rejected);
    m.exact("rate-limited requests", tr.rate_limited, adm.shed_ratelimit);
    m.exact("aged-out requests", tr.aged_out, adm.timed_out);

    // ---- Latency figures: a second formula, within tolerance ----------
    const auto sort_by_latency =
        [](std::vector<const RequestSpans *> &v) {
            std::sort(v.begin(), v.end(),
                      [](const RequestSpans *a, const RequestSpans *b) {
                          if (a->latency_us() != b->latency_us()) {
                              return a->latency_us() < b->latency_us();
                          }
                          return a->request < b->request;
                      });
        };
    sort_by_latency(all_completed);
    m.close("p50", breakdown_at(all_completed, 50).total_us,
            report.latency.p50);
    m.close("p95", breakdown_at(all_completed, 95).total_us,
            report.latency.p95);
    m.close("p99", breakdown_at(all_completed, 99).total_us,
            report.latency.p99);

    for (int c = 0; c < kNumSloClasses; ++c) {
        ClassAttribution &attr = tr.classes[c];
        attr.slo = c;
        attr.count = completed[c].size();
        sort_by_latency(completed[c]);
        attr.mean = breakdown_mean(completed[c]);
        attr.p50 = breakdown_at(completed[c], 50);
        attr.p95 = breakdown_at(completed[c], 95);
        attr.p99 = breakdown_at(completed[c], 99);

        const prof::LatencySummary &want = report.latency_by_class[c];
        const std::string cls =
            std::string(to_string(static_cast<SloClass>(c)));
        m.close(cls + " mean", attr.mean.total_us, want.mean);
        m.close(cls + " p50", attr.p50.total_us, want.p50);
        m.close(cls + " p95", attr.p95.total_us, want.p95);
        m.close(cls + " p99", attr.p99.total_us, want.p99);
    }
    tr.reconcile_errors = std::move(m.errors);
    return tr;
}

std::string
trace_report_json(const TraceReport &report)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.begin_object();
        w.field("schema", prof::kServeTraceReportSchema);
        w.field("schema_version", prof::kServeTraceReportVersion);
        w.key("manifest");
        prof::write_manifest(w,
                             prof::RunManifest::collect(report.info.device));
        w.field("preset", report.info.preset);
        w.field("device", report.info.device);
        w.field("seed", static_cast<std::int64_t>(report.info.seed));
        w.field("events", static_cast<std::int64_t>(report.events));
        w.field("requests", static_cast<std::int64_t>(report.requests));
        w.field("completed", static_cast<std::int64_t>(report.completed));
        w.field("shed", static_cast<std::int64_t>(report.shed));
        w.field("rate_limited",
                static_cast<std::int64_t>(report.rate_limited));
        w.field("aged_out", static_cast<std::int64_t>(report.aged_out));
        w.field("deadline_miss",
                static_cast<std::int64_t>(report.deadline_miss));
        w.field("rounds", report.rounds);
        write_reconcile(w, "reconciled", report.reconcile_errors);
        w.key("classes");
        w.begin_array();
        for (const ClassAttribution &attr : report.classes) {
            w.begin_object();
            w.field("class",
                    to_string(static_cast<SloClass>(attr.slo)));
            w.field("count", static_cast<std::int64_t>(attr.count));
            write_breakdown(w, "mean", attr.mean);
            write_breakdown(w, "p50", attr.p50);
            write_breakdown(w, "p95", attr.p95);
            write_breakdown(w, "p99", attr.p99);
            w.end_object();
        }
        w.end_array();
        w.key("incidents");
        w.begin_array();
        for (const Incident &inc : report.incidents) {
            w.begin_object();
            w.field("trigger", inc.trigger);
            w.field("t_us", inc.t_us);
            w.field("detail", inc.detail);
            w.field("first_seq", static_cast<std::int64_t>(inc.first_seq));
            w.field("last_seq", static_cast<std::int64_t>(inc.last_seq));
            w.field("events",
                    static_cast<std::int64_t>(inc.events.size()));
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    return os.str();
}

// ---- Perfetto export ----------------------------------------------------

namespace {

constexpr int kRoundLane = 5;
constexpr int kBatchLaneBase = 10;

/// Where one replica's tracks land in the shared timeline: its serving
/// lanes under `serve_pid`, its gpusim replays under `device_pid`, and
/// every track name / async category prefixed with `prefix` ("" for the
/// single-server export — which keeps it byte-identical to the
/// pre-fleet output).
struct TrackIds {
    int serve_pid = 0;
    int device_pid = 1;
    std::string prefix;
};

void
meta_name(JsonWriter &w, int pid, int tid, const char *what,
          const std::string &name)
{
    w.begin_object();
    w.field("ph", "M");
    w.field("pid", pid);
    w.field("tid", tid);
    w.field("name", what);
    w.key("args");
    w.begin_object();
    w.field("name", name);
    w.end_object();
    w.end_object();
}

/// One async request-track event; `args`, when set, writes its args.
void
async_event(JsonWriter &w, const TrackIds &ids, const char *ph,
            std::int64_t id, const std::string &name, double ts,
            const std::function<void()> &args = {})
{
    w.begin_object();
    w.field("ph", ph);
    w.field("pid", ids.serve_pid);
    w.field("tid", 0);
    w.field("cat", ids.prefix + "request");
    w.field("id", id);
    w.field("name", name);
    w.field("ts", ts);
    if (args) {
        w.key("args");
        w.begin_object();
        args();
        w.end_object();
    }
    w.end_object();
}

void
counter_event(JsonWriter &w, const TrackIds &ids, const std::string &name,
              double ts, double value)
{
    w.begin_object();
    w.field("ph", "C");
    w.field("pid", ids.serve_pid);
    w.field("tid", 0);
    w.field("name", ids.prefix + name);
    w.field("ts", ts);
    w.key("args");
    w.begin_object();
    w.field("value", value);
    w.end_object();
    w.end_object();
}

struct CounterPoint {
    const char *name;
    double t_us;
    double value;
};

/// A slice of a batch-slot lane (with the batch's kBatchForm event) or
/// of the round lane.
struct LaneSlice {
    int tid;
    std::string name;
    double ts;
    double dur;
    std::optional<TraceEvent> form;
};

/// The event-edge counter tracks, each a live count of the fold.
constexpr std::pair<const char *, std::size_t ServeFold::Live::*>
    kEdgeCounters[] = {
        {"queue_depth", &ServeFold::Live::queued},
        {"in_flight", &ServeFold::Live::in_flight},
        {"sheds", &ServeFold::Live::sheds},
        {"ratelimit_sheds", &ServeFold::Live::ratelimit_sheds},
};

/// Emits one replica's complete track set into an open traceEvents
/// array — the whole single-server export body, parameterized by where
/// the tracks land.
void
append_serve_tracks(JsonWriter &w, const TraceLog &log,
                    const TelemetryRecorder *telemetry, const TrackIds &ids)
{
    // One fold reads the log: the request spans, a lane slice for each
    // batch and round that ends, and a counter point wherever one of the
    // live counts moved.
    ServeFold fold({});
    std::vector<LaneSlice> lanes;
    int max_slot = -1;
    std::vector<CounterPoint> edges;
    for (const TraceEvent &e : log.events()) {
        const ServeFold::Live was = fold.live();
        fold.apply(e);
        if (e.kind == TraceEventKind::kBatchDone) {
            const auto &batches = fold.round_batches();
            const auto b = batches.find(e.batch);
            const TraceEvent &form = b->second.form;
            const int slot =
                static_cast<int>(std::distance(batches.begin(), b));
            max_slot = std::max(max_slot, slot);
            std::ostringstream name;
            name << "B" << e.batch << " " << form.model << " b"
                 << form.bucket << " x" << form.planned_batch;
            lanes.push_back({kBatchLaneBase + slot, name.str(), form.t_us,
                             e.t_us - form.t_us, form});
        } else if (e.kind == TraceEventKind::kRoundDone) {
            const double start = fold.round_dispatch_us();
            lanes.push_back({kRoundLane, "round " + std::to_string(e.round),
                             start, e.t_us - start, std::nullopt});
        }
        for (const auto &[name, count] : kEdgeCounters) {
            if (fold.live().*count != was.*count) {
                edges.push_back(
                    {name, e.t_us, static_cast<double>(fold.live().*count)});
            }
        }
    }
    std::vector<RequestSpans> spans = fold.spans();
    std::stable_sort(spans.begin(), spans.end(),
                     [](const RequestSpans &a, const RequestSpans &b) {
                         return a.request < b.request;
                     });

    meta_name(w, ids.serve_pid, 0, "process_name",
              ids.prefix + "serving");
    meta_name(w, ids.serve_pid, kRoundLane, "thread_name", "rounds");

    // ---- Async request spans: one track per request, nested phases ----
    for (const RequestSpans &s : spans) {
        std::ostringstream name;
        name << "req " << s.request << " (" << s.tenant << "/"
             << to_string(static_cast<SloClass>(
                    std::max(0, std::min(s.slo, kNumSloClasses - 1))))
             << ")";
        async_event(w, ids, "b", s.request, name.str(), s.arrive_us, [&] {
            w.field("tenant", s.tenant);
            w.field("model", s.model);
            w.field("outcome", s.outcome);
            w.field("valid_len", static_cast<std::int64_t>(s.valid_len));
            w.field("bucket", static_cast<std::int64_t>(s.bucket));
            w.field("batch", s.batch);
            w.field("round", s.round);
            w.field("deadline_met", s.deadline_met);
            w.field("queue_us", s.queue_us());
            w.field("pad_us", s.pad_us);
            w.field("device_us", s.device_us());
        });
        if (s.outcome == "completed") {
            async_event(w, ids, "b", s.request, "queue", s.admit_us);
            async_event(w, ids, "e", s.request, "queue", s.dispatched_us);
            async_event(w, ids, "b", s.request, "device", s.dispatched_us);
            async_event(w, ids, "e", s.request, "device", s.finish_us);
        }
        async_event(w, ids, "e", s.request, name.str(), s.finish_us);
    }

    // ---- Batch + round lanes ------------------------------------------
    for (const LaneSlice &lane : lanes) {
        w.begin_object();
        w.field("ph", "X");
        w.field("pid", ids.serve_pid);
        w.field("tid", lane.tid);
        w.field("name", lane.name);
        w.field("ts", lane.ts);
        w.field("dur", lane.dur);
        if (lane.form) {
            w.key("args");
            w.begin_object();
            w.field("round", lane.form->round);
            w.field("actual_batch", lane.form->actual_batch);
            w.field("planned_batch", lane.form->planned_batch);
            w.end_object();
        }
        w.end_object();
    }
    for (int slot = 0; slot <= max_slot; ++slot) {
        meta_name(w, ids.serve_pid, kBatchLaneBase + slot, "thread_name",
                  "batch slot " + std::to_string(slot));
    }

    // ---- Serving counter tracks ---------------------------------------
    for (const CounterPoint &p : edges) {
        counter_event(w, ids, p.name, p.t_us, p.value);
    }

    // ---- Telemetry time-series counter tracks -------------------------
    // Fixed-interval samples from the TelemetryRecorder, prefixed
    // "tele." so they sit beside — not inside — the event-edge counters
    // above (the events fire at state changes, the samples on a grid).
    if (telemetry != nullptr) {
        const TelemetryRecorder &tele = *telemetry;
        const std::vector<std::string> &tenants = tele.tenants();
        for (const TelemetrySample &s : tele.samples()) {
            counter_event(w, ids, "tele.in_flight", s.t_us,
                          static_cast<double>(s.in_flight));
            counter_event(w, ids, "tele.round_hbm_bytes", s.t_us,
                          static_cast<double>(s.round_hbm_bytes));
            for (std::size_t t = 0; t < tenants.size(); ++t) {
                counter_event(w, ids, "tele.queue_depth." + tenants[t],
                              s.t_us,
                              static_cast<double>(s.queue_depth[t]));
                counter_event(w, ids, "tele.bucket_fill." + tenants[t],
                              s.t_us, s.bucket_fill[t]);
            }
        }
    }

    // ---- Per-round gpusim replays on the shared clock -----------------
    if (!log.round_sims().empty()) {
        meta_name(w, ids.device_pid, 0, "process_name",
                  ids.prefix + "gpusim replays");
        std::set<int> streams;
        for (const TraceLog::RoundSim &rs : log.round_sims()) {
            for (const sim::KernelStats &k : rs.result.kernels) {
                streams.insert(k.stream);
            }
        }
        for (const int s : streams) {
            meta_name(w, ids.device_pid, s, "thread_name",
                      "stream " + std::to_string(s));
        }
        for (const TraceLog::RoundSim &rs : log.round_sims()) {
            sim::append_kernel_slices(w, rs.result, rs.dispatch_us,
                                      ids.device_pid);
        }
    }
}

}  // namespace

std::string
serve_trace_json(const TraceLog &log, const TelemetryRecorder *telemetry)
{
    return fleet_trace_json({{&log, telemetry, ""}});
}

std::string
fleet_trace_json(const std::vector<FleetReplicaTrace> &replicas)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.begin_object();
        w.field("displayTimeUnit", "ns");
        w.key("traceEvents");
        w.begin_array();
        for (std::size_t k = 0; k < replicas.size(); ++k) {
            const FleetReplicaTrace &replica = replicas[k];
            MG_CHECK(replica.log != nullptr)
                << "fleet trace replica " << k << " has no log";
            const TrackIds ids{
                static_cast<int>(2 * k), static_cast<int>(2 * k + 1),
                replica.label.empty() ? "" : replica.label + "."};
            append_serve_tracks(w, *replica.log, replica.telemetry, ids);
        }
        w.end_array();
        w.end_object();
    }
    return os.str();
}

}  // namespace multigrain::serve
