#ifndef MULTIGRAIN_SERVE_TRACE_H_
#define MULTIGRAIN_SERVE_TRACE_H_

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/json.h"
#include "gpusim/engine.h"
#include "serve/cost.h"
#include "serve/traffic.h"

/// End-to-end request tracing for the serving layer (the mgtrace.report
/// and mgtrace.incident documents).
///
/// mgserve's ServeReport says *how bad* the tail is; this layer says
/// *where the time went*. The Server emits one structured TraceEvent at
/// every state transition a request goes through — arrival, admission
/// decision, batch formation, round dispatch, device completion, a
/// terminal shed/age-out, or loss and drain when its replica is killed —
/// each stamped with the virtual serving clock and the stable
/// request/tenant/batch/round ids the rest of the system already uses.
/// The ServeReport and CostReport are folds over that stream (ServeFold
/// in serve/server.h). Everything here that interprets a TraceLog runs a
/// ServeFold of its own over log.events(); a log holds exactly the
/// events its Server's fold applied, so the two folds agree:
///
///  * the fold's spans() are per-request timelines whose boundary
///    timestamps chain exactly (admission → queue → batch-wait →
///    device), so the components telescope to the end-to-end latency by
///    construction;
///  * build_trace_report() decomposes each SLO class's latency
///    percentiles into queue / batch-wait / pad / device components and
///    checks the spans against what the fold does not compute: their
///    chaining, the admission queue's counters, and the percentiles and
///    class means of prof::summarize_latencies — a disagreement is
///    reported as a validation failure (mgserve exits 2);
///  * TraceLog's flight recorder keeps a bounded ring of the last N
///    rounds of events and, on an anomaly trigger (shed burst,
///    deadline-miss streak, empty-round stall), freezes it into a
///    self-contained incident that serializes to JSON and parses back
///    to the ring's events, field for field;
///  * serve_trace_json() renders the run as one correlated Perfetto
///    timeline: async request spans per tenant, batch-slot and round
///    lanes, serving counter tracks (queue depth, in-flight, sheds) at
///    every change of the fold's live counts, and — when per-round
///    simulator capture is on — every round's gpusim kernel replay
///    overlaid at its dispatch offset via sim::append_kernel_slices.
///
/// The Server always emits; a TraceLog is optional and only records
/// what it is handed, so a run with a log attached produces the same
/// report as one without. Same (preset, seed, device) runs produce
/// byte-identical event logs — the property the determinism tests pin.
namespace multigrain::serve {

// ---- Events -------------------------------------------------------------

enum class TraceEventKind {
    kArrive = 0,     ///< Request issued by the traffic source.
    kAdmit,          ///< Admission accepted it into the tenant queue.
    kShed,           ///< Terminal: rejected at the door (queue/memory).
    kShedRateLimit,  ///< Terminal: shed by the tenant's token bucket.
    kAgeOut,         ///< Terminal: expired waiting past the queue bound.
    kBatchForm,      ///< Packed into a batch (one event per member).
    kRoundDispatch,  ///< A round of batches started on the device.
    kBatchDone,      ///< A batch's replay finished.
    kComplete,       ///< Terminal: request served (deadline_met in flag).
    kRoundDone,      ///< The round released the device.
    /// Terminal: on the device when its replica was killed.
    kLost,
    /// Left a killed replica's queue for the router to re-offer.
    kDrain,
};

const char *to_string(TraceEventKind kind);
/// Inverse of to_string; throws Error on an unknown name.
TraceEventKind trace_event_kind_by_name(const std::string &name);

/// One structured log record. Fields beyond (seq, kind, t_us) are
/// meaningful per kind and left defaulted otherwise; the serializer
/// emits only the meaningful ones, deterministically, so same-seed runs
/// write byte-identical logs.
struct TraceEvent {
    std::uint64_t seq = 0;  ///< Dense log position, assigned by TraceLog.
    TraceEventKind kind = TraceEventKind::kArrive;
    double t_us = 0;  ///< Virtual serving-clock timestamp.
    std::int64_t request = -1;
    std::int64_t batch = -1;
    std::int64_t round = -1;
    std::string tenant;  ///< kArrive.
    std::string model;   ///< kArrive, kBatchForm.
    int slo = -1;        ///< kArrive (SloClass as int).
    index_t valid_len = 0;      ///< kArrive.
    double deadline_us = 0;     ///< kArrive.
    /// kArrive: when the user issued the request. Equals t_us except on
    /// a failover re-arrival, whose t_us is the reroute time.
    double arrival_us = 0;
    index_t bucket = 0;         ///< kBatchForm.
    int planned_batch = 0;      ///< kBatchForm (padded plan size).
    int actual_batch = 0;       ///< kBatchForm members; kRoundDispatch batches.
    /// kRoundDispatch: projected HBM footprint of the round's plans
    /// (sum of each batch's MemPlan peak), bytes.
    std::uint64_t hbm_bytes = 0;
    /// kBatchForm: the batch's own projected HBM footprint, bytes.
    std::uint64_t footprint_bytes = 0;
    /// kComplete: deadline met. kShed: shed by the byte budget (false:
    /// by the depth bound).
    bool flag = false;
    /// kAdmit, kShed, kShedRateLimit: the tenant's token-bucket fill
    /// after the admission decision, tokens.
    double fill = 0;

    bool operator==(const TraceEvent &) const = default;
};

/// One line of the JSONL event log (no trailing newline).
std::string event_to_json(const TraceEvent &event);
TraceEvent event_from_json(const JsonValue &doc);
void write_events_jsonl(const std::vector<TraceEvent> &events,
                        std::ostream &os);

// ---- The log + flight recorder ------------------------------------------

struct TraceConfig {
    /// Keep the complete event log in memory (what the trace report
    /// reads).
    /// false = flight-recorder-only: memory stays bounded by the ring.
    bool retain_full = true;
    /// Capture each round's gpusim SimResult for the Perfetto overlay.
    /// Off by default — it retains per-kernel stats for every round.
    bool capture_sim = false;
};

/// Flight-recorder window: the events of the last kRingRounds rounds.
constexpr std::size_t kRingRounds = 8;
/// Anomaly trigger: >= kShedBurst sheds within kShedWindowUs.
constexpr int kShedBurst = 8;
constexpr double kShedWindowUs = 1000;
/// Anomaly trigger: this many consecutive completions that missed their
/// deadline.
constexpr int kMissStreak = 4;
/// Anomaly trigger: this many consecutive offers shed by a token bucket
/// (no admit or other shed in between) — a tenant hammering past its
/// rate allowance.
constexpr int kRatelimitStreak = 6;

/// A frozen flight-recorder window: the trigger plus a copy of the ring
/// at the moment it fired.
struct Incident {
    /// "shed_burst" | "deadline_miss_streak" | "ratelimit_burst".
    std::string trigger;
    double t_us = 0;      ///< Serving-clock time of the trigger.
    std::string detail;   ///< Human-readable trigger context.
    std::uint64_t first_seq = 0;
    std::uint64_t last_seq = 0;
    std::vector<TraceEvent> events;
};

using TraceRunInfo = RunInfo;

/// Self-contained "mgtrace.incident" v1 document: run identity, trigger,
/// thresholds, and the full event window — everything needed to rebuild
/// the spans with no access to the original process.
std::string incident_to_json(const Incident &incident,
                             const TraceRunInfo &info);
/// Validates schema/version; throws Error on mismatch.
Incident incident_from_json(const std::string &text);

class TraceLog {
  public:
    explicit TraceLog(TraceConfig config = {});

    /// Appends one event: assigns the next seq, maintains the ring
    /// window, and runs the anomaly detectors (which may freeze an
    /// incident including this event). A kRoundDispatch may bring its
    /// round's simulator result, kept for the Perfetto overlay when
    /// capture_sim is on.
    void record(TraceEvent event,
                const sim::SimResult *round_sim = nullptr);

    /// The full log (empty when retain_full is off).
    const std::vector<TraceEvent> &events() const { return events_; }
    /// The current flight-recorder window (last kRingRounds rounds).
    const std::deque<TraceEvent> &ring() const { return ring_; }
    const std::vector<Incident> &incidents() const { return incidents_; }

    struct RoundSim {
        std::int64_t round = -1;
        double dispatch_us = 0;
        sim::SimResult result;
    };
    const std::vector<RoundSim> &round_sims() const { return round_sims_; }

  private:
    void detect(const TraceEvent &event);
    void fire(const char *trigger, double t_us, std::string detail);

    TraceConfig config_;
    std::uint64_t next_seq_ = 0;
    std::vector<TraceEvent> events_;
    std::deque<TraceEvent> ring_;
    /// seq of each retained kRoundDispatch, oldest first.
    std::deque<std::uint64_t> round_start_seqs_;
    std::vector<Incident> incidents_;
    std::vector<RoundSim> round_sims_;
    /// Detector state.
    std::deque<double> recent_shed_us_;
    int miss_run_ = 0;
    int ratelimit_run_ = 0;
};

// ---- Spans --------------------------------------------------------------

/// One request's visit to a replica, built by ServeFold (serve/server.h)
/// when the visit ends. The five boundaries are taken
/// verbatim from event timestamps (arrive <= admit <= batched <=
/// dispatched <= finish), so the four boundary components plus the
/// pad/compute split of device time telescope to latency_us() exactly.
/// Terminal outcomes collapse the unreached boundaries onto the
/// terminal time: a shed request has all five equal to its arrival; an
/// aged-out or drained request spends everything after admit in
/// queue_us(); a lost request's device span ends at the fault.
struct RequestSpans {
    std::int64_t request = -1;
    std::string tenant;
    std::string model;
    int slo = 0;
    /// "completed" | "shed" | "rate_limited" | "aged_out" | "lost" |
    /// "drained".
    std::string outcome;
    bool deadline_met = false;  ///< Completed by its deadline.
    index_t valid_len = 0;
    index_t bucket = 0;
    std::int64_t batch = -1;
    std::int64_t round = -1;

    double arrive_us = 0;
    double admit_us = 0;
    double batched_us = 0;
    double dispatched_us = 0;
    double finish_us = 0;
    /// Share of device time spent on padding (bucket slack + pow2 batch
    /// slack): device_us() * (1 - useful_tokens / planned work).
    double pad_us = 0;

    double admission_us() const { return admit_us - arrive_us; }
    double queue_us() const { return batched_us - admit_us; }
    double batch_wait_us() const { return dispatched_us - batched_us; }
    double device_us() const { return finish_us - dispatched_us; }
    double compute_us() const { return device_us() - pad_us; }
    double latency_us() const { return finish_us - arrive_us; }
};

// ---- SLO attribution report ---------------------------------------------

struct ServeReport;  // serve/server.h

/// One latency figure decomposed into its span components. The
/// components sum to total_us (up to float rounding of the percentile
/// interpolation, bounded by the reconciliation tolerance).
struct SpanBreakdown {
    double total_us = 0;
    double admission_us = 0;
    double queue_us = 0;
    double batch_wait_us = 0;
    double pad_us = 0;
    double device_us = 0;  ///< Compute share (padding reported apart).
};

struct ClassAttribution {
    int slo = 0;
    std::size_t count = 0;  ///< Completed requests of this class.
    SpanBreakdown mean;
    SpanBreakdown p50;
    SpanBreakdown p95;
    SpanBreakdown p99;
};

struct TraceReport {
    TraceRunInfo info;
    std::size_t events = 0;
    std::size_t requests = 0;
    std::size_t completed = 0;
    std::size_t shed = 0;          ///< Depth/memory sheds.
    std::size_t rate_limited = 0;  ///< Token-bucket sheds.
    std::size_t aged_out = 0;
    std::size_t deadline_miss = 0;
    std::int64_t rounds = 0;
    ClassAttribution classes[kNumSloClasses];
    /// Trigger summaries of every incident the run froze (the event
    /// windows live in the separate incident documents).
    std::vector<Incident> incidents;
    /// Empty iff every span chains exactly and every checked figure
    /// matches the ServeReport. mgserve turns a non-empty list into a
    /// ValidationError (exit 2).
    std::vector<std::string> reconcile_errors;

    bool reconciled() const { return reconcile_errors.empty(); }
};

/// Builds the attribution report from a finished run's log + report and
/// cross-checks it (span chaining, admission counters, p50/p95/p99 and
/// class means). Never throws on mismatch — the failures are collected
/// in reconcile_errors so the CLI and tests can show all of them.
TraceReport build_trace_report(const TraceLog &log,
                               const ServeReport &report,
                               const TraceRunInfo &info);

/// The validated "mgtrace.report" v1 JSON document (manifest-stamped).
std::string trace_report_json(const TraceReport &report);

// ---- Perfetto export ----------------------------------------------------

/// Renders the traced run as one Chrome/Perfetto timeline: async
/// request spans (grouped per tenant), batch-slot and round lanes, the
/// serving counter tracks (queue depth, in-flight requests, cumulative
/// sheds), and the per-round gpusim replays of a log built with
/// capture_sim under a second process, all on the shared serving clock.
/// When `telemetry` is set, its time-series samples are rendered as
/// extra counter tracks ("tele.*": per-tenant queue depth and bucket
/// fill, in-flight requests, round HBM watermark) beside the
/// event-derived lanes; it must outlive the call. It is the fleet
/// timeline of one replica with an empty label.
std::string serve_trace_json(const TraceLog &log,
                             const TelemetryRecorder *telemetry = nullptr);

/// One replica's contribution to a fleet timeline (ISSUE 9). The label
/// (e.g. "r0") prefixes the replica's process names, counter tracks and
/// async categories so N replicas coexist in one Perfetto view; the
/// optional telemetry recorder renders as in serve_trace_json. Both
/// pointers must outlive the export call.
struct FleetReplicaTrace {
    const TraceLog *log = nullptr;
    const TelemetryRecorder *telemetry = nullptr;
    std::string label;
};

/// Renders N replicas' event logs as one correlated timeline on the
/// shared cluster clock: replica k's serving lanes run under pid 2k and
/// its gpusim replays under pid 2k+1, every track name prefixed
/// "<label>.".
std::string fleet_trace_json(const std::vector<FleetReplicaTrace> &replicas);

}  // namespace multigrain::serve

#endif  // MULTIGRAIN_SERVE_TRACE_H_
