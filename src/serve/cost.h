#ifndef MULTIGRAIN_SERVE_COST_H_
#define MULTIGRAIN_SERVE_COST_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "profiler/history.h"
#include "profiler/percentile.h"
#include "serve/admission.h"
#include "serve/traffic.h"

/// Per-tenant cost attribution + time-series telemetry for the serving
/// layer (the mgcost.report document).
///
/// mgtrace answers *where one request's time went*; this layer answers
/// *who spent the device*. The Server's fold over its event stream
/// (ServeFold in serve/server.h) charges every completed or killed
/// round's device-busy span down to its batches (pro-rata by each
/// batch's own span, so concurrent batches share the round they
/// co-occupy) and within each batch down to its member requests:
/// compute time is charged by useful-token share, pad waste (bucket
/// slack + pow2 batch slack) pro-rata across the members that caused
/// the padded plan to run, HBM byte-time as the batch's projected
/// footprint held for its device span, and queue-occupancy time from
/// the admission timestamps. Charges land in per-tenant × SLO-class
/// cells next to exact outcome counters (completed, the three disjoint
/// shed valves, age-outs, deadline misses, losses).
///
/// The load-bearing property is *conservation*: per-tenant charged
/// device time telescopes back to ServeReport::busy_us, which the Server
/// sums from the simulator's round spans, and reconcile_cost() checks
/// the cells against that and against the admission queue's own
/// counters — mgserve turns a non-empty error list into a
/// ValidationError (exit 2), exactly like a trace mismatch.
///
/// The TelemetryRecorder is the time-series half: a fold over the same
/// events that samples the fold's live state on a fixed grid of the
/// virtual serving clock (per-tenant queue depth, in-flight requests,
/// the running round's HBM watermark, token-bucket fill) and exports as
/// CSV here and as Perfetto counter tracks through serve_trace_json. It
/// reads a finished run's TraceLog, so it cannot perturb the run.
namespace multigrain::serve {

// ---- Charge cells -------------------------------------------------------

/// One tenant × SLO-class accounting bucket: device/queue/byte charges
/// plus exact outcome counters.
struct CostCell {
    double compute_us = 0;  ///< Useful-token share of device time.
    double pad_us = 0;      ///< Padding waste charged pro-rata.
    double queue_us = 0;    ///< Queue occupancy (completed + aged out).
    /// HBM residency: batch footprint bytes × its device span, split
    /// equally across the batch members (padding included — the padded
    /// plan is what reserved the bytes).
    double hbm_byte_us = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed_capacity = 0;
    std::uint64_t shed_memory = 0;
    std::uint64_t shed_ratelimit = 0;
    std::uint64_t aged_out = 0;
    std::uint64_t deadline_miss = 0;
    /// Requests that were on the device (or dispatched) when their
    /// replica went down (ISSUE 9) — terminal, fleet-unrecoverable work.
    /// Always 0 in single-server runs.
    std::uint64_t lost_in_flight = 0;

    /// Total device time charged to this cell.
    double device_us() const { return compute_us + pad_us; }
    std::uint64_t offered() const
    {
        return completed + shed_capacity + shed_memory + shed_ratelimit +
               aged_out + lost_in_flight;
    }
};

/// Accumulates `cell` into `into`, field by field — how tenant totals
/// telescope from class cells, and how a Cluster merges per-replica
/// cost reports into the fleet's.
void add_cell(CostCell &into, const CostCell &cell);

struct TenantCost {
    std::string tenant;
    CostCell total;  ///< Sum of by_class, computed cell by cell.
    CostCell by_class[kNumSloClasses];
    /// Completed-request latency summary (the per-tenant tail the
    /// noisy-neighbor guarantee is stated over).
    prof::LatencySummary latency;
};

/// The row of `tenant`, appended on first sight.
TenantCost &tenant_row(std::vector<TenantCost> &rows,
                       const std::string &tenant);

struct CostReport {
    std::vector<TenantCost> tenants;  ///< Spec order, extras appended.
    std::int64_t rounds = 0;          ///< Rounds charged.
    /// The conservation target: ServeReport::busy_us.
    double busy_us = 0;
    /// Running totals of the charges, summed per batch rather than per
    /// cell — reconcile_cost checks each against its cells' sum and the
    /// device total against busy_us.
    double charged_device_us = 0;
    double charged_queue_us = 0;
    double charged_hbm_byte_us = 0;
};

// ---- Reconciliation -----------------------------------------------------

struct ServeReport;  // serve/server.h

/// Relative tolerance of every serving reconciliation gate — the cost
/// ledger, the trace and the fleet: both sides are doubles computed by
/// the same formulas in a different order (per-tenant charges are the
/// doubles busy_us was summed from), so the slack only absorbs
/// summation rounding.
inline constexpr double kReconcileRelTol = 1e-9;

/// True when `a` and `b` agree to kReconcileRelTol, relative to the
/// larger magnitude (absolute below 1).
inline bool
close_rel(double a, double b)
{
    return std::abs(a - b) <=
           kReconcileRelTol * std::max({1.0, std::abs(a), std::abs(b)});
}

/// Collects a reconciler's failures, each naming the figure and both
/// sides: "<what>: <self> says <got>, <other> says <want>".
struct Mismatches {
    const char *self;
    const char *other;
    std::vector<std::string> errors;

    /// Counters are integers: exact or wrong.
    void exact(const std::string &what, double got, double want);
    /// Sums of doubles agree to kReconcileRelTol.
    void close(const std::string &what, double got, double want);
    void check(bool ok, const std::string &message);
};

/// Cross-checks the cost cells against sources the fold does not
/// compute: charged device time sums to busy_us, every outcome counter
/// matches the admission queue's AdmissionStats exactly, and the rounds
/// charged match the rounds dispatched. Returns the collected failures
/// (empty = conserved); never throws.
std::vector<std::string> reconcile_cost(const CostReport &cost,
                                        const ServeReport &report);

/// Multiplies one tenant's device-time charges by `scale` — the seeded
/// corruption the CLI's --perturb-ledger flag and the tests use to
/// prove the conservation gate actually fails closed.
void scale_tenant_charges(CostReport &cost, std::size_t tenant_index,
                          double scale);

// ---- Report document ----------------------------------------------------

/// Identity of a serving run, stamped into its report documents: the
/// cost, trace and fleet reports and the incident dumps. A fleet's
/// device is the replicated device's CLI name, or "mixed" for the
/// hetero preset.
struct RunInfo {
    std::string preset;
    std::string device;
    std::uint64_t seed = 0;
};
using CostRunInfo = RunInfo;

/// Writes one cost cell's fields into an open JSON object — shared by
/// the mgcost.report document below and the fleet report's merged ledger.
void write_cost_cell(JsonWriter &w, const CostCell &cell, double busy_us);

/// Writes a reconciler's verdict: `flag` (true when `errors` is empty)
/// and the "reconcile_errors" array — shared by the cost, trace and
/// fleet reports.
void write_reconcile(JsonWriter &w, const char *flag,
                     const std::vector<std::string> &errors);

/// Writes a latency summary as one JSON object (count, mean and
/// percentiles in us) — shared with the fleet report.
void write_latency(JsonWriter &w, const prof::LatencySummary &s);

/// The validated "mgcost.report" v1 JSON document, stamped with
/// `manifest` (RunManifest::collect for a live run). A fixed manifest
/// makes the document a pure function of (report, info) — what the
/// byte-identical tests pin (the manifest timestamp is wall clock).
std::string cost_report_json(const CostReport &cost,
                             const CostRunInfo &info,
                             const std::vector<std::string> &errors,
                             const prof::RunManifest &manifest);

// ---- Time-series telemetry ----------------------------------------------

struct TelemetryConfig {
    /// Sampling grid spacing on the virtual serving clock, microseconds.
    double interval_us = 50;
};

/// One grid sample. The per-tenant vectors are parallel to
/// TelemetryRecorder::tenants().
struct TelemetrySample {
    double t_us = 0;
    int in_flight = 0;  ///< Requests on the device.
    /// The running round's projected HBM watermark; 0 while idle.
    std::uint64_t round_hbm_bytes = 0;
    std::vector<std::size_t> queue_depth;
    std::vector<double> bucket_fill;
};

class ServeFold;    // serve/server.h
struct TraceEvent;  // serve/trace.h

/// Step-function sampler over an event stream: before it applies an
/// event at time t it emits every grid point earlier than t, each
/// carrying the state the events before it left. Pure function of the
/// events — same seed, byte-identical CSV.
class TelemetryRecorder {
  public:
    /// `tenants` fixes the per-tenant columns and each tenant's starting
    /// bucket fill (a fresh TokenBucket of its spec).
    TelemetryRecorder(TelemetryConfig config,
                      const std::vector<TenantSpec> &tenants);
    ~TelemetryRecorder();

    const std::vector<std::string> &tenants() const { return tenants_; }

    /// Applies the next event of the stream.
    void apply(const TraceEvent &e);
    /// Flushes the remaining grid points up to and including `end_us`.
    void finish(double end_us);

    const std::vector<TelemetrySample> &samples() const
    {
        return samples_;
    }

  private:
    void emit_through(double limit_us, bool inclusive);

    TelemetryConfig config_;
    std::vector<std::string> tenants_;
    std::unique_ptr<ServeFold> fold_;
    double next_grid_us_ = 0;
    std::vector<TelemetrySample> samples_;
};

/// Wide-format CSV: t_us, in_flight, round_hbm_bytes, then one
/// queue_depth.<tenant> and one bucket_fill.<tenant> column per tenant.
std::string telemetry_csv(const TelemetryRecorder &recorder);

}  // namespace multigrain::serve

#endif  // MULTIGRAIN_SERVE_COST_H_
