#ifndef MULTIGRAIN_SERVE_COST_H_
#define MULTIGRAIN_SERVE_COST_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iosfwd>
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
/// *who spent the device*. The TenantLedger splits every dispatched
/// round's device-busy span down to its batches (pro-rata by each
/// batch's own span, so concurrent batches share the round they
/// co-occupy) and within each batch down to its member requests:
/// compute time is charged by useful-token share, pad waste (bucket
/// slack + pow2 batch slack) pro-rata across the members that caused
/// the padded plan to run, HBM byte-time as the batch's projected
/// footprint held for its device span, and queue-occupancy time from
/// the admission timestamps. Charges land in per-tenant × SLO-class
/// cells next to exact outcome counters (completed, the three disjoint
/// shed valves, age-outs, deadline misses).
///
/// The load-bearing property is *conservation*: per-tenant charged
/// device time telescopes back to ServeReport::busy_us by construction,
/// and reconcile_cost() re-derives every figure it can from the
/// ServeReport and collects any disagreement — mgserve turns a non-empty
/// error list into a ValidationError (exit 2), exactly like a trace
/// mismatch.
///
/// The TelemetryRecorder is the time-series half: a fixed-interval
/// sampler on the virtual serving clock (per-tenant queue depth,
/// in-flight requests, the running round's HBM watermark, token-bucket
/// fill) that exports as CSV here and as Perfetto counter tracks
/// through ServeTraceOptions::telemetry. Like tracing, both are
/// observers: an instrumented run replays the exact same virtual clock
/// as a bare one.
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
/// ledgers into the fleet ledger.
void add_cell(CostCell &into, const CostCell &cell);

struct TenantCost {
    std::string tenant;
    CostCell total;  ///< Sum of by_class, computed cell by cell.
    CostCell by_class[kNumSloClasses];
    /// Completed-request latency summary (the per-tenant tail the
    /// noisy-neighbor guarantee is stated over).
    prof::LatencySummary latency;
};

struct CostReport {
    std::vector<TenantCost> tenants;  ///< Spec order, extras appended.
    std::int64_t rounds = 0;          ///< Rounds charged.
    /// The conservation target, copied verbatim from
    /// ServeReport::busy_us at finish().
    double busy_us = 0;
    /// The ledger's own running totals, accumulated independently of
    /// the per-cell charges — reconcile_cost checks both against each
    /// other and against the ServeReport.
    double charged_device_us = 0;
    double charged_queue_us = 0;
    double charged_hbm_byte_us = 0;
};

// ---- The ledger ---------------------------------------------------------

class TenantLedger {
  public:
    /// `tenants` fixes the row order of the report; requests from
    /// unlisted tenants get a row appended on first sight.
    explicit TenantLedger(const std::vector<TenantSpec> &tenants);

    /// One batch of a dispatched round, as the Server saw it.
    struct BatchCharge {
        double device_us = 0;  ///< Batch span (finish - dispatch).
        std::uint64_t footprint_bytes = 0;
        index_t bucket = 0;
        int planned_batch = 0;
        const std::vector<Request> *requests = nullptr;
    };

    /// Charges one round's device-busy span `round_us` (the same
    /// quantity ServeReport::busy_us accumulates) to the requests of its
    /// batches: batches split the round pro-rata by their own spans, a
    /// batch splits into compute (by valid-token share) and pad (equal
    /// pro-rata), so the per-request charges telescope back to round_us
    /// up to float rounding.
    void charge_round(double round_us,
                      const std::vector<BatchCharge> &batches);

    /// A request completed: charges its queue occupancy and records the
    /// outcome counters plus a latency sample.
    void note_completed(const Request &r, double queue_us,
                        double latency_us, bool deadline_met);
    /// A request was shed at the door for `reason` (must not be kNone).
    void note_shed(const Request &r, AdmitDecision::Shed reason);
    /// A request aged out after `waited_us` in the queue (charged as
    /// queue occupancy — it held a slot the whole time).
    void note_aged_out(const Request &r, double waited_us);
    /// A dispatched request died with its replica (ISSUE 9): charges the
    /// queue occupancy it consumed before dispatch and counts it in the
    /// lost_in_flight cell. The truncated round's device time is charged
    /// separately through charge_round.
    void note_lost(const Request &r, double queue_us);

    /// Cumulative charged device time per tenant (spec order, extras
    /// appended) — the WFQ feedback the Server pushes into
    /// AdmissionQueue::set_charged after every completed round.
    std::vector<std::pair<std::string, double>>
    charged_device_by_tenant() const;

    /// Reduces the cells into the report; `busy_us` is the run's
    /// ServeReport::busy_us (the conservation target).
    CostReport finish(double busy_us) const;

  private:
    struct TenantState {
        std::string name;
        CostCell by_class[kNumSloClasses];
        std::vector<double> latencies;
    };
    TenantState &state_for(const std::string &tenant);
    CostCell &cell_for(const Request &r);

    std::vector<TenantState> tenants_;
    std::int64_t rounds_ = 0;
    double charged_device_us_ = 0;
    double charged_queue_us_ = 0;
    double charged_hbm_byte_us_ = 0;
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

/// Cross-checks the ledger against the ServeReport of the same run:
/// charged device time sums to busy_us, every counter matches its
/// AdmissionStats / ServeReport twin exactly, per-tenant totals equal
/// their class cells, and queue charges match the request records.
/// Returns the collected failures (empty = conserved); never throws.
std::vector<std::string> reconcile_cost(const CostReport &cost,
                                        const ServeReport &report);

/// Multiplies one tenant's device-time charges by `scale` — the seeded
/// corruption the CLI's --perturb-ledger flag and the tests use to
/// prove the conservation gate actually fails closed.
void scale_tenant_charges(CostReport &cost, std::size_t tenant_index,
                          double scale);

// ---- Report document ----------------------------------------------------

/// Identity of the accounted run, stamped into the report document.
struct CostRunInfo {
    std::string preset;
    std::string device;
    std::uint64_t seed = 0;
};

/// Writes one cost cell's fields into an open JSON object — shared by
/// the mgcost.report document below and the fleet report's merged ledger.
void write_cost_cell(JsonWriter &w, const CostCell &cell, double busy_us);

/// The validated "mgcost.report" v1 JSON document. The two-argument
/// form stamps a freshly collected manifest; pass an explicit manifest
/// to make the document a pure function of (report, info) — what the
/// byte-identical tests pin (the manifest timestamp is wall clock).
std::string cost_report_json(const CostReport &cost,
                             const CostRunInfo &info,
                             const std::vector<std::string> &errors,
                             const prof::RunManifest &manifest);
std::string cost_report_json(const CostReport &cost,
                             const CostRunInfo &info,
                             const std::vector<std::string> &errors);

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

/// Step-function sampler: the Server reports its state at every virtual
/// clock event via observe(), and the recorder emits one sample per
/// elapsed grid point carrying the state that was current when that
/// grid time passed. Pure function of the observe() calls — same seed,
/// byte-identical CSV.
class TelemetryRecorder {
  public:
    TelemetryRecorder(TelemetryConfig config,
                      std::vector<std::string> tenants);

    const std::vector<std::string> &tenants() const { return tenants_; }
    double interval_us() const { return config_.interval_us; }

    /// State transition at `now_us` (non-decreasing): emits every grid
    /// point strictly before now_us with the previous state, then
    /// adopts `state` as current.
    void observe(double now_us, TelemetrySample state);
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
    TelemetrySample current_;
    double next_grid_us_ = 0;
    std::vector<TelemetrySample> samples_;
};

/// Wide-format CSV: t_us, in_flight, round_hbm_bytes, then one
/// queue_depth.<tenant> and one bucket_fill.<tenant> column per tenant.
void write_telemetry_csv(const TelemetryRecorder &recorder,
                         std::ostream &os);
std::string telemetry_csv(const TelemetryRecorder &recorder);

}  // namespace multigrain::serve

#endif  // MULTIGRAIN_SERVE_COST_H_
