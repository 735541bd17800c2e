#ifndef MULTIGRAIN_SERVE_SERVER_H_
#define MULTIGRAIN_SERVE_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/plan_cache.h"
#include "gpusim/device.h"
#include "profiler/history.h"
#include "profiler/percentile.h"
#include "serve/admission.h"
#include "serve/cost.h"
#include "serve/scheduler.h"
#include "serve/trace.h"
#include "serve/traffic.h"
#include "transformer/runner.h"

/// mgserve: the multi-tenant serving layer over gpusim (ISSUE 4).
///
/// A Server drives one traffic preset end to end, deterministically:
/// requests arrive (serve/traffic.h), pass admission control
/// (serve/admission.h), are packed into compatible batches
/// (serve/scheduler.h), and every round of batches is replayed into one
/// GpuSim — each batch's PlanCache'd layer graphs under its own name
/// prefix and stream binding, so concurrent batches overlap across
/// simulated streams. Virtual serving time advances on two kinds of
/// events only (request arrival, round completion), so the entire run —
/// queue depths, batch shapes, per-request latencies — is a pure
/// function of (preset, seed, device), which is what lets mgperf gate
/// serving behavior as tightly as it gates kernel time.
///
/// The simulation nests two clocks: gpusim's microsecond timeline inside
/// one round, and the serving clock across rounds. A round dispatched at
/// time T with round makespan M occupies the device until T + M; each of
/// its batches finishes at T + finish_us(batch prefix), which is earlier
/// than T + M when a short batch overlaps a long one on other streams.
namespace multigrain::serve {

struct ServeConfig {
    std::string preset = "custom";
    TrafficConfig traffic;
    AdmissionConfig admission;
    SchedulerConfig scheduler;
    /// Processing method applied to every request of the preset.
    SliceMode mode = SliceMode::kMultigrain;
};

/// Registered traffic presets ("tiny" | "steady" | "overload" |
/// "closed" | "memtight" | "noisy"); throws Error on unknown names.
ServeConfig serve_preset_by_name(const std::string &name);

struct ServePresetInfo {
    const char *name;
    const char *description;
    ServeConfig (*make)();
};
const std::vector<ServePresetInfo> &serve_presets();

struct RequestRecord {
    enum class Outcome {
        kCompleted,
        kRejected,
        kTimedOut,
        /// Dispatched to a replica that went down before the round
        /// finished (ISSUE 9): the work is lost fleet-wide. finish_us is
        /// the fault time.
        kLostReplica,
    };

    Request request;
    Outcome outcome = Outcome::kCompleted;
    double dispatch_us = 0;
    double finish_us = 0;
    /// Served by its deadline; false for every outcome but kCompleted.
    bool deadline_met = false;

    /// Arrival-to-completion latency (the SLO metric).
    double latency_us() const { return finish_us - request.arrival_us; }
    /// Time spent queued before dispatch.
    double queue_us() const { return dispatch_us - request.arrival_us; }
};

/// What a run's per-request records reduce to (reduce_records): the
/// outcome counts and the completed requests' latency figures. A
/// ServeReport and a fleet's ClusterReport each carry one.
struct RecordSummary {
    std::uint64_t completed = 0;
    std::uint64_t deadline_miss = 0;
    /// Requests lost in flight when a replica was killed; always 0 in
    /// single-server runs.
    std::uint64_t lost_in_flight = 0;
    prof::LatencySummary latency;  ///< Completed requests only.
    prof::LatencySummary latency_by_class[kNumSloClasses];
    double makespan_us = 0;  ///< First arrival to last completion.
    double throughput_rps = 0;
};

struct ServeReport : RecordSummary {
    std::string preset;
    std::string device;
    /// One record per request that reached an outcome here, in the order
    /// the outcomes occurred.
    std::vector<RequestRecord> records;
    AdmissionStats admission;
    /// Plan-cache counter movement attributable to this run.
    PlanCacheStats plan_cache;
    /// Actual batch size -> number of batches dispatched at that size.
    std::map<int, int> batch_histogram;
    int rounds = 0;
    double busy_us = 0;      ///< Device-occupied time (sum of rounds).
    double avg_batch = 0;
    int max_batch = 0;
    /// busy / makespan — how much of the serving window the device
    /// spent executing rounds.
    double gpu_util = 0;
    /// Projected HBM footprint of each dispatched round (sum of its
    /// batches' MemPlan peaks x layers), in dispatch order — the
    /// per-round byte watermarks, and their maximum.
    std::vector<std::uint64_t> round_hbm_bytes;
    std::uint64_t peak_round_hbm_bytes = 0;
    /// Per-tenant cost attribution (serve/cost.h): every run carries its
    /// ledger so bench rows and the mgcost report read the same numbers.
    CostReport cost;
};

/// The one reduction from request records to figures: reduces `records`,
/// in order, into `summary`, and each cost row's completed-request
/// latencies into its `latency`. summarize_latencies sums the mean in
/// input order, so the order is part of the result: a Server reduces its
/// own records, a Cluster its replicas' records in replica order.
void reduce_records(const std::vector<RequestRecord> &records,
                    RecordSummary &summary, CostReport &cost);

/// The run's state, folded from the Server's event stream in event
/// order: every state change the Server emits is applied here once,
/// before any TraceLog sees it. It is the one reader of serving events.
/// The ServeReport and CostReport come from its state(), the trace
/// report and the Perfetto request lanes from its spans(), and the
/// Perfetto counters and the telemetry samples from its live counts,
/// each consumer running its own fold over a TraceLog's events. The
/// state holds the per-request records in the order their terminal
/// events occur, the batch histogram, the rounds' HBM bytes, and the
/// tenant × SLO cost cells with their charged totals (serve/cost.h
/// describes the charging rules).
class ServeFold {
  public:
    /// `tenants` fixes the order of the cost rows and each tenant's
    /// starting bucket fill; a tenant not listed gets a row appended
    /// when its first count or charge lands.
    explicit ServeFold(const std::vector<TenantSpec> &tenants);

    /// Applies one event. Throws Error on an event for a request or a
    /// batch the stream has not introduced.
    void apply(const TraceEvent &e);

    /// The folded state: records, batch_histogram, round_hbm_bytes and
    /// cost (its class cells, rounds and charged totals). Server::finish
    /// fills in the rest.
    const ServeReport &state() const { return state_; }

    /// One span per visit a request paid this replica, in the order the
    /// visits ended. A drained request's visit ends "drained", and its
    /// re-arrival starts a new span.
    const std::vector<RequestSpans> &spans() const { return spans_; }

    /// Counts of the live system after the last applied event.
    struct Live {
        std::size_t queued = 0;     ///< Admitted, not batched or removed.
        std::size_t in_flight = 0;  ///< Batched, not completed or lost.
        std::size_t sheds = 0;      ///< Door sheds so far, all valves.
        std::size_t ratelimit_sheds = 0;  ///< The token-bucket ones.
    };
    const Live &live() const { return live_counts_; }

    /// A tenant's queued requests, and its token bucket's fill after its
    /// last admission decision (before any: a fresh bucket's). Throws
    /// for a tenant neither listed nor seen.
    struct TenantLive {
        std::size_t queued = 0;
        double fill = TokenBucket().fill();
    };
    const TenantLive &tenant(const std::string &name) const
    {
        return tenants_.at(name);
    }

    /// A batch of the running round.
    struct BatchState {
        TraceEvent form;  ///< Its first kBatchForm event.
        double done_us = 0;
        double useful_tokens = 0;  ///< Its members' valid lengths.
        std::vector<Request> members;
    };
    /// The running round's batches by id (so in formation order), and
    /// the time it was dispatched.
    const std::map<std::int64_t, BatchState> &round_batches() const
    {
        return batches_;
    }
    double round_dispatch_us() const { return round_dispatch_us_; }

  private:
    struct Arrival {
        Request request;
        double t_us = 0;      ///< Arrival on this replica's clock.
        double admit_us = 0;  ///< Its admission decision.
    };
    CostCell &cell(const Request &r);
    /// The live request `id`; throws Error when there is none.
    Arrival &live(std::int64_t id);
    /// Ends request `id`'s visit at `t_us` with `outcome`: its span, run
    /// on the device in `batch` if it got that far, joins spans(), and
    /// the request leaves the live set.
    Request leave(std::int64_t id, const char *outcome, double t_us,
                  const BatchState *batch = nullptr);
    /// Records the terminal `outcome` of a request that left.
    RequestRecord &retire(Request r, RequestRecord::Outcome outcome,
                          double finish_us);
    /// Charges the running round's device span `round_us` to the
    /// members of its batches.
    void charge_round(double round_us);

    ServeReport state_;
    std::vector<RequestSpans> spans_;
    Live live_counts_;
    std::map<std::string, TenantLive> tenants_;
    std::map<std::int64_t, Arrival> live_;       ///< Arrived, not retired.
    std::map<std::int64_t, BatchState> batches_; ///< The running round's.
    double round_dispatch_us_ = 0;
};

class Server {
  public:
    Server(ServeConfig config, sim::DeviceSpec device);

    /// Attaches a request-level event log (serve/trace.h); nullptr (the
    /// default) detaches it. The Server emits every event either way and
    /// folds it into its report; an attached log records the same
    /// events, so it observes the run and never changes it. The log
    /// must outlive run(). Spans, Perfetto counters and telemetry are
    /// all read from the log afterwards.
    void set_trace(TraceLog *trace) { trace_ = trace; }

    /// Runs the preset to completion. May be called once.
    ServeReport run();

    // ---- Step-wise driving (ISSUE 9) --------------------------------
    // run() is a thin driver over the methods below, calling them in a
    // fixed per-event order; a Cluster drives N replicas' servers on one
    // shared virtual clock in the same order, which is why a replica's
    // serving behavior inside a cluster matches a standalone run of the
    // same event stream operation for operation.

    /// Builds the queue and scheduler and snapshots the plan cache.
    /// Must be called once before any other stepping method (run() calls
    /// it itself).
    void begin();
    /// One arrival at `now_us`: stamps the preset's slice mode, prices
    /// the footprint when a byte budget is configured, and offers it to
    /// admission.
    void ingest(Request r, double now_us);
    /// Failover re-admission of a request drained from a dead replica:
    /// same as ingest but through AdmissionQueue::reoffer (the tenant's
    /// token bucket is not billed twice for a fault-caused move).
    /// Returns false when this replica's depth/byte valves shed it —
    /// then the request is terminal here, recorded as rejected.
    bool reingest(Request r, double now_us);
    /// Ages out requests that waited past the admission bound.
    void expire(double now_us);
    /// True when a round can start: up, device idle, work queued.
    bool can_dispatch() const;
    /// Forms and dispatches the next round; requires can_dispatch().
    void dispatch(double now_us);
    bool busy() const { return !batch_finish_us_.empty(); }
    /// When the running round releases the device; +infinity while idle.
    double busy_until() const;
    /// Completes the round due at busy_until(): emits its completions,
    /// feeds closed-loop traffic, pushes WFQ debt.
    void complete(TrafficSource &source);
    /// Does nothing: telemetry is folded from the event log
    /// (TelemetryRecorder in serve/cost.h). It stays because the
    /// benchmark harness (perfbench/mgbench.cc) drives the serving loop
    /// through it, timed as its own span.
    void observe(double) {}
    /// Queued + in-flight projected HBM bytes — the load figure the
    /// cluster router's least-bytes policy balances on.
    std::uint64_t outstanding_bytes() const;

    /// Takes this replica down at `now_us` (ISSUE 9): the running round
    /// is truncated — its device time up to now_us is charged, its
    /// requests are recorded as lost in flight — and every
    /// admitted-but-undispatched request is drained and returned for the
    /// router to re-offer fleet-wide. The replica stays down (dispatch
    /// refuses) until revive().
    std::vector<Request> kill(double now_us);
    void revive();
    bool down() const { return down_; }

    /// Reads the final report out of the fold. Call exactly once, at
    /// `now_us`, after the event stream ends.
    ServeReport finish(double now_us);

  private:
    /// The one place a state change is recorded: folds `e` into the
    /// report state and hands it to the attached TraceLog, if any, with
    /// the round's simulator result for a kRoundDispatch.
    void emit(TraceEvent e, const sim::SimResult *round_sim = nullptr);
    /// ingest and reingest: offers `r` through the queue's offer, or its
    /// reoffer for a failover move. Returns whether it was admitted.
    bool offer(Request r, double now_us, bool reoffer);
    /// Ends the running round at `t_us` and releases the device. With a
    /// `source`, the round completed: each request completes at its
    /// batch's finish and is fed back to the source. Without one, the
    /// replica was killed at `t_us`: each request is lost, and a batch
    /// still running is cut there.
    void end_round(double t_us, TrafficSource *source);
    TransformerRunner &runner_for(const std::string &model, SliceMode mode,
                                  index_t bucket, int planned_batch);
    /// Projected HBM bytes of one batch's execution: the bucketed layer
    /// plan's MemPlan peak x the model's layer count. Memoized per
    /// (model, mode, bucket, planned batch); the MemPlan itself is a
    /// PlanCache hit beside the batch's layer graph.
    std::uint64_t batch_footprint(const std::string &model, SliceMode mode,
                                  index_t bucket, int planned_batch);

    ServeConfig config_;
    sim::DeviceSpec device_;
    ServeFold fold_;
    /// Serving-loop state, built by begin(). Optional so a Server can be
    /// constructed cheaply before the run starts.
    std::optional<AdmissionQueue> queue_;
    std::optional<Scheduler> scheduler_;
    PlanCacheStats cache_before_;
    double busy_accum_us_ = 0;
    bool begun_ = false;
    bool down_ = false;
    /// Plan holders per (model, mode, bucket, planned batch) — the
    /// steady-state working set of the serving loop. The underlying
    /// layer graphs live in the process-wide PlanCache.
    std::map<std::string, std::unique_ptr<TransformerRunner>> runners_;
    /// Memoized batch_footprint results, same key space as runners_.
    std::map<std::string, std::uint64_t> footprints_;
    /// When each batch of the running round finishes, in formation
    /// order; empty while the device is idle.
    std::vector<double> batch_finish_us_;
    TraceLog *trace_ = nullptr;
    std::int64_t next_batch_id_ = 0;
    double gpu_free_us_ = 0;
    bool ran_ = false;
};

/// One registered serving metric over a finished report — how the CLI
/// table, the bench rows, and the tests enumerate the summary without
/// hand-maintained column lists (same style as phase_metric_registry).
struct ServeMetricDef {
    const char *key;
    const char *unit;
    const char *description;
    double (*get)(const ServeReport &);
};

const std::vector<ServeMetricDef> &serve_metric_registry();

/// Appends the report's bench rows to `run` in the pinned "mgprof.bench"
/// schema: one "serve" summary row (every registry metric), one "slo"
/// row per service class, and one "batch_hist" row per observed batch
/// size. Shared by tools/mgserve and the mgperf "serve_tiny" preset so
/// the CLI artifact and the gated rows are the same bytes.
void append_serve_rows(prof::BenchRun &run, const ServeReport &report);

/// The complete manifest-stamped bench document for one run, named
/// "serve_<preset>@<device_name>" to match the committed baseline files
/// (`device_name` is the CLI name, e.g. "a100").
prof::BenchRun serve_bench_run(const ServeReport &report,
                               const std::string &device_name);

}  // namespace multigrain::serve

#endif  // MULTIGRAIN_SERVE_SERVER_H_
