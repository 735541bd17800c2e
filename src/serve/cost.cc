#include "serve/cost.h"

#include <sstream>
#include <utility>

#include "common/error.h"
#include "profiler/export.h"
#include "serve/server.h"
#include "serve/trace.h"

namespace multigrain::serve {

TenantCost &
tenant_row(std::vector<TenantCost> &rows, const std::string &tenant)
{
    for (TenantCost &row : rows) {
        if (row.tenant == tenant) {
            return row;
        }
    }
    rows.emplace_back().tenant = tenant;
    return rows.back();
}

void
add_cell(CostCell &into, const CostCell &cell)
{
    into.compute_us += cell.compute_us;
    into.pad_us += cell.pad_us;
    into.queue_us += cell.queue_us;
    into.hbm_byte_us += cell.hbm_byte_us;
    into.completed += cell.completed;
    into.shed_capacity += cell.shed_capacity;
    into.shed_memory += cell.shed_memory;
    into.shed_ratelimit += cell.shed_ratelimit;
    into.aged_out += cell.aged_out;
    into.deadline_miss += cell.deadline_miss;
    into.lost_in_flight += cell.lost_in_flight;
}

// ---- Reconciliation -----------------------------------------------------

void
Mismatches::exact(const std::string &what, double got, double want)
{
    if (got != want) {
        std::ostringstream os;
        os << what << ": " << self << " says " << got << ", " << other
           << " says " << want;
        errors.push_back(os.str());
    }
}

void
Mismatches::close(const std::string &what, double got, double want)
{
    if (!close_rel(got, want)) {
        exact(what, got, want);  // Not close, so not equal either.
    }
}

void
Mismatches::check(bool ok, const std::string &message)
{
    if (!ok) {
        errors.push_back(message);
    }
}

std::vector<std::string>
reconcile_cost(const CostReport &cost, const ServeReport &report)
{
    Mismatches m{"ledger", "ServeReport", {}};
    double device_sum = 0;
    double queue_sum = 0;
    double byte_sum = 0;
    CostCell counts;  // Counter totals across tenants (exact).
    for (const TenantCost &t : cost.tenants) {
        device_sum += t.total.device_us();
        queue_sum += t.total.queue_us;
        byte_sum += t.total.hbm_byte_us;
        add_cell(counts, t.total);
    }

    // ---- The conservation invariant -----------------------------------
    // Per-tenant charged device time must telescope back to the device
    // time the simulator's round spans add up to: the fold split every
    // round without losing or inventing a microsecond.
    m.close("charged device time", device_sum, report.busy_us);
    m.close("ledger device total", cost.charged_device_us, report.busy_us);
    m.close("queue occupancy", queue_sum, cost.charged_queue_us);
    m.close("HBM byte-time", byte_sum, cost.charged_hbm_byte_us);
    m.exact("rounds charged vs dispatched", cost.rounds, report.rounds);

    // ---- Outcome counters against the admission queue's own ----------
    const AdmissionStats &adm = report.admission;
    m.exact("sheds",
            counts.shed_capacity + counts.shed_memory + counts.shed_ratelimit,
            adm.rejected);
    m.exact("shed_memory", counts.shed_memory, adm.shed_memory);
    m.exact("shed_ratelimit", counts.shed_ratelimit, adm.shed_ratelimit);
    m.exact("aged_out", counts.aged_out, adm.timed_out);
    // Every request the queue handed to the scheduler either completed
    // or died on the device with its replica.
    m.exact("completed + lost_in_flight",
            counts.completed + counts.lost_in_flight, adm.dispatched);
    // Every offer either reached a terminal cell here or was drained to
    // the router when the replica died — drained requests are the one
    // non-terminal exit, so they reconcile the offered count.
    m.exact("offered", counts.offered() + adm.drained, adm.offered);
    return std::move(m.errors);
}

void
scale_tenant_charges(CostReport &cost, std::size_t tenant_index,
                     double scale)
{
    MG_CHECK(tenant_index < cost.tenants.size())
        << "no tenant at index " << tenant_index;
    TenantCost &t = cost.tenants[tenant_index];
    t.total.compute_us *= scale;
    for (int c = 0; c < kNumSloClasses; ++c) {
        t.by_class[c].compute_us *= scale;
    }
}

// ---- Report document ----------------------------------------------------

void
write_cost_cell(JsonWriter &w, const CostCell &cell, double busy_us)
{
    w.field("completed", static_cast<std::int64_t>(cell.completed));
    w.field("shed_capacity",
            static_cast<std::int64_t>(cell.shed_capacity));
    w.field("shed_memory", static_cast<std::int64_t>(cell.shed_memory));
    w.field("shed_ratelimit",
            static_cast<std::int64_t>(cell.shed_ratelimit));
    w.field("aged_out", static_cast<std::int64_t>(cell.aged_out));
    w.field("lost_in_flight",
            static_cast<std::int64_t>(cell.lost_in_flight));
    w.field("deadline_miss",
            static_cast<std::int64_t>(cell.deadline_miss));
    w.field("compute_us", cell.compute_us);
    w.field("pad_us", cell.pad_us);
    w.field("device_us", cell.device_us());
    w.field("queue_us", cell.queue_us);
    w.field("hbm_byte_us", cell.hbm_byte_us);
    w.field("device_share",
            busy_us > 0 ? cell.device_us() / busy_us : 0.0);
}

void
write_reconcile(JsonWriter &w, const char *flag,
                const std::vector<std::string> &errors)
{
    w.field(flag, errors.empty());
    w.key("reconcile_errors");
    w.begin_array();
    for (const std::string &e : errors) {
        w.value(e);
    }
    w.end_array();
}

void
write_latency(JsonWriter &w, const prof::LatencySummary &s)
{
    w.begin_object();
    w.field("count", static_cast<std::int64_t>(s.count));
    w.field("mean_us", s.mean);
    w.field("p50_us", s.p50);
    w.field("p95_us", s.p95);
    w.field("p99_us", s.p99);
    w.field("max_us", s.max);
    w.end_object();
}

std::string
cost_report_json(const CostReport &cost, const CostRunInfo &info,
                 const std::vector<std::string> &errors,
                 const prof::RunManifest &manifest)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.begin_object();
        w.field("schema", prof::kServeCostReportSchema);
        w.field("schema_version", prof::kServeCostReportVersion);
        w.key("manifest");
        prof::write_manifest(w, manifest);
        w.field("preset", info.preset);
        w.field("device", info.device);
        w.field("seed", static_cast<std::int64_t>(info.seed));
        w.field("rounds", cost.rounds);
        w.field("busy_us", cost.busy_us);
        w.field("charged_device_us", cost.charged_device_us);
        w.field("charged_queue_us", cost.charged_queue_us);
        w.field("charged_hbm_byte_us", cost.charged_hbm_byte_us);
        write_reconcile(w, "conserved", errors);
        w.key("tenants");
        w.begin_array();
        for (const TenantCost &t : cost.tenants) {
            w.begin_object();
            w.field("tenant", t.tenant);
            write_cost_cell(w, t.total, cost.busy_us);
            w.key("latency");
            write_latency(w, t.latency);
            w.key("classes");
            w.begin_array();
            for (int c = 0; c < kNumSloClasses; ++c) {
                w.begin_object();
                w.field("class",
                        to_string(static_cast<SloClass>(c)));
                write_cost_cell(w, t.by_class[c], cost.busy_us);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    return os.str();
}

// ---- Time-series telemetry ----------------------------------------------

TelemetryRecorder::TelemetryRecorder(const std::vector<TenantSpec> &tenants)
    : fold_(std::make_unique<ServeFold>(tenants))
{
    for (const TenantSpec &t : tenants) {
        tenants_.push_back(t.name);
    }
}

TelemetryRecorder::~TelemetryRecorder() = default;

void
TelemetryRecorder::emit_through(double limit_us, bool inclusive)
{
    while (inclusive ? next_grid_us_ <= limit_us
                     : next_grid_us_ < limit_us) {
        TelemetrySample s;
        s.t_us = next_grid_us_;
        for (const auto &[id, b] : fold_->round_batches()) {
            s.in_flight += static_cast<int>(b.members.size());
            s.round_hbm_bytes = fold_->state().round_hbm_bytes.back();
        }
        for (const std::string &t : tenants_) {
            s.queue_depth.push_back(fold_->tenant(t).queued);
            s.bucket_fill.push_back(fold_->tenant(t).fill);
        }
        samples_.push_back(std::move(s));
        next_grid_us_ += kTelemetryIntervalUs;
    }
}

void
TelemetryRecorder::apply(const TraceEvent &e)
{
    emit_through(e.t_us, /*inclusive=*/false);
    fold_->apply(e);
}

void
TelemetryRecorder::finish(double end_us)
{
    emit_through(end_us, /*inclusive=*/true);
}

std::string
telemetry_csv(const TelemetryRecorder &recorder)
{
    std::ostringstream os;
    os << "t_us,in_flight,round_hbm_bytes";
    for (const std::string &t : recorder.tenants()) {
        os << ",queue_depth." << t;
    }
    for (const std::string &t : recorder.tenants()) {
        os << ",bucket_fill." << t;
    }
    os << "\n";
    for (const TelemetrySample &s : recorder.samples()) {
        os << s.t_us << "," << s.in_flight << "," << s.round_hbm_bytes;
        for (const std::size_t d : s.queue_depth) {
            os << "," << d;
        }
        for (const double f : s.bucket_fill) {
            os << "," << f;
        }
        os << "\n";
    }
    return os.str();
}

}  // namespace multigrain::serve
