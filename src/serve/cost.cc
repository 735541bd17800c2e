#include "serve/cost.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "profiler/export.h"
#include "serve/server.h"

namespace multigrain::serve {

// ---- TenantLedger -------------------------------------------------------

TenantLedger::TenantLedger(const std::vector<TenantSpec> &tenants)
{
    tenants_.reserve(tenants.size());
    for (const TenantSpec &t : tenants) {
        TenantState state;
        state.name = t.name;
        tenants_.push_back(std::move(state));
    }
}

TenantLedger::TenantState &
TenantLedger::state_for(const std::string &tenant)
{
    for (TenantState &s : tenants_) {
        if (s.name == tenant) {
            return s;
        }
    }
    TenantState state;
    state.name = tenant;
    tenants_.push_back(std::move(state));
    return tenants_.back();
}

CostCell &
TenantLedger::cell_for(const Request &r)
{
    const int slo = static_cast<int>(r.slo);
    MG_CHECK(slo >= 0 && slo < kNumSloClasses)
        << "request with unknown SLO class " << slo;
    return state_for(r.tenant).by_class[slo];
}

void
TenantLedger::charge_round(double round_us,
                           const std::vector<BatchCharge> &batches)
{
    MG_CHECK(!batches.empty()) << "charge_round without batches";
    ++rounds_;
    double span_sum = 0;
    for (const BatchCharge &b : batches) {
        MG_CHECK(b.requests != nullptr && !b.requests->empty())
            << "batch charge without members";
        span_sum += b.device_us;
    }
    for (const BatchCharge &b : batches) {
        // Concurrent batches share the round span they co-occupy:
        // each gets the round pro-rata by its own device span, so the
        // batch charges sum back to round_us — the exact quantity
        // ServeReport::busy_us accumulated for this round.
        const double batch_device =
            span_sum > 0
                ? round_us * (b.device_us / span_sum)
                : round_us / static_cast<double>(batches.size());
        double useful_tokens = 0;
        for (const Request &r : *b.requests) {
            useful_tokens += static_cast<double>(r.valid_len);
        }
        const double planned_tokens =
            static_cast<double>(b.planned_batch) *
            static_cast<double>(b.bucket);
        const double pad_frac =
            planned_tokens > 0
                ? std::max(0.0, 1.0 - useful_tokens / planned_tokens)
                : 0.0;
        const double pad_total = batch_device * pad_frac;
        const double compute_total = batch_device - pad_total;
        const double byte_us =
            static_cast<double>(b.footprint_bytes) * batch_device;
        const double members =
            static_cast<double>(b.requests->size());
        for (const Request &r : *b.requests) {
            CostCell &cell = cell_for(r);
            // Compute by useful-token share, pad and byte residency
            // pro-rata: every member needed the padded plan to run.
            cell.compute_us +=
                useful_tokens > 0
                    ? compute_total *
                          (static_cast<double>(r.valid_len) /
                           useful_tokens)
                    : compute_total / members;
            cell.pad_us += pad_total / members;
            cell.hbm_byte_us += byte_us / members;
        }
        charged_device_us_ += batch_device;
        charged_hbm_byte_us_ += byte_us;
    }
}

void
TenantLedger::note_completed(const Request &r, double queue_us,
                             double latency_us, bool deadline_met)
{
    TenantState &state = state_for(r.tenant);
    CostCell &cell = cell_for(r);
    ++cell.completed;
    if (!deadline_met) {
        ++cell.deadline_miss;
    }
    cell.queue_us += queue_us;
    charged_queue_us_ += queue_us;
    state.latencies.push_back(latency_us);
}

void
TenantLedger::note_shed(const Request &r, AdmitDecision::Shed reason)
{
    CostCell &cell = cell_for(r);
    switch (reason) {
      case AdmitDecision::Shed::kRateLimit:
        ++cell.shed_ratelimit;
        break;
      case AdmitDecision::Shed::kCapacity:
        ++cell.shed_capacity;
        break;
      case AdmitDecision::Shed::kMemory:
        ++cell.shed_memory;
        break;
      case AdmitDecision::Shed::kNone:
        MG_CHECK(false) << "note_shed on an admitted request";
    }
}

void
TenantLedger::note_aged_out(const Request &r, double waited_us)
{
    CostCell &cell = cell_for(r);
    ++cell.aged_out;
    cell.queue_us += waited_us;
    charged_queue_us_ += waited_us;
}

void
TenantLedger::note_lost(const Request &r, double queue_us)
{
    CostCell &cell = cell_for(r);
    ++cell.lost_in_flight;
    cell.queue_us += queue_us;
    charged_queue_us_ += queue_us;
}

std::vector<std::pair<std::string, double>>
TenantLedger::charged_device_by_tenant() const
{
    std::vector<std::pair<std::string, double>> charged;
    charged.reserve(tenants_.size());
    for (const TenantState &state : tenants_) {
        double device_us = 0;
        for (int c = 0; c < kNumSloClasses; ++c) {
            device_us += state.by_class[c].device_us();
        }
        charged.emplace_back(state.name, device_us);
    }
    return charged;
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

CostReport
TenantLedger::finish(double busy_us) const
{
    CostReport report;
    report.rounds = rounds_;
    report.busy_us = busy_us;
    report.charged_device_us = charged_device_us_;
    report.charged_queue_us = charged_queue_us_;
    report.charged_hbm_byte_us = charged_hbm_byte_us_;
    report.tenants.reserve(tenants_.size());
    for (const TenantState &state : tenants_) {
        TenantCost tc;
        tc.tenant = state.name;
        for (int c = 0; c < kNumSloClasses; ++c) {
            tc.by_class[c] = state.by_class[c];
            add_cell(tc.total, state.by_class[c]);
        }
        tc.latency = prof::summarize_latencies(state.latencies);
        report.tenants.push_back(std::move(tc));
    }
    return report;
}

// ---- Reconciliation -----------------------------------------------------

std::vector<std::string>
reconcile_cost(const CostReport &cost, const ServeReport &report)
{
    std::vector<std::string> errors;
    const auto check = [&errors](bool ok, const std::string &msg) {
        if (!ok) {
            errors.push_back(msg);
        }
    };
    const auto mismatch = [](const std::string &what, double got,
                             double want) {
        std::ostringstream os;
        os << what << ": ledger says " << got << ", ServeReport says "
           << want;
        return os.str();
    };

    // ---- The conservation invariant -----------------------------------
    // Per-tenant charged device time must telescope back to the total
    // device-busy time: the ledger split every round without losing or
    // inventing a microsecond.
    double device_sum = 0;
    double queue_sum = 0;
    double byte_sum = 0;
    CostCell counts;  // Counter totals across tenants (exact).
    for (const TenantCost &t : cost.tenants) {
        device_sum += t.total.device_us();
        queue_sum += t.total.queue_us;
        byte_sum += t.total.hbm_byte_us;
        add_cell(counts, t.total);

        // A tenant's total must be its class cells, nothing more.
        CostCell from_classes;
        for (int c = 0; c < kNumSloClasses; ++c) {
            add_cell(from_classes, t.by_class[c]);
        }
        check(close_rel(t.total.device_us(), from_classes.device_us()) &&
                  t.total.completed == from_classes.completed &&
                  t.total.offered() == from_classes.offered(),
              "tenant " + t.tenant +
                  ": total does not match its class cells");
    }
    check(close_rel(device_sum, cost.busy_us),
          mismatch("charged device time", device_sum, cost.busy_us));
    check(close_rel(cost.charged_device_us, cost.busy_us),
          mismatch("ledger device total", cost.charged_device_us,
                   cost.busy_us));
    check(cost.busy_us == report.busy_us,
          mismatch("busy_us", cost.busy_us, report.busy_us));
    check(close_rel(byte_sum, cost.charged_hbm_byte_us),
          mismatch("HBM byte-time", byte_sum,
                   cost.charged_hbm_byte_us));
    check(cost.rounds == report.rounds,
          mismatch("rounds", static_cast<double>(cost.rounds),
                   static_cast<double>(report.rounds)));

    // ---- Counters are integers: exact or wrong ------------------------
    const AdmissionStats &adm = report.admission;
    check(counts.completed == report.completed,
          mismatch("completed", static_cast<double>(counts.completed),
                   static_cast<double>(report.completed)));
    check(counts.shed_capacity + counts.shed_memory +
                  counts.shed_ratelimit ==
              adm.rejected,
          mismatch("sheds",
                   static_cast<double>(counts.shed_capacity +
                                       counts.shed_memory +
                                       counts.shed_ratelimit),
                   static_cast<double>(adm.rejected)));
    check(counts.shed_memory == adm.shed_memory,
          mismatch("shed_memory",
                   static_cast<double>(counts.shed_memory),
                   static_cast<double>(adm.shed_memory)));
    check(counts.shed_ratelimit == adm.shed_ratelimit,
          mismatch("shed_ratelimit",
                   static_cast<double>(counts.shed_ratelimit),
                   static_cast<double>(adm.shed_ratelimit)));
    check(counts.aged_out == adm.timed_out,
          mismatch("aged_out", static_cast<double>(counts.aged_out),
                   static_cast<double>(adm.timed_out)));
    check(counts.deadline_miss == report.deadline_miss,
          mismatch("deadline_miss",
                   static_cast<double>(counts.deadline_miss),
                   static_cast<double>(report.deadline_miss)));
    check(counts.lost_in_flight == report.lost_in_flight,
          mismatch("lost_in_flight",
                   static_cast<double>(counts.lost_in_flight),
                   static_cast<double>(report.lost_in_flight)));
    // Every offer either reached a terminal cell here or was drained to
    // the router when the replica died — drained requests are the one
    // non-terminal exit, so they reconcile the offered count.
    check(counts.offered() + adm.drained == adm.offered,
          mismatch("offered",
                   static_cast<double>(counts.offered() + adm.drained),
                   static_cast<double>(adm.offered)));

    // ---- Queue occupancy re-derived from the request records ----------
    double want_queue = 0;
    for (const RequestRecord &rec : report.records) {
        if (rec.outcome == RequestRecord::Outcome::kCompleted ||
            rec.outcome == RequestRecord::Outcome::kLostReplica) {
            want_queue += rec.queue_us();
        } else if (rec.outcome == RequestRecord::Outcome::kTimedOut) {
            want_queue += rec.finish_us - rec.request.arrival_us;
        }
    }
    check(close_rel(queue_sum, want_queue),
          mismatch("queue occupancy", queue_sum, want_queue));
    check(close_rel(cost.charged_queue_us, want_queue),
          mismatch("ledger queue total", cost.charged_queue_us,
                   want_queue));

    // ---- Per-tenant counters re-derived from the records --------------
    for (const TenantCost &t : cost.tenants) {
        std::uint64_t completed = 0;
        std::uint64_t rejected = 0;
        std::uint64_t aged = 0;
        std::uint64_t lost = 0;
        for (const RequestRecord &rec : report.records) {
            if (rec.request.tenant != t.tenant) {
                continue;
            }
            switch (rec.outcome) {
              case RequestRecord::Outcome::kCompleted:
                ++completed;
                break;
              case RequestRecord::Outcome::kRejected:
                ++rejected;
                break;
              case RequestRecord::Outcome::kTimedOut:
                ++aged;
                break;
              case RequestRecord::Outcome::kLostReplica:
                ++lost;
                break;
            }
        }
        check(t.total.completed == completed,
              mismatch("tenant " + t.tenant + " completed",
                       static_cast<double>(t.total.completed),
                       static_cast<double>(completed)));
        check(t.total.shed_capacity + t.total.shed_memory +
                      t.total.shed_ratelimit ==
                  rejected,
              mismatch("tenant " + t.tenant + " sheds",
                       static_cast<double>(t.total.shed_capacity +
                                           t.total.shed_memory +
                                           t.total.shed_ratelimit),
                       static_cast<double>(rejected)));
        check(t.total.aged_out == aged,
              mismatch("tenant " + t.tenant + " aged_out",
                       static_cast<double>(t.total.aged_out),
                       static_cast<double>(aged)));
        check(t.total.lost_in_flight == lost,
              mismatch("tenant " + t.tenant + " lost_in_flight",
                       static_cast<double>(t.total.lost_in_flight),
                       static_cast<double>(lost)));
        check(t.latency.count == t.total.completed,
              mismatch("tenant " + t.tenant + " latency samples",
                       static_cast<double>(t.latency.count),
                       static_cast<double>(t.total.completed)));
    }
    return errors;
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
        w.field("conserved", errors.empty());
        w.key("reconcile_errors");
        w.begin_array();
        for (const std::string &e : errors) {
            w.value(e);
        }
        w.end_array();
        w.key("tenants");
        w.begin_array();
        for (const TenantCost &t : cost.tenants) {
            w.begin_object();
            w.field("tenant", t.tenant);
            write_cost_cell(w, t.total, cost.busy_us);
            w.key("latency");
            w.begin_object();
            w.field("count", static_cast<std::int64_t>(t.latency.count));
            w.field("mean_us", t.latency.mean);
            w.field("p50_us", t.latency.p50);
            w.field("p95_us", t.latency.p95);
            w.field("p99_us", t.latency.p99);
            w.field("max_us", t.latency.max);
            w.end_object();
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

std::string
cost_report_json(const CostReport &cost, const CostRunInfo &info,
                 const std::vector<std::string> &errors)
{
    return cost_report_json(cost, info, errors,
                            prof::RunManifest::collect(info.device));
}

// ---- Time-series telemetry ----------------------------------------------

TelemetryRecorder::TelemetryRecorder(TelemetryConfig config,
                                     std::vector<std::string> tenants)
    : config_(config), tenants_(std::move(tenants))
{
    MG_CHECK(config_.interval_us > 0)
        << "telemetry interval must be positive";
    current_.queue_depth.assign(tenants_.size(), 0);
    current_.bucket_fill.assign(tenants_.size(), 0.0);
}

void
TelemetryRecorder::emit_through(double limit_us, bool inclusive)
{
    while (inclusive ? next_grid_us_ <= limit_us
                     : next_grid_us_ < limit_us) {
        TelemetrySample s = current_;
        s.t_us = next_grid_us_;
        samples_.push_back(std::move(s));
        next_grid_us_ += config_.interval_us;
    }
}

void
TelemetryRecorder::observe(double now_us, TelemetrySample state)
{
    emit_through(now_us, /*inclusive=*/false);
    // Tenants discovered mid-run would desync the columns; clamp the
    // vectors to the construction-time tenant list.
    state.queue_depth.resize(tenants_.size(), 0);
    state.bucket_fill.resize(tenants_.size(), 0.0);
    current_ = std::move(state);
}

void
TelemetryRecorder::finish(double end_us)
{
    emit_through(end_us, /*inclusive=*/true);
}

void
write_telemetry_csv(const TelemetryRecorder &recorder, std::ostream &os)
{
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
}

std::string
telemetry_csv(const TelemetryRecorder &recorder)
{
    std::ostringstream os;
    write_telemetry_csv(recorder, os);
    return os.str();
}

}  // namespace multigrain::serve
