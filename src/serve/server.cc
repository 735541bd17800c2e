#include "serve/server.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/error.h"
#include "serve/trace.h"
#include "transformer/config.h"
#include "transformer/workload.h"

namespace multigrain::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The fields every request event carries.
TraceEvent
request_event(TraceEventKind kind, double t_us, const Request &r)
{
    TraceEvent e;
    e.kind = kind;
    e.t_us = t_us;
    e.request = static_cast<std::int64_t>(r.id);
    return e;
}

/// tiny: the gate preset — Poisson traffic over the tiny test model with
/// three tenants across all SLO classes, sized so batches form (arrival
/// interval well below the round time) without overflowing the queue.
ServeConfig
preset_tiny()
{
    ServeConfig c;
    c.preset = "tiny";
    c.traffic.arrivals = ArrivalProcess::kPoisson;
    c.traffic.rate_rps = 20000;
    c.traffic.num_requests = 64;
    c.traffic.seed = 2022;
    c.traffic.models = {"tiny"};
    c.traffic.min_len = 16;
    c.traffic.tenants = {{"alice", 2.0, SloClass::kInteractive},
                         {"bob", 2.0, SloClass::kStandard},
                         {"carol", 1.0, SloClass::kBatch}};
    c.traffic.slo_budget_us[static_cast<int>(SloClass::kInteractive)] =
        600;
    c.traffic.slo_budget_us[static_cast<int>(SloClass::kStandard)] = 2000;
    c.admission.queue_capacity = 32;
    c.scheduler.max_batch = 4;
    c.scheduler.bucket_granularity = 64;
    c.scheduler.max_concurrent_batches = 2;
    return c;
}

/// steady: QDS-Transformer under moderate open-loop load with mixed
/// document lengths — the bucket-spread workload (512-token buckets).
ServeConfig
preset_steady()
{
    ServeConfig c;
    c.preset = "steady";
    c.traffic.arrivals = ArrivalProcess::kPoisson;
    c.traffic.rate_rps = 250;
    c.traffic.num_requests = 24;
    c.traffic.seed = 2022;
    c.traffic.models = {"qds"};
    c.traffic.min_len = 256;
    c.traffic.tenants = {{"search", 3.0, SloClass::kInteractive},
                         {"archive", 1.0, SloClass::kBatch}};
    c.traffic.slo_budget_us[static_cast<int>(SloClass::kInteractive)] =
        30000;
    c.admission.queue_capacity = 64;
    c.scheduler.max_batch = 2;
    c.scheduler.bucket_granularity = 512;
    c.scheduler.max_concurrent_batches = 2;
    return c;
}

/// overload: arrivals far beyond service capacity into a tight queue —
/// the admission-control preset. Must shed (tests assert a nonzero
/// rejected count and a max depth at the configured bound).
ServeConfig
preset_overload()
{
    ServeConfig c;
    c.preset = "overload";
    c.traffic.arrivals = ArrivalProcess::kPoisson;
    c.traffic.rate_rps = 100000;
    c.traffic.num_requests = 60;
    c.traffic.seed = 2022;
    c.traffic.models = {"tiny"};
    c.traffic.min_len = 16;
    c.traffic.tenants = {{"flood", 4.0, SloClass::kStandard},
                         {"victim", 1.0, SloClass::kInteractive}};
    c.traffic.slo_budget_us[static_cast<int>(SloClass::kInteractive)] =
        400;
    c.admission.queue_capacity = 8;
    c.admission.max_queue_wait_us = 1500;
    c.scheduler.max_batch = 2;
    c.scheduler.bucket_granularity = 64;
    c.scheduler.max_concurrent_batches = 1;
    return c;
}

/// closed: a closed loop of clients with think time — self-throttling
/// traffic whose arrival times depend on completions (the feedback path
/// of TrafficSource::on_completion).
ServeConfig
preset_closed()
{
    ServeConfig c;
    c.preset = "closed";
    c.traffic.arrivals = ArrivalProcess::kClosedLoop;
    c.traffic.concurrency = 6;
    c.traffic.think_time_us = 50;
    c.traffic.num_requests = 36;
    c.traffic.seed = 2022;
    c.traffic.models = {"tiny"};
    c.traffic.min_len = 16;
    c.traffic.tenants = {{"loop", 1.0, SloClass::kStandard}};
    c.admission.queue_capacity = 16;
    c.scheduler.max_batch = 4;
    c.scheduler.bucket_granularity = 64;
    c.scheduler.max_concurrent_batches = 2;
    return c;
}

/// memtight: the tiny traffic shape against an artificially small HBM
/// allowance — the byte-budget preset. Requests are priced by their
/// bucketed single-request MemPlan peak; admission sheds on projected
/// queue bytes (tests assert shed_memory > 0) and round formation packs
/// batches to a per-round byte budget, so both byte valves are
/// exercised by one deterministic run. The budgets are expressed as
/// multiples of the tiny model's bucket-64 single-request footprint
/// (~0.5 MB plan peak x layers) rather than a real device capacity —
/// tiny-model plans would never pressure 80 GB.
ServeConfig
preset_memtight()
{
    ServeConfig c = preset_tiny();
    c.preset = "memtight";
    // Queue holds ~3 priced requests' worth of projected bytes (a
    // bucket-64 single-request plan peaks at ~430 KB x layers); the
    // round budget fits one modest batch but not the full two-batch
    // round the tiny preset dispatches (~2.4 MiB).
    c.admission.hbm_budget_bytes = 1280ull << 10;      // 1.25 MiB.
    c.scheduler.round_hbm_budget_bytes = 768ull << 10;  // 0.75 MiB.
    return c;
}

/// noisy: the tiny traffic shape plus a misbehaving fourth tenant whose
/// weight claims most of the offered load but whose token bucket only
/// admits 2000 req/s with a 2-token burst — the rate-limiting preset.
/// The bucket throttles "hog" at the door (tests assert its
/// shed_ratelimit > 0) while the victims' tail latency stays bounded.
ServeConfig
preset_noisy()
{
    ServeConfig c = preset_tiny();
    c.preset = "noisy";
    c.traffic.num_requests = 96;
    c.traffic.tenants = {
        {"alice", 2.0, SloClass::kInteractive},
        {"bob", 2.0, SloClass::kStandard},
        {"carol", 1.0, SloClass::kBatch},
        {"hog", 8.0, SloClass::kBatch, /*rate_rps=*/2000, /*burst=*/2},
    };
    return c;
}

/// The key of runners_ and footprints_.
std::string
plan_key(const std::string &model, SliceMode mode, index_t bucket,
         int planned_batch)
{
    return model + "|" + to_string(mode) + "|bucket=" +
           std::to_string(bucket) + "|batch=" + std::to_string(planned_batch);
}

}  // namespace

const std::vector<ServePresetInfo> &
serve_presets()
{
    static const std::vector<ServePresetInfo> presets = {
        {"tiny",
         "Poisson traffic, tiny model, 3 tenants / 3 SLO classes "
         "(the gated preset)",
         preset_tiny},
        {"steady", "QDS-Transformer, moderate Poisson load, 512-token "
                   "buckets",
         preset_steady},
        {"overload", "arrivals beyond capacity into a tight queue — "
                     "sheds and times out",
         preset_overload},
        {"closed", "closed loop of 6 clients with think time",
         preset_closed},
        {"memtight", "tiny traffic under a small HBM budget — sheds on "
                     "memory and packs rounds to bytes",
         preset_memtight},
        {"noisy", "tiny traffic plus a rate-limited hog tenant — the "
                  "token-bucket / noisy-neighbor preset",
         preset_noisy},
    };
    return presets;
}

ServeConfig
serve_preset_by_name(const std::string &name)
{
    for (const ServePresetInfo &preset : serve_presets()) {
        if (name == preset.name) {
            return preset.make();
        }
    }
    throw Error("unknown serve preset \"" + name +
                "\" (tiny|steady|overload|closed|memtight|noisy)");
}

Server::Server(ServeConfig config, sim::DeviceSpec device)
    : config_(std::move(config)),
      device_(std::move(device)),
      fold_(config_.traffic.tenants)
{
}

TransformerRunner &
Server::runner_for(const std::string &model, SliceMode mode,
                   index_t bucket, int planned_batch)
{
    std::unique_ptr<TransformerRunner> &slot =
        runners_[plan_key(model, mode, bucket, planned_batch)];
    if (slot == nullptr) {
        const ModelConfig bucketed =
            bucketed_model(model_config_by_name(model), bucket);
        slot = std::make_unique<TransformerRunner>(
            bucketed, mode, canonical_bucket_sample(bucketed, bucket),
            planned_batch);
    }
    return *slot;
}

std::uint64_t
Server::batch_footprint(const std::string &model, SliceMode mode,
                        index_t bucket, int planned_batch)
{
    const std::string key = plan_key(model, mode, bucket, planned_batch);
    const auto it = footprints_.find(key);
    if (it != footprints_.end()) {
        return it->second;
    }
    const TransformerRunner &runner =
        runner_for(model, mode, bucket, planned_batch);
    const std::uint64_t bytes =
        runner
            .layer_memplan(device_, TransformerRunner::LayerKind::kInference)
            ->peak_hbm_bytes() *
        static_cast<std::uint64_t>(runner.model().num_layers);
    footprints_.emplace(key, bytes);
    return bytes;
}

// ---- The fold -----------------------------------------------------------

ServeFold::ServeFold(const std::vector<TenantSpec> &tenants)
{
    for (const TenantSpec &t : tenants) {
        tenant_row(state_.cost.tenants, t.name);
        tenants_[t.name].fill = TokenBucket(t).fill();
    }
}

CostCell &
ServeFold::cell(const Request &r)
{
    const int slo = static_cast<int>(r.slo);
    MG_CHECK(slo >= 0 && slo < kNumSloClasses)
        << "request with unknown SLO class " << slo;
    return tenant_row(state_.cost.tenants, r.tenant).by_class[slo];
}

ServeFold::Arrival &
ServeFold::live(std::int64_t id)
{
    const auto it = live_.find(id);
    MG_CHECK(it != live_.end())
        << "event for request " << id << " that is not live";
    return it->second;
}

Request
ServeFold::leave(std::int64_t id, const char *outcome, double t_us,
                 const BatchState *batch)
{
    Arrival &a = live(id);
    // The boundaries a request never reached collapse onto t_us.
    RequestSpans &s = spans_.emplace_back();
    s.request = id;
    s.tenant = a.request.tenant;
    s.model = a.request.model;
    s.slo = static_cast<int>(a.request.slo);
    s.outcome = outcome;
    s.valid_len = a.request.valid_len;
    s.arrive_us = a.t_us;
    s.admit_us = a.admit_us;
    s.batched_us = s.dispatched_us = s.finish_us = t_us;
    if (batch != nullptr) {
        const TraceEvent &form = batch->form;
        s.bucket = form.bucket;
        s.batch = form.batch;
        s.round = form.round;
        s.batched_us = form.t_us;
        s.dispatched_us = round_dispatch_us_;
    }
    Request r = std::move(a.request);
    live_.erase(id);
    return r;
}

RequestRecord &
ServeFold::retire(Request r, RequestRecord::Outcome outcome,
                  double finish_us)
{
    RequestRecord &rec = state_.records.emplace_back();
    rec.request = std::move(r);
    rec.outcome = outcome;
    rec.finish_us = finish_us;
    return rec;
}

void
ServeFold::apply(const TraceEvent &e)
{
    using Kind = TraceEventKind;
    using Outcome = RequestRecord::Outcome;
    switch (e.kind) {
      case Kind::kArrive:
        live_[e.request] = {{.id = static_cast<std::uint64_t>(e.request),
                             .tenant = e.tenant,
                             .model = e.model,
                             .valid_len = e.valid_len,
                             .arrival_us = e.arrival_us,
                             .slo = static_cast<SloClass>(e.slo),
                             .deadline_us = e.deadline_us},
                            e.t_us};
        break;
      case Kind::kAdmit: {
        Arrival &a = live(e.request);
        a.admit_us = e.t_us;
        TenantLive &t = tenants_[a.request.tenant];
        t.fill = e.fill;
        ++t.queued;
        ++live_counts_.queued;
        break;
      }
      case Kind::kShed:
      case Kind::kShedRateLimit: {
        const bool rate = e.kind == Kind::kShedRateLimit;
        Arrival &a = live(e.request);
        a.admit_us = e.t_us;
        tenants_[a.request.tenant].fill = e.fill;
        CostCell &c = cell(a.request);
        ++(rate ? c.shed_ratelimit : e.flag ? c.shed_memory : c.shed_capacity);
        ++live_counts_.sheds;
        live_counts_.ratelimit_sheds += rate;
        // A shed request's record ends where it arrived on this replica.
        const double arrived_us = a.t_us;
        retire(leave(e.request, rate ? "rate_limited" : "shed", e.t_us),
               Outcome::kRejected, arrived_us);
        break;
      }
      case Kind::kAgeOut:
      case Kind::kDrain: {
        --tenants_[live(e.request).request.tenant].queued;
        --live_counts_.queued;
        const bool aged = e.kind == Kind::kAgeOut;
        Request r = leave(e.request, aged ? "aged_out" : "drained", e.t_us);
        if (!aged) {
            // Not terminal: the router re-offers it, and a re-arrival
            // here starts a new visit.
            break;
        }
        CostCell &c = cell(r);
        ++c.aged_out;
        // It held a queue slot the whole time.
        const double waited_us = e.t_us - r.arrival_us;
        c.queue_us += waited_us;
        state_.cost.charged_queue_us += waited_us;
        retire(std::move(r), Outcome::kTimedOut, e.t_us).deadline_met =
            false;
        break;
      }
      case Kind::kBatchForm: {
        const Request &r = live(e.request).request;
        --tenants_[r.tenant].queued;
        --live_counts_.queued;
        ++live_counts_.in_flight;
        BatchState &b = batches_[e.batch];
        if (b.members.empty()) {
            b.form = e;
        }
        b.useful_tokens += static_cast<double>(r.valid_len);
        b.members.push_back(r);
        break;
      }
      case Kind::kRoundDispatch:
        round_dispatch_us_ = e.t_us;
        state_.round_hbm_bytes.push_back(e.hbm_bytes);
        break;
      case Kind::kComplete:
      case Kind::kLost: {
        const auto b = batches_.find(e.batch);
        MG_CHECK(b != batches_.end()) << "request of an unknown batch";
        const bool done = e.kind == Kind::kComplete;
        --live_counts_.in_flight;
        RequestRecord &rec = retire(
            leave(e.request, done ? "completed" : "lost", e.t_us, &b->second),
            done ? Outcome::kCompleted : Outcome::kLostReplica, e.t_us);
        rec.dispatch_us = b->second.form.t_us;
        rec.deadline_met = done && e.flag;
        RequestSpans &s = spans_.back();
        s.deadline_met = rec.deadline_met;
        // Padding share of the batch's device time: the plan ran
        // planned_batch × bucket tokens, the members brought the
        // useful ones.
        const double planned_tokens =
            static_cast<double>(b->second.form.planned_batch) *
            static_cast<double>(s.bucket);
        if (done && planned_tokens > 0) {
            s.pad_us = s.device_us() *
                       std::max(0.0, 1.0 - b->second.useful_tokens /
                                               planned_tokens);
        }
        CostCell &c = cell(rec.request);
        ++(done ? c.completed : c.lost_in_flight);
        if (done && !e.flag) {
            ++c.deadline_miss;
        }
        c.queue_us += rec.queue_us();
        state_.cost.charged_queue_us += rec.queue_us();
        break;
      }
      case Kind::kBatchDone: {
        const auto b = batches_.find(e.batch);
        MG_CHECK(b != batches_.end()) << "done of an unknown batch";
        b->second.done_us = e.t_us;
        state_.batch_histogram[b->second.form.actual_batch] += 1;
        break;
      }
      case Kind::kRoundDone:
        charge_round(e.t_us - round_dispatch_us_);
        batches_.clear();
        break;
    }
}

void
ServeFold::charge_round(double round_us)
{
    MG_CHECK(!batches_.empty()) << "round done without batches";
    ++state_.cost.rounds;
    double span_sum = 0;
    for (const auto &[id, b] : batches_) {
        span_sum += b.done_us - b.form.t_us;
    }
    // Batch ids rise in formation order, so this walks the round's
    // batches, and each batch's members, in the order they formed.
    for (const auto &[id, b] : batches_) {
        // Concurrent batches share the round span they co-occupy: each
        // gets the round pro-rata by its own device span, so the batch
        // charges sum back to round_us — the exact quantity the Server
        // added to busy_us for this round.
        const double batch_device =
            span_sum > 0
                ? round_us * ((b.done_us - b.form.t_us) / span_sum)
                : round_us / static_cast<double>(batches_.size());
        const double useful_tokens = b.useful_tokens;
        const double planned_tokens =
            static_cast<double>(b.form.planned_batch) *
            static_cast<double>(b.form.bucket);
        const double pad_frac =
            planned_tokens > 0
                ? std::max(0.0, 1.0 - useful_tokens / planned_tokens)
                : 0.0;
        const double pad_total = batch_device * pad_frac;
        const double compute_total = batch_device - pad_total;
        const double byte_us =
            static_cast<double>(b.form.footprint_bytes) * batch_device;
        const double members = static_cast<double>(b.members.size());
        for (const Request &r : b.members) {
            CostCell &c = cell(r);
            // Compute by useful-token share, pad and byte residency
            // pro-rata: every member needed the padded plan to run.
            c.compute_us += useful_tokens > 0
                                ? compute_total *
                                      (static_cast<double>(r.valid_len) /
                                       useful_tokens)
                                : compute_total / members;
            c.pad_us += pad_total / members;
            c.hbm_byte_us += byte_us / members;
        }
        state_.cost.charged_device_us += batch_device;
        state_.cost.charged_hbm_byte_us += byte_us;
    }
}

void
reduce_records(const std::vector<RequestRecord> &records,
               RecordSummary &summary, CostReport &cost)
{
    std::vector<double> latencies;
    std::vector<double> by_class[kNumSloClasses];
    std::vector<std::vector<double>> by_tenant(cost.tenants.size());
    double first_arrival = kInf;
    double last_finish = 0;
    for (const RequestRecord &rec : records) {
        if (rec.outcome == RequestRecord::Outcome::kLostReplica) {
            ++summary.lost_in_flight;
        }
        if (rec.outcome != RequestRecord::Outcome::kCompleted) {
            continue;
        }
        ++summary.completed;
        if (!rec.deadline_met) {
            ++summary.deadline_miss;
        }
        latencies.push_back(rec.latency_us());
        by_class[static_cast<int>(rec.request.slo)].push_back(
            rec.latency_us());
        for (std::size_t t = 0; t < cost.tenants.size(); ++t) {
            if (cost.tenants[t].tenant == rec.request.tenant) {
                by_tenant[t].push_back(rec.latency_us());
            }
        }
        first_arrival = std::min(first_arrival, rec.request.arrival_us);
        last_finish = std::max(last_finish, rec.finish_us);
    }
    summary.latency = prof::summarize_latencies(std::move(latencies));
    for (int c = 0; c < kNumSloClasses; ++c) {
        summary.latency_by_class[c] =
            prof::summarize_latencies(std::move(by_class[c]));
    }
    for (std::size_t t = 0; t < cost.tenants.size(); ++t) {
        cost.tenants[t].latency =
            prof::summarize_latencies(std::move(by_tenant[t]));
    }
    if (summary.completed > 0) {
        summary.makespan_us = last_finish - first_arrival;
    }
    if (summary.makespan_us > 0) {
        summary.throughput_rps = static_cast<double>(summary.completed) /
                                 (summary.makespan_us / 1e6);
    }
}

// ---- Step-wise driving (ISSUE 9) ----------------------------------------

void
Server::emit(TraceEvent e, const sim::SimResult *round_sim)
{
    fold_.apply(e);
    if (trace_) {
        trace_->record(std::move(e), round_sim);
    }
}

void
Server::begin()
{
    MG_CHECK(!begun_) << "Server::begin may be called once";
    begun_ = true;
    cache_before_ = PlanCache::instance().stats();
    // The specs carry each tenant's token-bucket rate limit; the queue
    // builds one bucket per tenant from them.
    queue_.emplace(config_.admission, config_.traffic.tenants);
    scheduler_.emplace(config_.scheduler, config_.traffic.models);
    // Byte packing (scheduler) and memory shedding (admission) both
    // price work with the cached MemPlans' peak footprints.
    scheduler_->set_footprint(
        [this](const std::string &model, SliceMode m, index_t bucket,
               int planned) {
            return batch_footprint(model, m, bucket, planned);
        });
}

bool
Server::offer(Request r, double now_us, bool reoffer)
{
    // Requests carry the preset's processing method.
    r.mode = config_.mode;
    if (config_.admission.hbm_budget_bytes > 0) {
        // Price the request for memory shedding: what it would cost to
        // serve alone in its bucket.
        r.footprint_bytes = batch_footprint(
            r.model, r.mode, scheduler_->bucket_of(r),
            scheduler_->planned_batch(1));
    }
    // A re-offered request keeps its original arrival (latency is
    // measured from when the user issued it) but re-arrives on this
    // replica's log at the reroute time, so each replica's log is
    // self-contained.
    TraceEvent arrive = request_event(
        TraceEventKind::kArrive, reoffer ? now_us : r.arrival_us, r);
    arrive.tenant = r.tenant;
    arrive.model = r.model;
    arrive.slo = static_cast<int>(r.slo);
    arrive.valid_len = r.valid_len;
    arrive.deadline_us = r.deadline_us;
    arrive.arrival_us = r.arrival_us;
    emit(std::move(arrive));

    TraceEvent e = request_event(TraceEventKind::kAdmit, now_us, r);
    const AdmitDecision decision = reoffer
                                       ? queue_->reoffer(std::move(r), now_us)
                                       : queue_->offer(std::move(r), now_us);
    if (!decision) {
        // A token-bucket shed gets its own event kind; the depth and
        // memory valves share kShed, told apart by its flag.
        e.kind = decision.reason == AdmitDecision::Shed::kRateLimit
                     ? TraceEventKind::kShedRateLimit
                     : TraceEventKind::kShed;
        e.flag = decision.reason == AdmitDecision::Shed::kMemory;
    }
    e.fill = decision.fill;
    emit(std::move(e));
    return static_cast<bool>(decision);
}

void
Server::ingest(Request r, double now_us)
{
    offer(std::move(r), now_us, /*reoffer=*/false);
}

bool
Server::reingest(Request r, double now_us)
{
    return offer(std::move(r), now_us, /*reoffer=*/true);
}

void
Server::expire(double now_us)
{
    for (const Request &r : queue_->expire(now_us)) {
        emit(request_event(TraceEventKind::kAgeOut, now_us, r));
    }
}

bool
Server::can_dispatch() const
{
    return begun_ && !down_ && !busy() && !queue_->empty();
}

void
Server::dispatch(double now_us)
{
    MG_CHECK(can_dispatch()) << "dispatch without can_dispatch";
    std::vector<Batch> round = scheduler_->next_round(*queue_);
    MG_CHECK(!round.empty()) << "dispatch on an empty queue";

    // The round's projected HBM watermark: the sum of its batches' plan
    // footprints. Computed for every round (budgeted or not) so the
    // report always carries the byte timeline.
    std::uint64_t hbm_bytes = 0;
    for (const Batch &b : round) {
        hbm_bytes += batch_footprint(b.model, b.mode, b.bucket,
                                     b.planned_batch);
    }

    // One simulator per round: every batch replays its cached layer
    // graphs under its own prefix and a fresh stream binding, so the
    // round's batches co-schedule across simulated streams.
    sim::GpuSim sim(device_);
    std::vector<std::string> prefixes;
    prefixes.reserve(round.size());
    for (std::size_t j = 0; j < round.size(); ++j) {
        prefixes.push_back("B" + std::to_string(j) + ".");
        std::vector<int> binding;
        runner_for(round[j].model, round[j].mode, round[j].bucket,
                   round[j].planned_batch)
            .plan_inference_into(sim, binding, prefixes[j]);
    }
    const sim::SimResult result = sim.run();

    // The round's batches live in the fold from their kBatchForm events
    // on; the Server keeps only when each will finish.
    const auto round_id =
        static_cast<std::int64_t>(fold_.state().round_hbm_bytes.size());
    for (std::size_t j = 0; j < round.size(); ++j) {
        const Batch &b = round[j];
        const std::uint64_t footprint =
            batch_footprint(b.model, b.mode, b.bucket, b.planned_batch);
        for (const Request &r : b.requests) {
            TraceEvent e =
                request_event(TraceEventKind::kBatchForm, now_us, r);
            e.batch = next_batch_id_;
            e.round = round_id;
            e.model = b.model;
            e.bucket = b.bucket;
            e.planned_batch = b.planned_batch;
            e.actual_batch = b.size();
            e.footprint_bytes = footprint;
            emit(std::move(e));
        }
        ++next_batch_id_;
        batch_finish_us_.push_back(now_us + result.finish_us(prefixes[j]));
    }
    gpu_free_us_ = now_us + result.total_us;
    busy_accum_us_ += gpu_free_us_ - now_us;
    TraceEvent e;
    e.kind = TraceEventKind::kRoundDispatch;
    e.t_us = now_us;
    e.round = round_id;
    e.actual_batch = static_cast<int>(round.size());
    e.hbm_bytes = hbm_bytes;
    emit(std::move(e), &result);
}

double
Server::busy_until() const
{
    return busy() ? gpu_free_us_ : kInf;
}

void
Server::end_round(double t_us, TrafficSource *source)
{
    MG_CHECK(busy()) << "end_round with no round running";
    // The events below leave the fold's running round in place until
    // its kRoundDone.
    std::int64_t round_id = -1;
    std::size_t j = 0;
    for (const auto &[id, b] : fold_.round_batches()) {
        const double finish_us = batch_finish_us_[j++];
        round_id = b.form.round;
        for (const Request &r : b.members) {
            TraceEvent e = request_event(
                source ? TraceEventKind::kComplete : TraceEventKind::kLost,
                source ? finish_us : t_us, r);
            e.batch = id;
            e.round = round_id;
            e.flag = source && finish_us <= r.deadline_us;
            emit(std::move(e));
            if (source) {
                source->on_completion(r, finish_us);
            }
        }
        // The span the fold charges the batch: its own, cut at a fault.
        TraceEvent done;
        done.kind = TraceEventKind::kBatchDone;
        done.t_us = std::min(finish_us, t_us);
        done.batch = id;
        done.round = round_id;
        emit(std::move(done));
    }
    TraceEvent e;
    e.kind = TraceEventKind::kRoundDone;
    e.t_us = t_us;
    e.round = round_id;
    emit(std::move(e));
    batch_finish_us_.clear();
    push_wfq_charges();
}

void
Server::complete(TrafficSource &source)
{
    end_round(gpu_free_us_, &source);
}

void
Server::push_wfq_charges()
{
    if (!config_.admission.wfq) {
        return;
    }
    for (const TenantCost &t : fold_.state().cost.tenants) {
        double device_us = 0;
        for (const CostCell &c : t.by_class) {
            device_us += c.device_us();
        }
        queue_->set_charged(t.tenant, device_us);
    }
}

std::uint64_t
Server::outstanding_bytes() const
{
    std::uint64_t bytes = queue_ ? queue_->queued_bytes() : 0;
    for (const auto &[id, b] : fold_.round_batches()) {
        bytes += b.form.footprint_bytes;
    }
    return bytes;
}

std::vector<Request>
Server::kill(double now_us)
{
    MG_CHECK(begun_ && !down_) << "kill on a replica that is not up";
    down_ = true;
    if (busy()) {
        // The device only ran until the fault: shrink the busy
        // accumulator back to the truncated span, which end_round
        // charges to the batches that occupied it, so charged device
        // time still telescopes to busy_us on this replica. A batch
        // whose own finish predates the fault is charged its full span
        // (it held the device that long), but its requests are still
        // lost — the round never completed, so its results were never
        // released.
        busy_accum_us_ -= gpu_free_us_ - now_us;
        end_round(now_us, nullptr);
    }
    std::vector<Request> drained = queue_->drain();
    for (const Request &r : drained) {
        emit(request_event(TraceEventKind::kDrain, now_us, r));
    }
    return drained;
}

void
Server::revive()
{
    MG_CHECK(down_) << "revive on a replica that is up";
    down_ = false;
}

ServeReport
Server::finish(double)
{
    MG_CHECK(begun_) << "Server::finish before begin";
    ServeReport report = fold_.state();
    report.preset = config_.preset;
    report.device = device_.name;
    // The fold keeps one byte watermark per dispatched round.
    report.rounds = static_cast<int>(report.round_hbm_bytes.size());
    report.busy_us = busy_accum_us_;
    report.admission = queue_->stats();
    report.plan_cache =
        stats_delta(cache_before_, PlanCache::instance().stats());
    report.cost.busy_us = busy_accum_us_;
    for (TenantCost &t : report.cost.tenants) {
        for (const CostCell &c : t.by_class) {
            add_cell(t.total, c);
        }
    }
    reduce_records(report.records, report, report.cost);
    if (report.makespan_us > 0) {
        report.gpu_util = std::min(1.0, report.busy_us / report.makespan_us);
    }
    for (const std::uint64_t b : report.round_hbm_bytes) {
        report.peak_round_hbm_bytes = std::max(report.peak_round_hbm_bytes, b);
    }
    int batch_sum = 0;
    int batch_count = 0;
    for (const auto &[size, count] : report.batch_histogram) {
        batch_sum += size * count;
        batch_count += count;
        report.max_batch = std::max(report.max_batch, size);
    }
    if (batch_count > 0) {
        report.avg_batch = static_cast<double>(batch_sum) / batch_count;
    }
    return report;
}

ServeReport
Server::run()
{
    MG_CHECK(!ran_) << "Server::run may be called once";
    ran_ = true;
    begin();
    TrafficSource source(config_.traffic);

    double now = 0;
    for (;;) {
        // Ingest every arrival due by now; shed what the queue refuses.
        while (source.peek_us() <= now) {
            ingest(source.pop(), now);
        }
        expire(now);

        if (can_dispatch()) {
            dispatch(now);
            continue;
        }

        double next = source.peek_us();
        if (busy()) {
            next = std::min(next, gpu_free_us_);
        }
        if (next == kInf) {
            break;
        }
        now = next;
        if (busy() && now >= gpu_free_us_) {
            complete(source);
        }
    }
    MG_CHECK(source.exhausted() && queue_->empty() && !busy())
        << "serving loop ended with work in the system";
    return finish(now);
}

// ---- Metric registry + bench rows ---------------------------------------

const std::vector<ServeMetricDef> &
serve_metric_registry()
{
    static const std::vector<ServeMetricDef> registry = {
        {"requests", "count", "Requests issued by the traffic source",
         [](const ServeReport &r) {
             return static_cast<double>(r.admission.offered);
         }},
        {"completed", "count", "Requests served to completion",
         [](const ServeReport &r) {
             return static_cast<double>(r.completed);
         }},
        {"rejected", "count", "Requests shed at admission (queue full)",
         [](const ServeReport &r) {
             return static_cast<double>(r.admission.rejected);
         }},
        {"shed_memory", "count",
         "Requests shed on projected HBM pressure (subset of rejected)",
         [](const ServeReport &r) {
             return static_cast<double>(r.admission.shed_memory);
         }},
        {"shed_ratelimit", "count",
         "Requests shed by per-tenant token buckets (subset of rejected)",
         [](const ServeReport &r) {
             return static_cast<double>(r.admission.shed_ratelimit);
         }},
        {"timed_out", "count", "Requests aged out of the queue",
         [](const ServeReport &r) {
             return static_cast<double>(r.admission.timed_out);
         }},
        {"deadline_miss", "count",
         "Completed requests that finished past their SLO deadline",
         [](const ServeReport &r) {
             return static_cast<double>(r.deadline_miss);
         }},
        {"max_queue_depth", "count",
         "High-water mark of the admission queue",
         [](const ServeReport &r) {
             return static_cast<double>(r.admission.max_depth);
         }},
        {"p50_us", "us", "Median request latency (arrival to completion)",
         [](const ServeReport &r) { return r.latency.p50; }},
        {"p95_us", "us", "95th-percentile request latency",
         [](const ServeReport &r) { return r.latency.p95; }},
        {"p99_us", "us", "99th-percentile request latency",
         [](const ServeReport &r) { return r.latency.p99; }},
        {"mean_us", "us", "Mean request latency",
         [](const ServeReport &r) { return r.latency.mean; }},
        {"max_us", "us", "Worst request latency",
         [](const ServeReport &r) { return r.latency.max; }},
        {"throughput_rps", "req/s",
         "Completed requests over the serving window",
         [](const ServeReport &r) { return r.throughput_rps; }},
        {"makespan_us", "us",
         "First arrival to last completion",
         [](const ServeReport &r) { return r.makespan_us; }},
        {"busy_us", "us", "Device-occupied time across rounds",
         [](const ServeReport &r) { return r.busy_us; }},
        {"gpu_util", "ratio", "busy / makespan",
         [](const ServeReport &r) { return r.gpu_util; }},
        {"rounds", "count", "Scheduling rounds dispatched",
         [](const ServeReport &r) {
             return static_cast<double>(r.rounds);
         }},
        {"avg_batch", "requests", "Mean actual batch size",
         [](const ServeReport &r) { return r.avg_batch; }},
        {"max_batch", "requests", "Largest actual batch size",
         [](const ServeReport &r) {
             return static_cast<double>(r.max_batch);
         }},
        {"peak_round_hbm_bytes", "bytes",
         "Largest projected HBM footprint of any dispatched round",
         [](const ServeReport &r) {
             return static_cast<double>(r.peak_round_hbm_bytes);
         }},
        {"max_queued_hbm_bytes", "bytes",
         "High-water mark of the admission queue's projected HBM bytes",
         [](const ServeReport &r) {
             return static_cast<double>(r.admission.max_queued_bytes);
         }},
        {"plan_cache.hits", "count",
         "Plan-cache hits attributable to this run",
         [](const ServeReport &r) {
             return static_cast<double>(r.plan_cache.hits);
         }},
        {"plan_cache.misses", "count",
         "Plan-cache misses attributable to this run",
         [](const ServeReport &r) {
             return static_cast<double>(r.plan_cache.misses);
         }},
    };
    return registry;
}

void
append_serve_rows(prof::BenchRun &run, const ServeReport &report)
{
    prof::BenchRow serve;
    serve.series = "serve";
    serve.labels.emplace_back("preset", report.preset);
    for (const ServeMetricDef &metric : serve_metric_registry()) {
        serve.metrics.emplace_back(metric.key, metric.get(report));
    }
    run.rows.push_back(std::move(serve));

    for (int c = 0; c < kNumSloClasses; ++c) {
        const prof::LatencySummary &s = report.latency_by_class[c];
        prof::BenchRow row;
        row.series = "slo";
        row.labels.emplace_back("class",
                                to_string(static_cast<SloClass>(c)));
        row.metrics.emplace_back("completed",
                                 static_cast<double>(s.count));
        row.metrics.emplace_back("p50_us", s.p50);
        row.metrics.emplace_back("p95_us", s.p95);
        row.metrics.emplace_back("p99_us", s.p99);
        row.metrics.emplace_back("max_us", s.max);
        run.rows.push_back(std::move(row));
    }

    for (const auto &[size, count] : report.batch_histogram) {
        prof::BenchRow row;
        row.series = "batch_hist";
        row.labels.emplace_back("size", std::to_string(size));
        row.metrics.emplace_back("count", static_cast<double>(count));
        run.rows.push_back(std::move(row));
    }

    // Per-tenant ledger rows: the gate watches each tenant's charged
    // device time (lower is better) and its rate-limit shed count.
    for (const TenantCost &t : report.cost.tenants) {
        prof::BenchRow row;
        row.series = "tenant";
        row.labels.emplace_back("tenant", t.tenant);
        row.metrics.emplace_back("completed",
                                 static_cast<double>(t.total.completed));
        row.metrics.emplace_back(
            "shed_ratelimit",
            static_cast<double>(t.total.shed_ratelimit));
        row.metrics.emplace_back("charged_us", t.total.device_us());
        row.metrics.emplace_back("pad_us", t.total.pad_us);
        row.metrics.emplace_back("queue_us", t.total.queue_us);
        row.metrics.emplace_back("p99_us", t.latency.p99);
        run.rows.push_back(std::move(row));
    }
}

prof::BenchRun
serve_bench_run(const ServeReport &report,
                const std::string &device_name)
{
    prof::BenchRun run;
    run.name = "serve_" + report.preset + "@" + device_name;
    run.manifest = prof::RunManifest::collect(device_name);
    append_serve_rows(run, report);
    return run;
}

}  // namespace multigrain::serve
