#include "serve/admission.h"

#include <algorithm>

#include "common/error.h"

namespace multigrain::serve {

TokenBucket::TokenBucket(double rate_rps, double burst)
    : rate_rps_(rate_rps), burst_(burst), tokens_(burst)
{
    MG_CHECK(rate_rps >= 0) << "token-bucket rate must be non-negative";
    MG_CHECK(burst >= 1)
        << "token bucket must hold at least one token of burst";
}

TokenBucket::TokenBucket(const TenantSpec &tenant)
    : TokenBucket(tenant.rate_rps > 0 ? TokenBucket(tenant.rate_rps,
                                                    tenant.burst)
                                      : TokenBucket())
{
}

bool
TokenBucket::try_take(double t_us)
{
    if (!limited()) {
        return true;
    }
    MG_CHECK(t_us >= last_us_)
        << "token bucket driven backwards in virtual time";
    tokens_ = std::min(burst_,
                       tokens_ + (t_us - last_us_) * rate_rps_ / 1e6);
    last_us_ = t_us;
    if (tokens_ < 1.0) {
        return false;
    }
    tokens_ -= 1.0;
    return true;
}

AdmissionQueue::AdmissionQueue(const AdmissionConfig &config,
                               const std::vector<TenantSpec> &tenants)
    : config_(config)
{
    MG_CHECK(config_.queue_capacity > 0) << "queue capacity must be > 0";
    MG_CHECK(config_.max_queue_wait_us >= 0)
        << "max queue wait must be non-negative";
    for (const TenantSpec &t : tenants) {
        MG_CHECK(t.weight > 0) << "tenant weight must be positive";
        tenant_names_.push_back(t.name);
        queues_.emplace_back();
        buckets_.emplace_back(t);
        weights_.push_back(t.weight);
        charged_us_.push_back(0.0);
    }
}

std::size_t
AdmissionQueue::tenant_index(const std::string &name)
{
    for (std::size_t i = 0; i < tenant_names_.size(); ++i) {
        if (tenant_names_[i] == name) {
            return i;
        }
    }
    tenant_names_.push_back(name);
    queues_.emplace_back();
    buckets_.emplace_back();  // Unknown tenants are never rate-limited.
    weights_.push_back(1.0);
    charged_us_.push_back(0.0);
    return tenant_names_.size() - 1;
}

void
AdmissionQueue::set_charged(const std::string &tenant, double device_us)
{
    charged_us_[tenant_index(tenant)] = device_us;
}

void
AdmissionQueue::note_depth()
{
    stats_.max_depth = std::max(stats_.max_depth, depth());
    stats_.max_queued_bytes = std::max(stats_.max_queued_bytes,
                                       queued_bytes_);
}

std::size_t
AdmissionQueue::depth() const
{
    std::size_t total = 0;
    for (const auto &q : queues_) {
        total += q.size();
    }
    return total;
}

AdmitDecision
AdmissionQueue::admit(Request r, std::size_t tenant)
{
    const double fill = buckets_[tenant].fill();
    if (depth() >= config_.queue_capacity) {
        ++stats_.rejected;
        return {false, AdmitDecision::Shed::kCapacity, fill};
    }
    if (config_.hbm_budget_bytes > 0 &&
        queued_bytes_ + r.footprint_bytes > config_.hbm_budget_bytes) {
        ++stats_.rejected;
        ++stats_.shed_memory;
        return {false, AdmitDecision::Shed::kMemory, fill};
    }
    queued_bytes_ += r.footprint_bytes;
    queues_[tenant].push_back(std::move(r));
    ++stats_.admitted;
    note_depth();
    return {true, AdmitDecision::Shed::kNone, fill};
}

AdmitDecision
AdmissionQueue::offer(Request r, double)
{
    ++stats_.offered;
    // The bucket polices the tenant's own rate before the shared valves,
    // on the request's arrival time: arrivals are ingested in
    // non-decreasing arrival order, so the refill clock never rewinds.
    const std::size_t tenant = tenant_index(r.tenant);
    if (!buckets_[tenant].try_take(r.arrival_us)) {
        ++stats_.rejected;
        ++stats_.shed_ratelimit;
        return {false, AdmitDecision::Shed::kRateLimit,
                buckets_[tenant].fill()};
    }
    return admit(std::move(r), tenant);
}

AdmitDecision
AdmissionQueue::reoffer(Request r, double)
{
    // No bucket: the arrival was already rate-policed where it first
    // landed, and its (old) arrival timestamp would rewind this queue's
    // bucket clock. Only the shared valves apply.
    ++stats_.offered;
    const std::size_t tenant = tenant_index(r.tenant);
    return admit(std::move(r), tenant);
}

std::vector<Request>
AdmissionQueue::expire(double now_us)
{
    std::vector<Request> expired;
    if (config_.max_queue_wait_us <= 0) {
        return expired;
    }
    for (auto &q : queues_) {
        for (auto it = q.begin(); it != q.end();) {
            if (now_us - it->arrival_us > config_.max_queue_wait_us) {
                queued_bytes_ -= it->footprint_bytes;
                expired.push_back(std::move(*it));
                it = q.erase(it);
                ++stats_.timed_out;
            } else {
                ++it;
            }
        }
    }
    return expired;
}

std::vector<Request>
AdmissionQueue::drain()
{
    std::vector<Request> drained;
    drained.reserve(depth());
    for (auto &q : queues_) {
        while (!q.empty()) {
            queued_bytes_ -= q.front().footprint_bytes;
            drained.push_back(std::move(q.front()));
            q.pop_front();
            ++stats_.drained;
        }
    }
    return drained;
}

std::optional<Request>
AdmissionQueue::pop_seed()
{
    std::size_t best = tenant_names_.size();
    double best_deadline = 0;
    double best_debt = 0;
    // Visit tenants from the cursor so equal keys rotate fairly; strict
    // < keeps the first (cursor-closest) head on ties. Under WFQ the
    // primary key is the tenant's charged device time per weight (its
    // ledger debt), with EDF breaking debt ties; otherwise pure EDF.
    for (std::size_t step = 0; step < queues_.size(); ++step) {
        const std::size_t i = (cursor_ + step) % queues_.size();
        if (queues_[i].empty()) {
            continue;
        }
        const double deadline = queues_[i].front().deadline_us;
        const double debt = config_.wfq ? charged_us_[i] / weights_[i] : 0;
        if (best == tenant_names_.size() || debt < best_debt ||
            (debt == best_debt && deadline < best_deadline)) {
            best = i;
            best_deadline = deadline;
            best_debt = debt;
        }
    }
    if (best == tenant_names_.size()) {
        return std::nullopt;
    }
    Request r = std::move(queues_[best].front());
    queues_[best].pop_front();
    cursor_ = (best + 1) % queues_.size();
    queued_bytes_ -= r.footprint_bytes;
    ++stats_.dispatched;
    return r;
}

std::vector<Request>
AdmissionQueue::take_matching(
    const std::function<bool(const Request &)> &pred, std::size_t limit)
{
    std::vector<Request> taken;
    if (limit == 0 || queues_.empty()) {
        return taken;
    }
    for (std::size_t step = 0; step < queues_.size() && taken.size() < limit;
         ++step) {
        auto &q = queues_[(cursor_ + step) % queues_.size()];
        for (auto it = q.begin(); it != q.end() && taken.size() < limit;) {
            if (pred(*it)) {
                queued_bytes_ -= it->footprint_bytes;
                taken.push_back(std::move(*it));
                it = q.erase(it);
                ++stats_.dispatched;
            } else {
                ++it;
            }
        }
    }
    return taken;
}

void
AdmissionQueue::push_front(Request r)
{
    // Undo the pop_seed accounting: the request was never really
    // dispatched, it goes back to the head of its tenant FIFO and will
    // seed the next round.
    MG_CHECK(stats_.dispatched > 0)
        << "push_front without a matching pop";
    --stats_.dispatched;
    queued_bytes_ += r.footprint_bytes;
    queues_[tenant_index(r.tenant)].push_front(std::move(r));
}

}  // namespace multigrain::serve
