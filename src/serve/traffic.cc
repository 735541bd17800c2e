#include "serve/traffic.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "transformer/config.h"

namespace multigrain::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Heap order: earliest arrival first, lowest id breaking ties (ids are
/// issue order, so the tie-break is deterministic).
bool
arrives_later(const Request &a, const Request &b)
{
    if (a.arrival_us != b.arrival_us) {
        return a.arrival_us > b.arrival_us;
    }
    return a.id > b.id;
}

}  // namespace

const char *
to_string(SloClass slo)
{
    switch (slo) {
      case SloClass::kInteractive:
        return "interactive";
      case SloClass::kStandard:
        return "standard";
      case SloClass::kBatch:
        return "batch";
    }
    return "?";
}

TrafficSource::TrafficSource(const TrafficConfig &config)
    : config_(config), rng_(config.seed)
{
    MG_CHECK(config_.num_requests > 0) << "traffic needs requests";
    MG_CHECK(!config_.models.empty()) << "traffic needs a model mix";
    MG_CHECK(!config_.tenants.empty()) << "traffic needs tenants";
    for (const std::string &model : config_.models) {
        model_caps_.push_back(model_config_by_name(model).max_seq_len);
    }
    for (const TenantSpec &tenant : config_.tenants) {
        MG_CHECK(tenant.weight > 0)
            << "tenant \"" << tenant.name << "\" needs a positive weight";
        tenant_weight_total_ += tenant.weight;
    }

    if (config_.arrivals == ArrivalProcess::kPoisson) {
        MG_CHECK(config_.rate_rps > 0) << "Poisson traffic needs a rate";
        double t = 0;
        for (int i = 0; i < config_.num_requests; ++i) {
            // Exponential interarrival via inverse transform; 1 - U
            // keeps the argument of log strictly positive.
            const double u = 1.0 - static_cast<double>(rng_.next_float());
            t += -std::log(u) / config_.rate_rps * 1e6;
            pending_.push_back(make_request(t));
            std::push_heap(pending_.begin(), pending_.end(),
                           arrives_later);
        }
    } else {
        MG_CHECK(config_.concurrency > 0)
            << "closed-loop traffic needs clients";
        const int initial =
            std::min(config_.concurrency, config_.num_requests);
        for (int i = 0; i < initial; ++i) {
            pending_.push_back(make_request(0.0));
            std::push_heap(pending_.begin(), pending_.end(),
                           arrives_later);
        }
    }
}

Request
TrafficSource::make_request(double arrival_us)
{
    Request r;
    r.id = static_cast<std::uint64_t>(issued_++);
    r.arrival_us = arrival_us;

    // Tenant by weight (cumulative inverse transform over the spec list).
    double pick = rng_.next_float() * tenant_weight_total_;
    const TenantSpec *tenant = &config_.tenants.back();
    for (const TenantSpec &t : config_.tenants) {
        pick -= t.weight;
        if (pick < 0) {
            tenant = &t;
            break;
        }
    }
    r.tenant = tenant->name;
    r.slo = tenant->slo;

    const std::size_t m = static_cast<std::size_t>(
        rng_.next_below(config_.models.size()));
    r.model = config_.models[m];

    const index_t cap = model_caps_[m];
    const index_t lo = std::clamp<index_t>(config_.min_len, 1, cap);
    r.valid_len = rng_.next_range(lo, cap);

    const double budget =
        config_.slo_budget_us[static_cast<int>(r.slo)];
    r.deadline_us = budget > 0 ? arrival_us + budget : kInf;
    return r;
}

double
TrafficSource::peek_us() const
{
    return pending_.empty() ? kInf : pending_.front().arrival_us;
}

Request
TrafficSource::pop()
{
    MG_CHECK(!pending_.empty()) << "traffic source has nothing pending";
    std::pop_heap(pending_.begin(), pending_.end(), arrives_later);
    Request r = std::move(pending_.back());
    pending_.pop_back();
    ++popped_;
    return r;
}

void
TrafficSource::on_completion(const Request &, double finish_us)
{
    if (config_.arrivals != ArrivalProcess::kClosedLoop ||
        issued_ >= config_.num_requests) {
        return;
    }
    pending_.push_back(
        make_request(finish_us + config_.think_time_us));
    std::push_heap(pending_.begin(), pending_.end(), arrives_later);
}

bool
TrafficSource::exhausted() const
{
    return pending_.empty() && issued_ >= config_.num_requests;
}

}  // namespace multigrain::serve
