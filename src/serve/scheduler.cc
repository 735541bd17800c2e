#include "serve/scheduler.h"

#include <algorithm>

#include "common/error.h"
#include "transformer/workload.h"

namespace multigrain::serve {

Scheduler::Scheduler(const SchedulerConfig &config,
                     const std::vector<std::string> &models)
    : config_(config)
{
    MG_CHECK(config_.max_batch > 0) << "max_batch must be positive";
    MG_CHECK(config_.max_concurrent_batches > 0)
        << "max_concurrent_batches must be positive";
    MG_CHECK(config_.bucket_granularity > 0)
        << "bucket_granularity must be positive";
    for (const std::string &name : models) {
        const ModelConfig model = model_config_by_name(name);
        MG_CHECK(config_.bucket_granularity % model.block == 0)
            << "bucket granularity " << config_.bucket_granularity
            << " is not a multiple of model \"" << name << "\" block "
            << model.block;
        MG_CHECK(config_.bucket_granularity <= model.max_seq_len)
            << "bucket granularity " << config_.bucket_granularity
            << " exceeds model \"" << name << "\" cap "
            << model.max_seq_len;
        models_.emplace(name, model);
    }
}

const ModelConfig &
Scheduler::model_for(const std::string &name) const
{
    const auto it = models_.find(name);
    MG_CHECK(it != models_.end())
        << "request names model \"" << name
        << "\" outside the scheduler's traffic mix";
    return it->second;
}

index_t
Scheduler::bucket_of(const Request &r) const
{
    const ModelConfig &model = model_for(r.model);
    return bucket_len(r.valid_len, config_.bucket_granularity,
                      model.max_seq_len);
}

int
Scheduler::planned_batch(int actual) const
{
    MG_CHECK(actual > 0) << "batch must hold at least one request";
    int padded = 1;
    while (padded < actual) {
        padded *= 2;
    }
    return std::min(padded, config_.max_batch);
}

std::vector<Batch>
Scheduler::next_round(AdmissionQueue &queue) const
{
    const bool budgeted =
        config_.round_hbm_budget_bytes > 0 && footprint_ != nullptr;
    std::uint64_t round_bytes = 0;
    std::vector<Batch> round;
    while (static_cast<int>(round.size()) <
           config_.max_concurrent_batches) {
        std::optional<Request> seed = queue.pop_seed();
        if (!seed.has_value()) {
            break;
        }
        const index_t bucket = bucket_of(*seed);
        int limit = config_.max_batch;
        if (budgeted) {
            const std::uint64_t remaining =
                config_.round_hbm_budget_bytes > round_bytes
                    ? config_.round_hbm_budget_bytes - round_bytes
                    : 0;
            if (!round.empty() &&
                footprint_(seed->model, seed->mode, bucket,
                           planned_batch(1)) > remaining) {
                // Not enough budget for this seed even alone: return it
                // to its queue head and close the round. (The first
                // batch of a round is exempt so an oversized plan still
                // makes progress.)
                queue.push_front(std::move(*seed));
                break;
            }
            // Cap the batch at the largest padded size whose plan fits
            // the remaining budget.
            while (limit > 1 &&
                   footprint_(seed->model, seed->mode, bucket,
                              planned_batch(limit)) > remaining) {
                --limit;
            }
        }
        Batch batch;
        batch.model = seed->model;
        batch.mode = seed->mode;
        batch.bucket = bucket;
        batch.requests.push_back(std::move(*seed));
        if (limit > 1) {
            const Batch &key = batch;
            std::vector<Request> fill = queue.take_matching(
                [this, &key](const Request &r) {
                    return r.model == key.model && r.mode == key.mode &&
                           bucket_of(r) == key.bucket;
                },
                static_cast<std::size_t>(limit) - 1);
            for (Request &r : fill) {
                batch.requests.push_back(std::move(r));
            }
        }
        batch.planned_batch = planned_batch(batch.size());
        if (budgeted) {
            round_bytes += footprint_(batch.model, batch.mode,
                                      batch.bucket, batch.planned_batch);
        }
        round.push_back(std::move(batch));
    }
    return round;
}

}  // namespace multigrain::serve
