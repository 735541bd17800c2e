#ifndef MULTIGRAIN_SERVE_SCHEDULER_H_
#define MULTIGRAIN_SERVE_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/admission.h"
#include "serve/traffic.h"
#include "transformer/config.h"

/// The continuous-batching scheduler of mgserve (ISSUE 4).
///
/// At every scheduling point (GPU idle, queue non-empty) the scheduler
/// forms up to max_concurrent_batches batches: it pops the most urgent
/// queued request (EDF across tenant heads — see AdmissionQueue), then
/// fills the batch with up to max_batch - 1 further requests that are
/// *compatible* with it — same model, same processing method, same
/// sequence-length bucket — because only those can share one batched
/// execution plan. Each batch replays one PlanCache'd layer graph
/// (transformer/runner.h) under its own name prefix and stream binding,
/// so the batches of a round overlap across gpusim streams the same way
/// Multigrain's coarse ∥ fine slices do within one attention.
///
/// Bucketing is the plan-reuse knob: request lengths are padded up to
/// bucket_granularity boundaries and batch sizes padded up to the next
/// power of two, so the (pattern fingerprint, config, mode, device) keys
/// of transformer/workload.h's canonical bucket samples repeat across
/// requests and the PlanCache serves the steady state from hits. The
/// padding work is wasted compute — the classic serving trade — and the
/// mgserve report makes it visible by tracking both padded and actual
/// batch sizes.
namespace multigrain::serve {

struct SchedulerConfig {
    /// Maximum requests co-batched into one plan.
    int max_batch = 8;
    /// Sequence-length bucket width; must be a positive multiple of
    /// every served model's block size.
    index_t bucket_granularity = 256;
    /// Batches co-scheduled (on separate stream groups) per round.
    int max_concurrent_batches = 2;
    /// Per-round projected HBM budget, bytes; 0 disables byte packing.
    /// When set (and a footprint callback is installed), round formation
    /// packs batches to this byte budget instead of a pure request
    /// count: each batch is capped at the largest padded size whose
    /// plan footprint fits the round's remaining bytes, and a seed that
    /// does not fit even alone is returned to the queue, closing the
    /// round. The first batch of a round always dispatches so a single
    /// oversized plan cannot livelock the server.
    std::uint64_t round_hbm_budget_bytes = 0;
};

/// One schedulable batch: compatible requests plus the padded size the
/// execution plan is actually built for.
struct Batch {
    std::string model;
    SliceMode mode = SliceMode::kMultigrain;
    index_t bucket = 0;
    int planned_batch = 0;  ///< Padded size the layer graph replays with.
    std::vector<Request> requests;

    int size() const { return static_cast<int>(requests.size()); }
};

class Scheduler {
  public:
    /// Projected HBM bytes of one batch's execution plan:
    /// (model, mode, bucket, planned_batch) -> bytes. Installed by the
    /// Server from the cached MemPlans (layer peak x num_layers); byte
    /// packing stays off until both this and round_hbm_budget_bytes are
    /// set.
    using BatchFootprint = std::function<std::uint64_t(
        const std::string &model, SliceMode mode, index_t bucket,
        int planned_batch)>;

    /// Validates bucket_granularity against every model in `models`
    /// (block alignment and cap) and caches their configs.
    Scheduler(const SchedulerConfig &config,
              const std::vector<std::string> &models);

    const SchedulerConfig &config() const { return config_; }

    void set_footprint(BatchFootprint fn) { footprint_ = std::move(fn); }

    /// The bucket `r` pads to: valid_len rounded up to the granularity,
    /// clamped to its model's cap.
    index_t bucket_of(const Request &r) const;
    /// The padded batch size a batch of `actual` requests plans with:
    /// the next power of two, capped at max_batch, so plan-cache keys
    /// repeat across nearby batch sizes.
    int planned_batch(int actual) const;

    /// Forms the next round of batches from `queue` (empty result iff
    /// the queue is empty).
    std::vector<Batch> next_round(AdmissionQueue &queue) const;

  private:
    const ModelConfig &model_for(const std::string &name) const;

    SchedulerConfig config_;
    std::unordered_map<std::string, ModelConfig> models_;
    BatchFootprint footprint_;
};

}  // namespace multigrain::serve

#endif  // MULTIGRAIN_SERVE_SCHEDULER_H_
