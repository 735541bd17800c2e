#ifndef MULTIGRAIN_SERVE_ADMISSION_H_
#define MULTIGRAIN_SERVE_ADMISSION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "serve/traffic.h"

/// Admission control and queueing for mgserve (ISSUE 4).
///
/// The queue is the loss valve of the serving layer: it is bounded, so
/// under overload requests are shed at the door (rejected) instead of
/// growing an unbounded backlog, and optionally aged out (timed out) when
/// they have waited past a configured bound — both with exact counters,
/// because a serving system that silently drops work is broken in a way
/// throughput numbers never show.
///
/// Fairness is per tenant: each tenant has its own FIFO, and the
/// scheduler-facing dequeue methods visit tenants from a rotating cursor,
/// so one tenant's burst cannot starve the others — it can only fill its
/// share of the bounded queue. Across tenant heads, dequeue order is
/// earliest-deadline-first (EDF), which is what makes the scheduler
/// SLO-aware: an interactive request overtakes queued batch work the
/// moment its tighter budget makes it more urgent.
///
/// Rate limiting (ISSUE 8) polices each tenant before the shared queue is
/// even consulted: a per-tenant token bucket on the virtual serving clock
/// (TenantSpec::rate_rps / burst) sheds a misbehaving tenant's excess at
/// the door — with its own exact counter, disjoint from depth and memory
/// shedding — so a noisy neighbor pays for its burst instead of squeezing
/// everyone else out of the bounded queue.
namespace multigrain::serve {

struct AdmissionConfig {
    /// Global bound on queued requests across all tenants; offers beyond
    /// it are shed.
    std::size_t queue_capacity = 64;
    /// Maximum time a request may wait in the queue before it is dropped
    /// as timed out; 0 disables aging.
    double max_queue_wait_us = 0;
    /// Projected-HBM admission bound, bytes; 0 disables memory shedding.
    /// When set, an offer whose stamped footprint_bytes would push the
    /// queue's projected total past the bound is shed at the door with
    /// an exact counter (shed_memory) — the byte-budget analogue of the
    /// depth bound above.
    std::uint64_t hbm_budget_bytes = 0;
};

struct AdmissionStats {
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;   ///< All door sheds (rate/depth/memory).
    /// Subset of `rejected`: shed because the queue's projected HBM
    /// bytes would exceed hbm_budget_bytes.
    std::uint64_t shed_memory = 0;
    /// Subset of `rejected`: shed by the tenant's token bucket, disjoint
    /// from both depth sheds and shed_memory (the bucket is checked
    /// first, so a rate-limited offer never reaches the other valves).
    std::uint64_t shed_ratelimit = 0;
    std::uint64_t timed_out = 0;  ///< Aged out waiting.
    std::uint64_t dispatched = 0; ///< Handed to the scheduler.
    /// Admitted-but-undispatched requests removed by drain() when the
    /// replica holding this queue went down (ISSUE 9). Disjoint from
    /// every terminal counter above: a drained request leaves this queue
    /// alive and is re-offered elsewhere by the cluster router, so
    /// offered == completed-or-shed outcomes + drained per queue.
    std::uint64_t drained = 0;
    /// High-water mark of the total queue depth — never exceeds
    /// queue_capacity (asserted by tests/serve_test.cc through the serve
    /// metric registry).
    std::size_t max_depth = 0;
    /// High-water mark of the queue's projected HBM bytes.
    std::uint64_t max_queued_bytes = 0;
};

/// Deterministic token bucket on the virtual serving clock. Refill is
/// computed lazily from the elapsed virtual time at each take, so the
/// bucket is a pure function of the offer timestamps — same seed, same
/// decisions, same fill levels.
class TokenBucket {
  public:
    /// Unlimited: try_take always succeeds and the fill stays at burst.
    TokenBucket() = default;
    TokenBucket(double rate_rps, double burst);
    /// The tenant's bucket: its rate limit, or unlimited at rate 0.
    explicit TokenBucket(const TenantSpec &tenant);

    /// Refills by (t_us - last) * rate_rps / 1e6 capped at burst, then
    /// consumes one token if at least one is available. `t_us` must be
    /// non-decreasing across calls (the serving clock guarantees it).
    bool try_take(double t_us);

    /// Current fill, tokens. Reflects the last refill point; unlimited
    /// buckets report their burst capacity.
    double fill() const { return limited() ? tokens_ : burst_; }
    bool limited() const { return rate_rps_ > 0; }

  private:
    double rate_rps_ = 0;  ///< 0 = unlimited.
    double burst_ = 1;
    double tokens_ = 1;
    double last_us_ = 0;
};

/// The outcome of one offer. Contextually convertible to bool
/// ("admitted?") so pre-rate-limit call sites keep reading naturally;
/// the reason distinguishes the three disjoint shed valves for trace
/// events and per-tenant cost attribution.
struct AdmitDecision {
    enum class Shed { kNone = 0, kRateLimit, kCapacity, kMemory };

    bool admitted = false;
    Shed reason = Shed::kNone;
    /// The tenant's token-bucket fill after the offer (the admission
    /// events carry it, and telemetry folds it from them).
    double fill = 0;

    explicit operator bool() const { return admitted; }
};

class AdmissionQueue {
  public:
    /// `tenants` fixes the fairness rotation order and supplies the
    /// per-tenant rate limits (TenantSpec::rate_rps / burst); requests
    /// from tenants not listed get their own FIFO, with an unlimited
    /// bucket, appended in arrival order.
    AdmissionQueue(const AdmissionConfig &config,
                   const std::vector<TenantSpec> &tenants);

    /// Admits `r` unless its tenant's token bucket, the depth bound, or
    /// the byte budget refuses it — in that order, so every shed has
    /// exactly one reason. The bucket refills on the request's arrival
    /// time (arrivals are ingested in non-decreasing order).
    AdmitDecision offer(Request r, double now_us);
    /// Failover re-admission (ISSUE 9): offers a request the cluster
    /// router moved here after its original replica died. The tenant's
    /// token bucket is skipped — the tenant already paid for this
    /// arrival at the replica that admitted it, and a fault-caused move
    /// must not double-bill its rate budget (nor rewind this queue's
    /// bucket clock to the request's old arrival time). Depth and byte
    /// valves still apply, so a reroute into a full replica sheds with
    /// the usual exact counters.
    AdmitDecision reoffer(Request r, double now_us);
    /// Removes and returns every queued request that has waited longer
    /// than max_queue_wait_us at `now_us` (empty when aging is off).
    std::vector<Request> expire(double now_us);
    /// Removes and returns everything queued, in tenant-rotation order
    /// and FIFO within each tenant — the failover path when this
    /// queue's replica goes down. Counted in AdmissionStats::drained
    /// (not dispatched, not timed out): the requests are not terminal
    /// here, the router re-offers them fleet-wide.
    std::vector<Request> drain();

    std::size_t depth() const;
    bool empty() const { return depth() == 0; }

    /// Pops the next batch seed: among the tenant queue heads, the
    /// request with the earliest deadline, ties broken by the rotating
    /// tenant cursor (round-robin fairness). FIFO within a tenant.
    /// Advances the cursor past the chosen tenant. Empty when idle.
    std::optional<Request> pop_seed();
    /// Removes up to `limit` queued requests satisfying `pred`, visiting
    /// tenants from the fairness cursor and FIFO within each tenant —
    /// how the scheduler fills a batch with requests compatible with its
    /// seed.
    std::vector<Request> take_matching(
        const std::function<bool(const Request &)> &pred,
        std::size_t limit);
    /// Returns a request popped this scheduling point back to the head
    /// of its tenant queue (un-dispatches it) — how the byte-budget
    /// scheduler closes a round whose remaining budget cannot hold the
    /// next seed even alone.
    void push_front(Request r);

    /// Projected HBM bytes of everything queued (sum of stamped
    /// footprint_bytes).
    std::uint64_t queued_bytes() const { return queued_bytes_; }

    const AdmissionStats &stats() const { return stats_; }

  private:
    std::size_t tenant_index(const std::string &name);
    void note_depth();
    /// The shared depth/byte valves behind offer and reoffer (the token
    /// bucket is offer-only).
    AdmitDecision admit(Request r, std::size_t tenant);

    AdmissionConfig config_;
    std::vector<std::string> tenant_names_;
    std::vector<std::deque<Request>> queues_;  ///< Parallel to names.
    std::vector<TokenBucket> buckets_;         ///< Parallel to names.
    std::size_t cursor_ = 0;
    std::uint64_t queued_bytes_ = 0;
    AdmissionStats stats_;
};

}  // namespace multigrain::serve

#endif  // MULTIGRAIN_SERVE_ADMISSION_H_
