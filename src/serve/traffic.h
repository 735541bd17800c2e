#ifndef MULTIGRAIN_SERVE_TRAFFIC_H_
#define MULTIGRAIN_SERVE_TRAFFIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/util.h"
#include "patterns/slice.h"

/// The request model and seeded synthetic traffic generators of the
/// mgserve serving layer (ISSUE 4).
///
/// A request is one inference call: a model, a sequence length, a tenant,
/// and an SLO class that fixes its latency budget. Traffic is generated
/// deterministically from a seed — either an open-loop Poisson arrival
/// process (the classic serving-benchmark shape: arrivals do not react to
/// the system, so queues grow under overload) or a closed loop of N
/// clients that each issue the next request only after the previous one
/// finishes (throughput-bound, self-throttling). Both processes draw
/// every random quantity from common/rng.h, so a (preset, seed) pair
/// replays the exact same request stream on every run — the property the
/// scheduler-determinism tests and the mgperf serving gate stand on.
namespace multigrain::serve {

/// Service classes, strictest first. The class sets the request's
/// deadline (arrival + budget) and thereby its EDF scheduling priority.
enum class SloClass { kInteractive = 0, kStandard = 1, kBatch = 2 };
inline constexpr int kNumSloClasses = 3;

const char *to_string(SloClass slo);

struct Request {
    std::uint64_t id = 0;
    std::string tenant;
    /// CLI model name ("tiny" | "qds" | ...), resolved through
    /// model_config_by_name when the scheduler builds plans.
    std::string model;
    SliceMode mode = SliceMode::kMultigrain;
    /// Requested (unpadded) sequence length; the scheduler buckets it.
    index_t valid_len = 0;
    double arrival_us = 0;
    SloClass slo = SloClass::kStandard;
    /// Absolute deadline; +infinity when the class carries no budget.
    double deadline_us = 0;
    /// Projected HBM footprint of serving this request alone (its
    /// bucketed single-request plan's peak_hbm_bytes across all layers).
    /// Stamped by the Server at ingest when an admission memory budget
    /// is configured; 0 = untracked.
    std::uint64_t footprint_bytes = 0;
};

enum class ArrivalProcess {
    kPoisson,     ///< Open loop, exponential interarrivals at rate_rps.
    kClosedLoop,  ///< `concurrency` clients, think_time_us between calls.
};

struct TenantSpec {
    std::string name;
    /// Relative share of generated requests.
    double weight = 1.0;
    SloClass slo = SloClass::kStandard;
    /// Token-bucket admission rate on the virtual serving clock,
    /// requests/s; 0 disables rate limiting for this tenant. Offers
    /// beyond the bucket are shed at the door with a distinct counter
    /// (AdmissionStats::shed_ratelimit).
    double rate_rps = 0;
    /// Token-bucket capacity (burst allowance), tokens. Only meaningful
    /// when rate_rps > 0; a full bucket admits `burst` back-to-back
    /// arrivals before the refill rate governs.
    double burst = 1;
};

struct TrafficConfig {
    ArrivalProcess arrivals = ArrivalProcess::kPoisson;
    double rate_rps = 100.0;    ///< Poisson arrival rate, requests/s.
    int concurrency = 4;        ///< Closed-loop client count.
    double think_time_us = 0;   ///< Closed-loop pause after a completion.
    int num_requests = 32;      ///< Total requests the source issues.
    std::uint64_t seed = 2022;
    /// Uniform model mix; every entry must resolve via
    /// model_config_by_name.
    std::vector<std::string> models = {"tiny"};
    /// Shortest sequence length drawn; the longest is the model's cap.
    index_t min_len = 1;
    std::vector<TenantSpec> tenants = {{"default", 1.0,
                                        SloClass::kStandard}};
    /// Latency budget per SLO class (indexed by SloClass), microseconds;
    /// 0 leaves that class without a deadline.
    double slo_budget_us[kNumSloClasses] = {0, 0, 0};
};

/// Deterministic request stream over a TrafficConfig. Poisson traffic is
/// fully pregenerated at construction; closed-loop traffic seeds one
/// request per client and schedules each client's next request when
/// on_completion() reports the previous one finished.
class TrafficSource {
  public:
    explicit TrafficSource(const TrafficConfig &config);

    /// Arrival time of the earliest pending request; +infinity when no
    /// request is pending (for a closed loop more may appear after the
    /// next on_completion).
    double peek_us() const;
    /// Removes and returns the earliest pending request (by arrival
    /// time, ids breaking ties). Requires peek_us() < infinity.
    Request pop();
    /// Closed-loop feedback: `r` finished at `finish_us`. Schedules the
    /// issuing client's next request at finish + think_time while the
    /// source has requests left to issue. No-op for Poisson traffic.
    void on_completion(const Request &r, double finish_us);

    /// Requests handed out so far (== num_requests when exhausted).
    int issued() const { return issued_; }
    bool exhausted() const;

  private:
    Request make_request(double arrival_us);

    TrafficConfig config_;
    Rng rng_;
    std::vector<index_t> model_caps_;  ///< Parallel to config_.models.
    double tenant_weight_total_ = 0;
    /// Pending arrivals, kept as a min-heap on (arrival_us, id).
    std::vector<Request> pending_;
    int issued_ = 0;
    int popped_ = 0;
};

}  // namespace multigrain::serve

#endif  // MULTIGRAIN_SERVE_TRAFFIC_H_
