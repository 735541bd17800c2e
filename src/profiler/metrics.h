#ifndef MULTIGRAIN_PROFILER_METRICS_H_
#define MULTIGRAIN_PROFILER_METRICS_H_

#include <string>
#include <vector>

#include "common/timer.h"
#include "gpusim/device.h"
#include "gpusim/engine.h"
#include "gpusim/report.h"

/// The in-repo analogue of Nsight Compute (ISSUE 1): turns a raw
/// simulated timeline into the named, carved metrics the paper's
/// methodology reads off its profiles — per-phase span, multi-stream
/// overlap, DRAM traffic, roofline bound, achieved occupancy.
///
/// Carving follows the kernel-name convention established by
/// core/attention.h and transformer/runner.cc:
///
///     [<tag>.][attn.]<op>[.<part>...]
///
/// where <tag> is a per-layer prefix like "L07" / "F00" / "B23" (one
/// uppercase letter + digits), <op> is the phase family ("sddmm",
/// "softmax", "spmm", "gemm", "ew", "bwd"), and <part> names the slice
/// ("coarse", "fine", "global", "triton", ...). profile() aggregates the
/// same timeline three ways: by op, by op.part, and by layer tag.
namespace multigrain::prof {

/// Aggregate statistics of one carved phase (a named group of kernels).
struct PhaseStats {
    std::string name;
    int kernel_count = 0;
    /// Wall-clock extent of the group (max end - min start): the right
    /// duration for a multi-stream phase.
    double span_us = 0;
    /// Sum of member kernel durations (per-kernel time).
    double busy_us = 0;
    /// Overlap efficiency busy/span: 1 = serial, >1 = streams overlap,
    /// the §3.1 coarse ∥ fine ∥ special win in one number.
    double overlap = 0;
    double start_us = 0;
    double end_us = 0;
    sim::TbWork work;
    /// Achieved fraction of each achievable peak over the phase span.
    double tensor_util = 0;
    double cuda_util = 0;
    double dram_util = 0;
    double l2_util = 0;
    /// Roofline classification of the whole phase (vs span).
    sim::Bound bound = sim::Bound::kLatency;
    /// Duration-weighted mean of per-kernel resident-TB fraction
    /// (avg_concurrency over the device's occupancy-limited capacity),
    /// clamped to [0, 1] — Nsight's "achieved occupancy".
    double achieved_occupancy = 0;

    double dram_bytes() const { return work.dram_bytes(); }
};

/// A fully profiled run: the timeline carved three ways, per-kernel
/// roofline/energy characterization, and the host-side preprocessing
/// timers active when profile() was called.
struct ProfiledRun {
    std::string device;
    double total_us = 0;
    sim::TbWork work;
    /// Carved by op family ("sddmm", "softmax", "spmm", "gemm", ...),
    /// ordered by first start time.
    std::vector<PhaseStats> ops;
    /// Carved one level deeper ("sddmm.coarse", "softmax.compound", ...).
    std::vector<PhaseStats> subphases;
    /// Carved by layer tag ("L00" ... / "F.." / "B.."); empty for plans
    /// launched without layer prefixes.
    std::vector<PhaseStats> layers;
    /// Per-kernel characterization (roofline bound + energy).
    sim::WorkloadReport report;
    /// Snapshot of the §3.1 offline-preprocessing timers.
    std::vector<TimerStat> host_timers;
    /// What the simulator's event loop did to produce `result`.
    sim::EngineCounters engine;
    /// Named scalar counters attached by the caller — e.g. mgprof's
    /// plan-cache hit/miss/eviction statistics. profile() leaves this
    /// empty; the profiler stays independent of where counters come from.
    struct Counter {
        std::string name;
        std::string unit;
        double value = 0;
    };
    std::vector<Counter> counters;

    const PhaseStats *find_op(const std::string &name) const;
    const PhaseStats *find_subphase(const std::string &name) const;
    const PhaseStats *find_layer(const std::string &name) const;
};

/// Profiles `result` against `device`, with host_timer_stats() as its
/// host timers. A phase is bound the way sim::classify_roofline bounds a
/// kernel.
ProfiledRun profile(const sim::SimResult &result,
                    const sim::DeviceSpec &device);

/// Aggregates the kernels of `result` whose name starts with `prefix`
/// (empty prefix = whole timeline) with the same math profile() uses for
/// its groups; exposed for tests and ad-hoc carving. kernel_count == 0
/// when nothing matches — every other field stays zero then.
PhaseStats carve_prefix(const sim::SimResult &result,
                        const sim::DeviceSpec &device,
                        const std::string &prefix);

/// One registered phase metric: how exporters and tables enumerate the
/// columns of a PhaseStats without hand-maintaining parallel lists.
struct MetricDef {
    const char *key;
    const char *unit;
    const char *description;
    double (*get)(const PhaseStats &);
};

/// The phase metric registry, in canonical column order.
const std::vector<MetricDef> &phase_metric_registry();

/// Prints the carved-phase table (ops + subphases + layer rollup) in the
/// style of print_report().
void print_phases(const ProfiledRun &run, std::ostream &os);

}  // namespace multigrain::prof

#endif  // MULTIGRAIN_PROFILER_METRICS_H_
