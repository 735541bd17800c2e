#ifndef MULTIGRAIN_GPUSIM_REPORT_H_
#define MULTIGRAIN_GPUSIM_REPORT_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/engine.h"

/// Workload characterization (the IISWC angle): given a simulated
/// timeline and the device it ran on, classify each kernel against the
/// roofline — which resource bound it, at what utilization, with what
/// arithmetic intensity — and estimate dynamic + static energy.
namespace multigrain::sim {

enum class Bound {
    kTensor,   ///< Tensor-pipe throughput bound.
    kCuda,     ///< CUDA-pipe throughput bound.
    kDram,     ///< DRAM bandwidth bound.
    kL2,       ///< L2 bandwidth bound.
    kLatency,  ///< None saturated: launch/prologue/occupancy limited.
};

const char *to_string(Bound bound);

/// A roofline reading: the achieved fraction of each achievable peak over
/// a span, and the resource that bound the work.
struct Roofline {
    double tensor_util = 0;
    double cuda_util = 0;
    double dram_util = 0;
    double l2_util = 0;
    Bound bound = Bound::kLatency;
};

/// The utilization at which the busiest resource bounds the work.
constexpr double kBoundThreshold = 0.6;

/// Classifies `work` done over `span_us` on `device`: each utilization is
/// the work over peak × span (all zero when span_us <= 0), and the bound
/// is the resource with the highest utilization if that reaches
/// kBoundThreshold, else latency. The one classifier behind
/// characterize()'s kernels and the profiler's phases.
Roofline classify_roofline(const TbWork &work, double span_us,
                           const DeviceSpec &device);

struct KernelCharacterization {
    std::string name;
    double duration_us = 0;
    /// Flops per DRAM byte (tensor + CUDA flops over DRAM traffic);
    /// +inf when the kernel moves no DRAM bytes.
    double arithmetic_intensity = 0;
    /// Achieved fraction of each achievable peak over the kernel's span.
    double tensor_util = 0;
    double cuda_util = 0;
    double dram_util = 0;
    double l2_util = 0;
    Bound bound = Bound::kLatency;
    /// Dynamic energy (compute + memory), joules.
    double dynamic_j = 0;
};

struct WorkloadReport {
    std::vector<KernelCharacterization> kernels;
    double total_us = 0;
    double dynamic_j = 0;
    double static_j = 0;  ///< static_watts over the makespan.
    double total_j() const { return dynamic_j + static_j; }
    double average_watts() const
    {
        return total_us > 0 ? total_j() / (total_us * 1e-6) : 0;
    }
};

/// Characterizes every kernel of `result` against `device`, each
/// classified by classify_roofline over its own duration.
WorkloadReport characterize(const SimResult &result,
                            const DeviceSpec &device);

/// Prints the report as a fixed-width table (top `max_kernels` kernels by
/// duration, plus totals).
void print_report(const WorkloadReport &report, std::ostream &os,
                  int max_kernels = 20);

}  // namespace multigrain::sim

#endif  // MULTIGRAIN_GPUSIM_REPORT_H_
