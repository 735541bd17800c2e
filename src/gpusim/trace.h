#ifndef MULTIGRAIN_GPUSIM_TRACE_H_
#define MULTIGRAIN_GPUSIM_TRACE_H_

#include <string>
#include <vector>

#include "common/json.h"
#include "gpusim/engine.h"

/// Chrome trace-event export: turns a SimResult into a JSON timeline that
/// chrome://tracing or https://ui.perfetto.dev renders, one lane ("thread")
/// per CUDA stream. The multi-stream overlap of Multigrain's coarse ∥ fine
/// ∥ special parts is directly visible this way.
///
/// Beyond the per-kernel slices, the exporter emits the Nsight-style
/// context the paper reads off its profiles:
///  * counter tracks — DRAM bandwidth utilization and resident thread
///    blocks over time (piecewise-constant, sampled at kernel
///    boundaries);
///  * flow arrows for every cross-stream entry of KernelStats::deps (the
///    join edges of the simulated program), connecting the end of the
///    awaited kernel to the start of the waiter;
///  * phase marker slices on a dedicated "phases" lane (the carved
///    sddmm/softmax/spmm spans the profiler computes).
namespace multigrain::sim {

/// One marker slice on the "phases" lane.
struct PhaseMark {
    std::string name;
    double start_us = 0;
    double end_us = 0;
};

/// Writes the trace JSON to `path`: slices, flow arrows, counter tracks
/// against `device`'s peaks, and `phases` as marker slices on their own
/// lane (mgprof passes the profiler's carved ops). Throws Error on I/O
/// failure.
void write_chrome_trace_file(const SimResult &result,
                             const std::string &path,
                             const DeviceSpec &device,
                             const std::vector<PhaseMark> &phases = {});

/// Appends `result`'s per-kernel slices to an already-open
/// "traceEvents" array, shifted forward by `offset_us` and placed under
/// process `pid` (lane = simulated stream id). No lane-name metadata,
/// no flows, no counters — the minimal building block a composite
/// exporter (mgserve's correlated serving timeline) overlays per-round
/// replays with. `w` must be positioned inside an open JSON array.
void append_kernel_slices(JsonWriter &w, const SimResult &result,
                          double offset_us, int pid);

}  // namespace multigrain::sim

#endif  // MULTIGRAIN_GPUSIM_TRACE_H_
