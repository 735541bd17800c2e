#ifndef MULTIGRAIN_GPUSIM_ENGINE_H_
#define MULTIGRAIN_GPUSIM_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/launch.h"
#include "gpusim/launch_graph.h"

/// The GPU execution engine: a deterministic processor-sharing (fluid)
/// event simulator.
///
/// Model (DESIGN.md §4). Thread blocks are admitted to SM slots round-robin
/// as resources free, under the CUDA occupancy rules. While resident, a
/// block's tensor-pipe work drains at an equal share of its SM's tensor
/// throughput, its CUDA-pipe work at an equal share of the SM's CUDA
/// throughput, and its memory work at an equal share of device DRAM
/// bandwidth (additionally capped by a per-SM burst limit). A block
/// completes when all of its work components have drained, after a fixed
/// per-block prologue. Kernels in one stream serialize; kernels in
/// different streams co-schedule on the same SM array — this is exactly the
/// mechanism by which Multigrain's coarse ∥ fine multi-stream split wins.
///
/// Input: one LaunchGraph program per simulator, built by replaying
/// captured graphs into it (LaunchGraph::replay_into). A kernel becomes
/// ready when every node in its captured deps has finished.
///
/// Implementation: per-resource progress clocks. A clock advances at
/// R / N(t) where N is its live consumer count; a block's component
/// finishes when the clock crosses (value-at-admission + work). Events pop
/// in (t, kind, seq) order from two queues. Each clock keeps exactly one
/// live crossing prediction in an indexed min-heap, and a new prediction
/// overwrites it in place. Kernel-ready, activation and private-deadline
/// events share one binary heap. A latency-capped unit queues only its
/// last private deadline, because an earlier one could never complete it.
/// Every dropped event still consumes its seq, so every tie-break is the
/// one a queue holding all of them would make. The dropped events are
/// superseded predictions and non-final deadlines; popping one changed no
/// state except `now`, and only to a time no later than the next event
/// that does. Results are therefore bit-identical to that queue's.
///
/// Segments. A quiescent point is an instant with no unit resident and
/// nothing left to issue, so only kernel-ready events are queued. There
/// the segment origin moves to `now` (a rebase): every clock's value and
/// last update restart at 0, the unit pool and issue cursor reset, and
/// each queued ready event is re-timed from the finish that released it.
/// A segment's timing is thus a function of its entry (the pending
/// kernels, their origins and pop order) and of the kernels it runs, not
/// of when it starts; KernelStats report the segment's start plus the
/// local time. Within one run() every simulated segment is recorded. A
/// later segment whose entry and kernels equal a record's at a
/// kernel-index offset (launch content, real stream and dep offsets;
/// every dep outside it done; no outside kernel released before its end)
/// is spliced: the record's local stats are copied and children are
/// released in its finish order, so the result is bit-identical to
/// simulating it. Nothing outlives run().
/// Simulation cost is O(blocks · log) per distinct segment, independent
/// of how long blocks overlap or how often a segment repeats.
namespace multigrain::sim {

struct KernelStats {
    std::string name;
    int stream = 0;
    index_t num_tbs = 0;
    int occupancy_per_sm = 0;
    double ready_us = 0;  ///< Dependencies resolved + launch latency.
    double start_us = 0;  ///< First block admitted.
    double end_us = 0;    ///< Last block drained.
    TbWork work;          ///< Aggregate flops / DRAM traffic.
    /// Average resident thread blocks while the kernel ran; the analogue of
    /// Nsight's achieved-occupancy signal the paper uses for the load
    /// imbalance discussion (§5.2.1).
    double avg_concurrency = 0;
    /// Indices (into SimResult::kernels) of the kernels this one waited
    /// for: its program node's deps (the previous kernel on its stream
    /// plus any join barrier tails). Sorted, deduplicated. Cross-stream
    /// entries are the edges the trace exporter renders as flow arrows.
    std::vector<int> deps;

    double duration_us() const { return end_us - start_us; }
};

/// What one GpuSim::run did: host-cost accounting, not a simulated
/// quantity (golden digests ignore it).
struct EngineCounters {
    std::int64_t units = 0;  ///< Units (chunks of identical blocks) admitted.
    std::int64_t crossing_events = 0;    ///< Clock predictions popped.
    std::int64_t ready_events = 0;       ///< Kernel-ready events popped.
    std::int64_t activation_events = 0;  ///< Unit activations popped.
    std::int64_t deadline_events = 0;    ///< Private deadlines popped.
    /// Clock predictions made; those not popped were overwritten.
    std::int64_t predictions = 0;
    /// Peak of queued events plus live clock predictions.
    std::int64_t peak_queue = 0;
    std::int64_t segments = 0;         ///< Quiescent segments simulated.
    std::int64_t segment_hits = 0;     ///< Segments spliced from a record.
    std::int64_t spliced_kernels = 0;  ///< Kernels those splices covered.
};

struct SimResult {
    double total_us = 0;
    TbWork work;
    std::vector<KernelStats> kernels;
    EngineCounters engine;

    double dram_bytes() const { return work.dram_bytes(); }
    /// Wall-clock span (max end - min start) over kernels whose name
    /// starts with `prefix`; the right metric for a multi-stream phase.
    /// Zero when nothing matches.
    double span(const std::string &prefix) const;
    /// Absolute completion time (max end since t = 0) over kernels whose
    /// name starts with `prefix`; zero when nothing matches. This is the
    /// per-batch finish time the serving layer reads off a round where
    /// several batches co-schedule on different streams.
    double finish_us(const std::string &prefix) const;
    /// Aggregate DRAM traffic of kernels whose name starts with `prefix`.
    double dram_bytes_for(const std::string &prefix) const;
    const KernelStats *find(const std::string &name) const;
};

class GpuSim {
  public:
    explicit GpuSim(DeviceSpec device);

    const DeviceSpec &device() const { return device_; }

    /// Simulates the program: everything replayed into this simulator,
    /// in replay order. May be called once.
    SimResult run();

  private:
    friend class LaunchGraph;  // replay_into() appends to program_.

    DeviceSpec device_;
    /// The program run() simulates. Its streams are the simulator's real
    /// streams; stream 0 always exists.
    LaunchGraph program_;
    bool ran_ = false;
};

/// Replays `graph` into a fresh simulator for `device` and runs it.
SimResult simulate(const DeviceSpec &device, const LaunchGraph &graph);

}  // namespace multigrain::sim

#endif  // MULTIGRAIN_GPUSIM_ENGINE_H_
