#ifndef MULTIGRAIN_CORE_LAUNCH_GRAPH_H_
#define MULTIGRAIN_CORE_LAUNCH_GRAPH_H_

#include <string>
#include <vector>

#include "gpusim/engine.h"
#include "gpusim/launch.h"

/// Execution-plan IR: a captured, replayable kernel-launch graph.
///
/// The paper's §3.1 argument is that slice-and-dice metadata is built
/// offline once per input shape and amortized across inference steps. The
/// same holds for the *execution plan* derived from that metadata: the
/// exact kernel sequence, its stream assignments, and its dependency
/// structure are a pure function of (pattern, config, mode, device) — so
/// they are captured once into a LaunchGraph and replayed (CUDA-Graph
/// style) into any number of simulators, under any name prefix, instead of
/// being re-recorded imperatively on every step.
///
/// A graph is captured through the same launch/join API GpuSim exposes
/// (LaunchSink), so the phase builders in core/attention.cc are written
/// once and can either record into a graph or — for the equivalence tests
/// that pin replay against the pre-capture behavior — drive a simulator
/// directly through GpuSimSink.
namespace multigrain {

/// The recording interface shared by LaunchGraph (capture) and GpuSimSink
/// (direct imperative planning). Semantics match sim::GpuSim: stream 0
/// always exists, kernels on one stream serialize, join_streams() makes
/// the next kernel on any stream wait for everything submitted so far.
class LaunchSink {
  public:
    virtual ~LaunchSink() = default;
    virtual int create_stream() = 0;
    virtual void launch(int stream, sim::KernelLaunch launch) = 0;
    virtual void join_streams() = 0;
};

/// Forwards straight to a GpuSim — the pre-LaunchGraph imperative path,
/// kept as the reference the replay-equivalence property tests compare
/// against.
class GpuSimSink final : public LaunchSink {
  public:
    explicit GpuSimSink(sim::GpuSim &sim) : sim_(sim) {}
    int create_stream() override { return sim_.create_stream(); }
    void launch(int stream, sim::KernelLaunch launch) override
    {
        sim_.launch(stream, std::move(launch));
    }
    void join_streams() override { sim_.join_streams(); }

  private:
    sim::GpuSim &sim_;
};

/// One node: a kernel launch on a logical stream, plus the graph-local
/// dependency edges (indices of earlier nodes) implied by stream order and
/// join barriers at capture time. When the graph is replayed after other
/// work in the target simulator, the simulator adds the context edges
/// (previous kernel on the mapped real stream, pending joins) on top.
struct LaunchGraphNode {
    sim::KernelLaunch launch;
    int stream = 0;          ///< Logical stream within the graph.
    std::vector<int> deps;   ///< Sorted, deduplicated, each < own index.
};

class LaunchGraph final : public LaunchSink {
  public:
    // ---- Capture (LaunchSink) -------------------------------------------
    /// Logical streams are small integers; stream 0 always exists and, by
    /// convention, replays onto the target simulator's stream 0.
    int create_stream() override;
    void launch(int stream, sim::KernelLaunch launch) override;
    void join_streams() override;

    // ---- Introspection --------------------------------------------------
    int num_streams() const { return num_streams_; }
    std::size_t size() const { return nodes_.size(); }
    bool empty() const { return nodes_.empty(); }
    const std::vector<LaunchGraphNode> &nodes() const { return nodes_; }
    /// The ordered op stream replay walks: node indices interleaved with
    /// kJoin barrier markers.
    static constexpr int kJoin = -1;
    const std::vector<int> &ops() const { return ops_; }
    sim::TbWork total_work() const;
    /// Throws Error if an invariant is broken: an op stream that skips,
    /// duplicates, or reorders node indices (every node must appear
    /// exactly once, in capture order), a dep out of range or not
    /// strictly older, unsorted/duplicated deps, or a stream out of
    /// range.
    void validate() const;

    // ---- Composition ----------------------------------------------------
    /// Appends `other`'s ops to this graph: kernel names get `name_prefix`
    /// prepended, and other's logical stream s becomes this graph's
    /// logical stream stream_map[s]. With a null map, other's stream 0
    /// maps to this graph's stream 0 and every further stream gets a
    /// fresh one. Dependency edges are recomputed against this graph's
    /// capture state, so other's first kernels serialize after this
    /// graph's current stream tails exactly as live recording would.
    /// `other` is validated first, so a hand-built malformed graph cannot
    /// be spliced in unchecked.
    ///
    /// Plan-local buffer annotations ('%'-prefixed, see sim::intern_buffer)
    /// are re-interned under a namespace: "%X" becomes "%<ns>.X". With a
    /// null `buffer_ns` every append call gets a fresh unique namespace,
    /// so two appended copies of one plan never alias their
    /// intermediates; callers appending several graphs that genuinely
    /// share intermediates (an engine's sddmm/softmax/spmm phases) pass
    /// the same namespace for all of them. Shared (unprefixed) buffers
    /// are never remapped.
    void append(const LaunchGraph &other, const std::string &name_prefix = "",
                const std::vector<int> *stream_map = nullptr,
                const std::string *buffer_ns = nullptr);

    // ---- Replay ---------------------------------------------------------
    /// Instantiates the graph into `sim`. `binding` maps logical → real
    /// streams and is extended in logical-stream order (missing entries
    /// allocated with sim.create_stream(); an empty binding first pins
    /// logical 0 to real stream 0), so replaying the same graph with the
    /// same binding reuses its streams — and replaying with a fresh
    /// binding lands on fresh streams. `name_prefix` is prepended to every
    /// kernel name (e.g. "L07." for layer 7), which is how one captured
    /// layer graph expands into every layer of a model while keeping
    /// phase-carvable names.
    void replay_into(sim::GpuSim &sim, std::vector<int> &binding,
                     const std::string &name_prefix = "") const;
    /// Replay onto fresh streams (a throwaway binding).
    void replay_into(sim::GpuSim &sim,
                     const std::string &name_prefix = "") const;

    // ---- Test hooks -----------------------------------------------------
    /// Removes the edge `dep` from node `node`'s dep list (throws if the
    /// edge does not exist). Used by the lint tests to seed a
    /// missing-edge hazard into an otherwise-correct captured plan.
    void drop_dep_for_test(int node, int dep);
    /// Replaces the op stream wholesale, bypassing capture. Used by the
    /// validate() tests to build the malformed graphs (skipped or
    /// duplicated node indices) that capture itself can never produce.
    void set_ops_for_test(std::vector<int> ops) { ops_ = std::move(ops); }
    /// Mutable access to a node's launch, bypassing capture. Used by the
    /// mgplan seeded-defect hooks (and the tests) to corrupt a copied
    /// graph's annotations — dropping an init write, shrinking a
    /// SizedBuffer — and prove the analyzer catches it.
    sim::KernelLaunch &launch_for_test(int node)
    {
        return nodes_[static_cast<std::size_t>(node)].launch;
    }

  private:
    // Capture state, mirroring GpuSim's stream bookkeeping so the edges
    // recorded here equal the ones the simulator would compute.
    int num_streams_ = 1;
    std::vector<int> stream_tail_ = {-1};  ///< Last node per stream.
    std::vector<int> join_set_;       ///< Stream tails of the last join.
    std::vector<bool> join_applied_;  ///< Per stream: join already waited.

    std::vector<LaunchGraphNode> nodes_;
    std::vector<int> ops_;
    /// Fresh plan-local buffer namespaces handed out by append() when the
    /// caller does not provide one.
    int buffer_ns_seq_ = 0;
};

}  // namespace multigrain

#endif  // MULTIGRAIN_CORE_LAUNCH_GRAPH_H_
