#ifndef MULTIGRAIN_GPUSIM_LAUNCH_GRAPH_H_
#define MULTIGRAIN_GPUSIM_LAUNCH_GRAPH_H_

#include <string>
#include <utility>
#include <vector>

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
/// being re-recorded on every step.
///
/// A LaunchGraph is also the simulator's only input: a GpuSim owns one
/// program graph, replay_into() appends to it, and GpuSim::run() simulates
/// its nodes over their captured deps. Stream-order and join edges are
/// therefore computed in exactly one place, LaunchGraph::launch().
namespace multigrain::sim {

class GpuSim;

/// One node: a kernel launch on a logical stream, plus the graph-local
/// dependency edges (indices of earlier nodes) implied by stream order and
/// join barriers at capture time. Replaying the graph after other work
/// recomputes them against the simulator's program, which adds the
/// context edges (previous kernel on the mapped real stream, pending
/// joins).
struct LaunchGraphNode {
    KernelLaunch launch;
    int stream = 0;          ///< Logical stream within the graph.
    std::vector<int> deps;   ///< Sorted, deduplicated, each < own index.
};

class LaunchGraph {
  public:
    // ---- Capture --------------------------------------------------------
    /// Logical streams are small integers; stream 0 always exists and, by
    /// convention, replays onto the target simulator's stream 0.
    int create_stream();
    /// Records a kernel on `stream`, ordered after the previous kernel on
    /// that stream and, if it is the stream's first kernel since the last
    /// join, after every stream tail the join covered.
    void launch(int stream, KernelLaunch launch);
    /// The next kernel recorded on *any* stream waits for everything
    /// recorded so far (an event barrier across streams).
    void join_streams();

    // ---- Introspection --------------------------------------------------
    int num_streams() const { return num_streams_; }
    std::size_t size() const { return nodes_.size(); }
    bool empty() const { return nodes_.empty(); }
    const std::vector<LaunchGraphNode> &nodes() const { return nodes_; }
    /// The ordered op stream replay walks: node indices interleaved with
    /// kJoin barrier markers.
    static constexpr int kJoin = -1;
    const std::vector<int> &ops() const { return ops_; }
    TbWork total_work() const;
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
    /// Plan-local buffer annotations ('%'-prefixed, see intern_buffer)
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
    /// Appends the graph to `sim`'s program through the same edge code
    /// capture uses. `binding` maps logical → real streams and is extended
    /// in logical-stream order (missing entries are fresh program streams;
    /// an empty binding first pins logical 0 to real stream 0), so
    /// replaying the same graph with the same binding reuses its streams —
    /// and replaying with a fresh binding lands on fresh streams.
    /// `name_prefix` is prepended to every kernel name (e.g. "L07." for
    /// layer 7), which is how one captured layer graph expands into every
    /// layer of a model while keeping phase-carvable names. Plan-local
    /// buffer names stay as captured. Throws Error once `sim` has run, or
    /// if `binding` names a stream `sim` never created.
    void replay_into(GpuSim &sim, std::vector<int> &binding,
                     const std::string &name_prefix = "") const;
    /// Replay onto fresh streams (a throwaway binding).
    void replay_into(GpuSim &sim, const std::string &name_prefix = "") const;

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
    KernelLaunch &launch_for_test(int node)
    {
        return nodes_[static_cast<std::size_t>(node)].launch;
    }

  private:
    /// Extends a logical → this-graph stream map to `streams` entries:
    /// an empty map first pins stream 0 to stream 0, then every missing
    /// entry gets a fresh stream.
    void bind_streams(std::vector<int> &map, int streams);
    /// Records `other`'s ops (joins included) with `map` as its stream
    /// map, kernel names prefixed, and plan-local buffers re-interned
    /// under `buffer_ns` unless it is null. Shared by append and replay.
    void append_ops(const LaunchGraph &other, const std::string &name_prefix,
                    const std::vector<int> &map, const std::string *buffer_ns);

    // Capture state: the stream tails and pending join launch() turns
    // into edges.
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

}  // namespace multigrain::sim

namespace multigrain {
using sim::LaunchGraph;
using sim::LaunchGraphNode;
}  // namespace multigrain

#endif  // MULTIGRAIN_GPUSIM_LAUNCH_GRAPH_H_
