#ifndef MULTIGRAIN_CORE_PLAN_FACTS_H_
#define MULTIGRAIN_CORE_PLAN_FACTS_H_

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gpusim/launch.h"
#include "gpusim/launch_graph.h"

/// What a captured plan implies, derived once and shared by every
/// plan-level analyzer.
///
/// The paper's §3.1 rule — derive what a pattern implies once, offline,
/// and reuse it — applies to the analyzers too: the hazard detector
/// (core/lint.h), the memory planner and its validator (core/memplan.h),
/// and the definedness interpreter (core/check.h) all reason about the
/// same two facts of a LaunchGraph: which nodes happen-before which, and
/// which nodes touch which buffer how. PlanFacts computes both in one
/// pass over a validated graph; the analyzers take it by const reference
/// (it converts implicitly from a LaunchGraph, so `lint_graph(graph)`
/// still reads naturally), and a capture that runs all of them
/// (verify_capture) builds it once.
namespace multigrain {

/// Per-node ancestor bitsets: ordered(i, j) iff node i happens-before
/// node j through the dep edges (which capture derives from stream order
/// and join barriers). Built in one pass over the (topologically ordered)
/// nodes; `skip` removes specific edges, which is how lint's join
/// analysis asks "would the schedule still be ordered without this
/// barrier edge?".
class HappensBefore {
  public:
    explicit HappensBefore(
        const std::vector<LaunchGraphNode> &nodes,
        const std::set<std::pair<int, int>> *skip = nullptr);

    /// i →hb j (strict; requires i < j in capture order, which is the
    /// only direction an edge can point).
    bool ordered(int i, int j) const
    {
        return (bits_[static_cast<std::size_t>(j) * words_ +
                      static_cast<std::size_t>(i) / 64] >>
                (static_cast<std::size_t>(i) % 64)) &
               1;
    }

  private:
    std::size_t n_ = 0;
    std::size_t words_ = 0;
    std::vector<std::uint64_t> bits_;
};

/// How a kernel touches a buffer, weakest first: a node that both reads
/// and writes a buffer (in-place softmax) acts as a writer.
enum class AccessMode { kRead, kAccum, kWrite };

/// One annotated access: the node, how it touches the buffer, the
/// annotated byte size, and the definedness declaration flags (0 where a
/// hand-built launch's parallel vectors are shorter than its id vector).
struct BufferAccess {
    int node = -1;
    AccessMode mode = AccessMode::kRead;
    std::uint64_t bytes = 0;
    unsigned flags = 0;
};

/// Everything the analyzers know about one buffer.
struct BufferFacts {
    sim::BufferId id = sim::kNoBuffer;
    std::string name;
    bool plan_local = false;
    /// Every annotated access in capture order; within a node, reads,
    /// then accums, then writes, in annotation order.
    std::vector<BufferAccess> accesses;
    /// The distinct nodes touching the buffer, ascending.
    std::vector<int> uses;
    /// Max annotated byte size across accesses (0 = unsized).
    std::uint64_t bytes = 0;
    /// Union of the declarations on every access: a declaration anywhere
    /// in the graph covers the whole buffer.
    unsigned flags = 0;
    /// The first-use node reads or accumulates the buffer (whatever else
    /// it does to it), so its prior contents are observable.
    bool first_use_reads = false;

    int first_use() const { return uses.front(); }
    int last_use() const { return uses.back(); }
    bool declared(unsigned flag) const { return (flags & flag) != 0; }
};

class PlanFacts {
  public:
    /// Validates `graph` (throws Error if malformed) and derives its
    /// facts. Implicit on purpose: every analyzer entry point accepts a
    /// LaunchGraph directly. The graph must outlive the facts.
    PlanFacts(const LaunchGraph &graph);

    const LaunchGraph &graph() const { return *graph_; }
    const std::vector<LaunchGraphNode> &nodes() const
    {
        return graph_->nodes();
    }
    std::size_t num_nodes() const { return graph_->size(); }

    /// i happens-before j (see HappensBefore).
    bool ordered(int i, int j) const { return hb_.ordered(i, j); }

    /// Every annotated buffer, in name order: the interning table is
    /// process-global, so id order would depend on what ran earlier in
    /// the process.
    const std::vector<BufferFacts> &buffers() const { return buffers_; }
    /// The facts of buffer `id`, or nullptr when no node touches it.
    const BufferFacts *find(sim::BufferId id) const;

    /// Dependency chain from a root to `node`, oldest-first, following
    /// each node's newest dep. The witness behind lint hazards and check
    /// findings: because the endpoints of an unordered pair are
    /// unordered, the chain to one endpoint never passes through the
    /// other.
    std::vector<int> witness(int node) const;
    /// "#3 spmm.fine @s1".
    std::string node_str(int node) const;
    /// Node strings joined by " -> ".
    std::string chain_str(const std::vector<int> &chain) const;

  private:
    const LaunchGraph *graph_;
    HappensBefore hb_;
    std::vector<BufferFacts> buffers_;
    std::unordered_map<sim::BufferId, std::size_t> index_;
};

}  // namespace multigrain

#endif  // MULTIGRAIN_CORE_PLAN_FACTS_H_
