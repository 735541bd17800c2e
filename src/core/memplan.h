#ifndef MULTIGRAIN_CORE_MEMPLAN_H_
#define MULTIGRAIN_CORE_MEMPLAN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/plan_facts.h"
#include "gpusim/launch.h"

/// Static memory planner over the LaunchGraph IR.
///
/// A captured plan is a pure data structure, so its device-memory
/// footprint is decidable at capture time, the same way lint decides its
/// races: every kernel's annotated reads/writes/accums carry byte sizes
/// (sim::SizedBuffer), and the happens-before relation in PlanFacts
/// (core/plan_facts.h) gives each buffer a live range. Two
/// plan-local intermediates whose live ranges cannot overlap under any
/// legal schedule — e.g. the %s.* score fragments (dead once the SpMMs
/// drain them) and the FFN activations written afterwards — can share
/// one arena slot, which is exactly the cudaGraph-style static pooling
/// a real allocator performs and what lets a byte-budget scheduler pack
/// serving rounds against HBM capacity instead of guessing.
///
/// Buffer classes:
///  * kShared — unprefixed interface tensors (q/k/v/o, x, weights).
///    They outlive the plan; accounted in the footprint, never pooled.
///  * kInput  — '%'-local but read (or accumulated) before any write
///    inside this graph: its initial contents flow in from a sibling
///    graph appended under the same namespace (the %p.* probabilities a
///    standalone backward consumes) or from setup (%mask). Accounted,
///    not pooled — pooling would corrupt the inbound dataflow.
///  * kPooled — '%'-local and born inside the graph (first access is a
///    pure write). Assigned an arena offset; two pooled buffers may
///    alias iff every use of one happens-before every use of the other.
namespace multigrain {

enum class BufferClass { kShared, kInput, kPooled };

/// Arena offsets are aligned to this boundary (cudaMalloc-style
/// granularity; keeps slots reusable across dtype changes).
inline constexpr std::uint64_t kArenaAlign = 256;

struct MemPlanBuffer {
    sim::BufferId id = sim::kNoBuffer;
    std::string name;
    BufferClass cls = BufferClass::kShared;
    /// Max annotated byte size across all uses (0 = unsized: the live
    /// range is tracked but the buffer occupies no arena space).
    std::uint64_t bytes = 0;
    /// Capture-order node indices of the first and last kernel touching
    /// the buffer. Capture order is topological, so these bound — but do
    /// not define — the live range; liveness is decided by
    /// happens-before, not by index intervals.
    int first_use = -1;
    int last_use = -1;
    /// Arena byte offset; meaningful for kPooled only (0 otherwise).
    std::uint64_t offset = 0;
    /// All capture-order node indices touching the buffer, ascending.
    std::vector<int> uses;
};

/// The planner's result: a deterministic arena layout plus the footprint
/// ledger mgplan / mgprof / the byte-budget serving scheduler read.
struct MemPlan {
    /// Deterministic order: ascending first_use, ties by name.
    std::vector<MemPlanBuffer> buffers;
    std::size_t num_nodes = 0;
    /// High-water mark of the pooled arena (max offset + bytes).
    std::uint64_t arena_bytes = 0;
    /// Sum of kShared + kInput buffer sizes (allocated outside the
    /// arena for the plan's whole lifetime).
    std::uint64_t external_bytes = 0;
    /// Sum of kPooled buffer sizes before pooling.
    std::uint64_t pooled_request_bytes = 0;

    /// Footprint if every buffer got a private allocation.
    std::uint64_t naive_hbm_bytes() const
    {
        return external_bytes + pooled_request_bytes;
    }
    /// Footprint under the pooled arena — what the plan actually needs.
    std::uint64_t peak_hbm_bytes() const
    {
        return external_bytes + arena_bytes;
    }
    /// Fraction of the naive footprint the arena saves, in [0, 1].
    double pooling_savings() const;
};

/// Thrown when validate_memplan finds two live-overlapping pooled
/// buffers whose arena intervals alias (or a malformed layout). Derives
/// from ValidationError so the CLIs' exit-2 contract applies.
struct MemPlanError : ValidationError {
    using ValidationError::ValidationError;
};

/// Plans the graph `facts` describes: live ranges under its
/// happens-before bitsets, buffer classes from its access lists, and a
/// greedy first-fit packing of the pooled buffers into the arena (at the
/// lowest kArenaAlign-aligned offset, in deterministic order). Pure
/// function of the graph.
MemPlan plan_memory(const PlanFacts &facts);

/// Checks that no two live-overlapping pooled buffers in `plan` alias,
/// that offsets are aligned, and that the arena high-water mark is
/// consistent. Interference is re-derived from the graph's facts, never
/// read from the plan, so a stale or hand-perturbed plan cannot vouch for
/// itself. Throws MemPlanError on any violation (mgplan exits 2 on it).
void validate_memplan(const PlanFacts &facts, const MemPlan &plan);

/// Cached planner: stores the validated MemPlan in the process-wide
/// PlanCache under `graph_key + "|mem"`, beside the graph it describes,
/// so replay-path consumers (bench rows, the serving scheduler) get
/// footprints without re-planning. On a miss it plans from `facts` when
/// given (they must describe `graph`), else derives them from `graph`.
std::shared_ptr<const MemPlan> memplan_for(const std::string &graph_key,
                                           const LaunchGraph &graph,
                                           const PlanFacts *facts = nullptr);

}  // namespace multigrain

#endif  // MULTIGRAIN_CORE_MEMPLAN_H_
