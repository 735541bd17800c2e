#ifndef MULTIGRAIN_GPUSIM_LAUNCH_H_
#define MULTIGRAIN_GPUSIM_LAUNCH_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/util.h"
#include "gpusim/device.h"

/// Kernel-launch descriptors: the interface between kernels and the
/// execution engine.
///
/// A kernel's plan() walks the same sparse metadata its functional run()
/// walks and emits one TbWork per thread block (or a TbGroup of identical
/// blocks). The engine then executes the launch against a DeviceSpec.
namespace multigrain::sim {

/// Resource footprint of one thread block; drives the occupancy limit.
struct TbShape {
    int threads = 128;
    int smem_bytes = 0;
    int regs_per_thread = 32;

    bool operator==(const TbShape &) const = default;
};

/// Work carried by one thread block. DRAM bytes are *actual* device-memory
/// traffic the block induces (after the kernel's reuse/overfetch model),
/// matching what a profiler reports; l2_bytes are additional accesses
/// served by the L2 cache (re-touches of resident data). Flops are useful
/// arithmetic on each pipe.
struct TbWork {
    double tensor_flops = 0;
    double cuda_flops = 0;
    double dram_read_bytes = 0;
    double dram_write_bytes = 0;
    double l2_bytes = 0;

    TbWork &operator+=(const TbWork &other)
    {
        tensor_flops += other.tensor_flops;
        cuda_flops += other.cuda_flops;
        dram_read_bytes += other.dram_read_bytes;
        dram_write_bytes += other.dram_write_bytes;
        l2_bytes += other.l2_bytes;
        return *this;
    }
    double dram_bytes() const { return dram_read_bytes + dram_write_bytes; }
    /// Everything that moves through the L2 slice (DRAM fills + L2 hits).
    double mem_bytes() const { return dram_bytes() + l2_bytes; }
    bool empty() const
    {
        return tensor_flops == 0 && cuda_flops == 0 && mem_bytes() == 0;
    }
    bool operator==(const TbWork &) const = default;
};

/// `count` thread blocks with identical work.
struct TbGroup {
    TbWork work;
    index_t count = 1;

    bool operator==(const TbGroup &) const = default;
};

// ---- Dataflow annotations (the plan lint hazard model's vocabulary) -----

/// Interned handle for a logical tensor a kernel touches ("q", "%s.fine",
/// "dv", ...). The table is process-wide and append-only; ids are stable
/// for the life of the process.
using BufferId = int;
inline constexpr BufferId kNoBuffer = -1;

/// Interns `name` (returning the existing id when already known). Names
/// beginning with '%' are *plan-local*: they denote intermediates private
/// to one captured graph (the S/P score matrices, the dP gradients) and
/// are re-namespaced when a graph is appended into a larger one, so two
/// co-scheduled copies of the same plan never alias. All other names are
/// shared interface tensors (q/k/v/o, dq/dk/dv, activations).
BufferId intern_buffer(const std::string &name);

/// The name `id` was interned under; throws Error on an unknown id.
std::string buffer_name(BufferId id);

/// True for '%'-prefixed (plan-local) buffer names.
bool buffer_is_plan_local(BufferId id);

// Definedness declarations a plan site can attach to an annotated buffer
// reference. They state dataflow facts the graph itself cannot express —
// the plan checker (src/core/check.h) consumes them; lint and the memory
// planner ignore them.

/// The buffer is defined before the graph starts (an inbound tensor: a
/// stashed forward activation read by the backward graph, a mask built at
/// setup time). Reads need no in-graph dominating write.
inline constexpr unsigned kBufInput = 1U << 0;
/// The buffer is zero-filled at graph entry; accumulating into it without
/// a prior in-graph write is sound.
inline constexpr unsigned kBufZeroInit = 1U << 1;
/// The buffer escapes the graph (a result or a stash consumed by a later
/// graph); a final write with no in-graph reader is not a dead store.
inline constexpr unsigned kBufOutput = 1U << 2;

/// One annotated buffer reference: a name plus the byte size of the
/// region the kernel touches through it. Implicitly convertible from a
/// bare name so legacy `{"q", "k"}` annotation lists keep compiling;
/// bytes == 0 means "unsized" (the memory planner accounts the buffer
/// at zero width but still tracks its live range). `flags` is an OR of
/// kBufInput/kBufZeroInit/kBufOutput definedness declarations.
struct SizedBuffer {
    // NOLINTNEXTLINE(google-explicit-constructor)
    constexpr SizedBuffer(const char *n, std::uint64_t b = 0, unsigned f = 0)
        : name(n), bytes(b), flags(f)
    {
    }
    const char *name;
    std::uint64_t bytes;
    unsigned flags;
};

struct KernelLaunch {
    std::string name;
    TbShape shape;
    std::vector<TbGroup> tbs;

    /// Dataflow annotations: the logical buffers this kernel reads,
    /// writes, and accumulates into (commutative read-modify-write, e.g.
    /// atomic adds into a shared output — two accumulators never conflict
    /// with each other, only with plain readers/writers). Optional: empty
    /// sets mean "not annotated" and the linter treats the kernel as
    /// touching nothing. The execution engine never consults them.
    std::vector<BufferId> reads;
    std::vector<BufferId> writes;
    std::vector<BufferId> accums;

    /// Byte sizes parallel to reads/writes/accums (entry i sizes buffer
    /// i of the matching id vector). Kept as separate vectors so graph
    /// re-namespacing — which rewrites only BufferId vectors — carries
    /// sizes along untouched, and replay (which copies the launch
    /// wholesale) stays byte-identical. 0 = unsized.
    std::vector<std::uint64_t> read_bytes;
    std::vector<std::uint64_t> write_bytes;
    std::vector<std::uint64_t> accum_bytes;

    /// Definedness declarations (OR of kBufInput/kBufZeroInit/kBufOutput),
    /// parallel to reads/writes/accums like the byte vectors. They ride
    /// along unchanged through append()'s re-namespacing, which rewrites
    /// only the BufferId vectors.
    std::vector<unsigned> read_flags;
    std::vector<unsigned> write_flags;
    std::vector<unsigned> accum_flags;

    index_t num_tbs() const;
    TbWork total_work() const;

    /// Appends `count` identical blocks, merging with the tail group when
    /// the work matches exactly (keeps descriptors compact for the large
    /// regular kernels).
    void add_tb(const TbWork &work, index_t count = 1);
};

/// Builder-style annotation helper for plan() call sites:
///   graph.launch(s, annotate(plan_fine_sddmm(...), {{"q", qb}, {"k", kb}},
///                            {{"%s.fine", sb}}));
/// Bare names (`{"q", "k"}`) still work and annotate at zero bytes.
KernelLaunch annotate(KernelLaunch launch,
                      std::initializer_list<SizedBuffer> reads,
                      std::initializer_list<SizedBuffer> writes,
                      std::initializer_list<SizedBuffer> accums = {});

/// Thread blocks of `shape` that fit on one SM concurrently under the CUDA
/// occupancy rules (block slots, threads, registers, shared memory).
/// Always at least 1 (a block that oversubscribes an SM still runs alone;
/// callers keep shapes within device limits).
int occupancy_per_sm(const DeviceSpec &device, const TbShape &shape);

}  // namespace multigrain::sim

#endif  // MULTIGRAIN_GPUSIM_LAUNCH_H_
