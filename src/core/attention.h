#ifndef MULTIGRAIN_CORE_ATTENTION_H_
#define MULTIGRAIN_CORE_ATTENTION_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/memplan.h"
#include "core/plan_cache.h"
#include "formats/matrix.h"
#include "gpusim/engine.h"
#include "gpusim/launch_graph.h"
#include "kernels/fine.h"
#include "patterns/slice.h"

/// The paper's primary contribution: the Multigrain compound sparse
/// attention engine (§3).
///
/// An AttentionEngine binds a compound sparse pattern to a processing
/// method — Multigrain (slice & dice + multi-stream), the Triton-style
/// coarse-only baseline, the Sputnik-style fine-only baseline, or the
/// dense masked baseline — and offers the two faces every kernel in this
/// library has:
///
///  * run() / run_backward(): the functional single-head attention
///    softmax(scale·QKᵀ|pattern)·V and its gradients, computed on the CPU
///    with the same FP16/FP32 precision contract the CUDA kernels honor.
///    All four methods produce the same result (up to FP16
///    accumulation-order noise); tests pin this against an FP64 dense
///    reference.
///  * forward_graph() / backward_graph(): the method's exact kernel
///    sequence — including the multi-stream coarse ∥ fine ∥ special
///    overlap — captured into LaunchGraphs, which callers replay into a
///    GpuSim for timing and DRAM-traffic measurement.
///
/// Both faces walk one private table of the plan's parts (each with its
/// layout, stream slot and kernels) and softmax groups: capture records
/// each part's launches, and run() / run_backward() execute each part's
/// CPU kernels over its layout, so the numbers the tests check come from
/// the plan that is timed.
///
/// Planning is capture-then-replay: the kernel sequence for a given
/// (pattern fingerprint, config, mode, device) is captured once into
/// LaunchGraphs held by the process-wide PlanCache, and every caller
/// replays (or appends) the cached graph. Slice-and-dice metadata is
/// likewise memoized: two engines over the same pattern/config share one
/// CachedPlanState.
namespace multigrain {

struct AttentionConfig {
    index_t head_dim = 64;
    index_t num_heads = 1;
    index_t batch = 1;
    index_t block = 64;
    /// 0 means the usual 1/sqrt(head_dim) scaling factor (§2.2).
    double scale = 0.0;
    /// Which fine SDDMM grid mapping to use (§4; kRowSplit is the paper's
    /// optimized Sputnik, k1dTiling the official library's).
    kernels::FineSddmmScheme fine_scheme =
        kernels::FineSddmmScheme::kRowSplit;
    /// Ablation: run coarse/fine/special parts on one stream when false.
    bool multi_stream = true;
    /// Ablation: keep global rows in the fine part when false.
    bool route_global_to_dense = true;

    double effective_scale() const;
};

/// Kernel-name prefixes used in plans, so benches can carve phases out of
/// a SimResult: "sddmm.", "softmax.", "spmm." plus part suffixes.
namespace phase {
inline constexpr const char *kSddmm = "sddmm.";
inline constexpr const char *kSoftmax = "softmax.";
inline constexpr const char *kSpmm = "spmm.";
}  // namespace phase

class AttentionEngine {
  public:
    /// Slices `pattern` for `mode` under `config` — or, when an engine
    /// with the same (pattern fingerprint, config, mode) has been built
    /// before, reuses its metadata from the PlanCache. Throws on malformed
    /// patterns (see slice_and_dice).
    AttentionEngine(const CompoundPattern &pattern,
                    const AttentionConfig &config, SliceMode mode);

    const SlicePlan &plan() const { return state_->plan(); }
    const AttentionConfig &config() const { return config_; }
    SliceMode mode() const { return plan().mode; }

    /// Content hash of the pattern this engine was built from; the
    /// pattern-identity component of every plan-cache key.
    std::uint64_t pattern_fingerprint() const { return pattern_fp_; }
    /// The device-independent plan-cache key: pattern fingerprint +
    /// AttentionConfig + SliceMode. Device-specific graph keys append a
    /// device component to this.
    const std::string &plan_key() const { return meta_key_; }

    /// Functional single-head attention; q/k/v are seq_len x head_dim.
    /// Rows with no attended positions (zero padding) come out all-zero.
    HalfMatrix run(const HalfMatrix &q, const HalfMatrix &k,
                   const HalfMatrix &v) const;

    /// Gradients of run() with respect to q, k, v for an upstream
    /// gradient d_out (training support; the forward activations are
    /// recomputed internally, flash-attention style). Same FP16/FP32
    /// precision contract as the forward.
    struct Grads {
        HalfMatrix dq, dk, dv;
    };
    Grads run_backward(const HalfMatrix &q, const HalfMatrix &k,
                       const HalfMatrix &v, const HalfMatrix &d_out) const;

    /// The captured forward plan for `device`, built (and PlanCache'd)
    /// on first use: one attention over batch x num_heads replicas —
    /// SDDMM, softmax and SpMM, a join after each — on up to three
    /// streams for Multigrain and one for the baselines.
    std::shared_ptr<const LaunchGraph>
    forward_graph(const sim::DeviceSpec &device) const;
    /// The captured backward plan: dP SDDMMs and the dV transposed SpMMs,
    /// then the fused softmax backward, then the dQ/dK SpMMs — each phase
    /// with the method's coarse ∥ fine ∥ special streams over metadata
    /// (including the transposed layouts) built offline, and a join after
    /// each. Built lazily so forward-only workloads never pay for
    /// transposed metadata.
    std::shared_ptr<const LaunchGraph>
    backward_graph(const sim::DeviceSpec &device) const;

    /// Static memory plans (core/memplan.h) for the captured forward /
    /// backward graphs: live-range arena layout plus the peak-vs-naive
    /// HBM footprint ledger. Built and validated beside the graph at
    /// capture time and PlanCache'd under the graph key + "|mem", so
    /// these are cache hits on the replay path.
    std::shared_ptr<const MemPlan>
    forward_memplan(const sim::DeviceSpec &device) const;
    std::shared_ptr<const MemPlan>
    backward_memplan(const sim::DeviceSpec &device) const;

    /// Convenience: the forward graph replayed into a fresh simulator, run.
    sim::SimResult simulate(const sim::DeviceSpec &device) const;

    /// Device-memory footprint of the attention intermediates under this
    /// plan — the S and P value storage plus sparse metadata, summed over
    /// batch x heads (metadata is shared across replicas). This is the §1
    /// argument in numbers: the dense baseline stores 2·L² FP16 values per
    /// head; sparse plans store only their parts.
    double attention_memory_bytes() const;

  private:
    AttentionConfig config_;
    std::shared_ptr<const CachedPlanState> state_;
    std::uint64_t pattern_fp_ = 0;
    std::string meta_key_;
};

}  // namespace multigrain

#endif  // MULTIGRAIN_CORE_ATTENTION_H_
