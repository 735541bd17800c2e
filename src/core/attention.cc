#include "core/attention.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>
#include <utility>

#include "common/error.h"
#include "common/timer.h"
#include "core/check.h"
#include "core/lint.h"
#include "formats/convert.h"
#include "kernels/backward.h"
#include "kernels/blocked_baseline.h"
#include "kernels/coarse.h"
#include "kernels/compound_softmax.h"
#include "kernels/dense.h"
#include "kernels/fine.h"

namespace multigrain {

namespace {

std::string
attention_meta_key(std::uint64_t pattern_fp, const AttentionConfig &config,
                   SliceMode mode)
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "attn|fp=%016llx|dh=%lld|nh=%lld|b=%lld|blk=%lld|scale=%.17g"
        "|fs=%d|ms=%d|gd=%d|mode=%d",
        static_cast<unsigned long long>(pattern_fp),
        static_cast<long long>(config.head_dim),
        static_cast<long long>(config.num_heads),
        static_cast<long long>(config.batch),
        static_cast<long long>(config.block), config.scale,
        static_cast<int>(config.fine_scheme),
        config.multi_stream ? 1 : 0, config.route_global_to_dense ? 1 : 0,
        static_cast<int>(mode));
    return buf;
}

/// Byte widths of the logical buffers one attention plan touches, derived
/// from the slice metadata the same way attention_memory_bytes() derives
/// its totals: FP16 (2-byte) values, value tensors replicated batch ×
/// num_heads; the additive dense mask is shared across replicas. These
/// feed the sized dataflow annotations the static memory planner
/// (core/memplan.h) pools into an arena.
struct AttnBufferBytes {
    std::uint64_t qkv = 0;     ///< Each of q/k/v/o and d_out/dq/dk/dv.
    std::uint64_t coarse = 0;  ///< %s.coarse and %p/%dp.coarse.
    std::uint64_t fine = 0;    ///< %s.fine and %p/%dp.fine.
    std::uint64_t global = 0;  ///< %s.global and %p/%dp.global.
    std::uint64_t full = 0;    ///< %s.full and %p/%dp.full (dense mode).
    std::uint64_t mask = 0;    ///< %mask (one copy, shared by replicas).
};

AttnBufferBytes
attn_buffer_bytes(const SlicePlan &plan, const AttentionConfig &config)
{
    constexpr std::uint64_t kValueBytes = 2;  // FP16.
    const std::uint64_t replicas =
        static_cast<std::uint64_t>(config.batch * config.num_heads);
    const std::uint64_t seq = static_cast<std::uint64_t>(plan.seq_len);
    AttnBufferBytes b;
    b.qkv = seq * static_cast<std::uint64_t>(config.head_dim) *
            kValueBytes * replicas;
    b.coarse = static_cast<std::uint64_t>(plan.coarse_stored_elements()) *
               kValueBytes * replicas;
    b.fine = static_cast<std::uint64_t>(plan.fine_elements()) *
             kValueBytes * replicas;
    b.global = static_cast<std::uint64_t>(plan.special_elements()) *
               kValueBytes * replicas;
    b.full = seq * seq * kValueBytes * replicas;
    b.mask = seq * seq * kValueBytes;
    return b;
}

}  // namespace

double
AttentionConfig::effective_scale() const
{
    if (scale != 0.0) {
        return scale;
    }
    return 1.0 / std::sqrt(static_cast<double>(head_dim));
}

AttentionEngine::AttentionEngine(const CompoundPattern &pattern,
                                 const AttentionConfig &config,
                                 SliceMode mode)
    : config_(config),
      pattern_fp_(pattern.fingerprint())
{
    MG_CHECK(config.head_dim > 0 && config.num_heads > 0 &&
             config.batch > 0)
        << "attention config needs positive dims";
    meta_key_ = attention_meta_key(pattern_fp_, config_, mode);
    state_ = PlanCache::instance().get_or_build<CachedPlanState>(
        meta_key_, [&] {
            SliceOptions options;
            options.block = config_.block;
            options.mode = mode;
            options.route_global_to_dense = config_.route_global_to_dense;
            return std::make_shared<const CachedPlanState>(
                slice_and_dice(pattern, options));
        });
    plan_ = state_->plan();
}

HalfMatrix
AttentionEngine::run(const HalfMatrix &q, const HalfMatrix &k,
                     const HalfMatrix &v) const
{
    const index_t seq = plan_.seq_len;
    const index_t dh = config_.head_dim;
    MG_CHECK(q.rows() == seq && k.rows() == seq && v.rows() == seq)
        << "q/k/v must have seq_len rows";
    MG_CHECK(q.cols() == dh && k.cols() == dh && v.cols() == dh)
        << "q/k/v must have head_dim columns";
    const double scale = config_.effective_scale();

    if (plan_.mode == SliceMode::kDense) {
        // Naive baseline: dense QK^T, additive -inf mask from the pattern,
        // dense softmax, dense PV. O(L^2) regardless of sparsity.
        HalfMatrix s(seq, seq);
        kernels::dense_gemm_nt(q, k, s);
        const CsrLayout &full = *plan_.full;
        HalfMatrix p(seq, seq, half(0.0f));
        for (index_t r = 0; r < seq; ++r) {
            const index_t begin =
                full.row_offsets[static_cast<std::size_t>(r)];
            const index_t end =
                full.row_offsets[static_cast<std::size_t>(r + 1)];
            if (begin == end) {
                continue;
            }
            float max_v = -std::numeric_limits<float>::infinity();
            for (index_t i = begin; i < end; ++i) {
                const index_t c =
                    full.col_indices[static_cast<std::size_t>(i)];
                max_v = std::max(max_v, static_cast<float>(scale) *
                                            float(s.at(r, c)));
            }
            float sum = 0.0f;
            for (index_t i = begin; i < end; ++i) {
                const index_t c =
                    full.col_indices[static_cast<std::size_t>(i)];
                sum += std::exp(static_cast<float>(scale) *
                                    float(s.at(r, c)) -
                                max_v);
            }
            for (index_t i = begin; i < end; ++i) {
                const index_t c =
                    full.col_indices[static_cast<std::size_t>(i)];
                p.at(r, c) = half(std::exp(static_cast<float>(scale) *
                                               float(s.at(r, c)) -
                                           max_v) /
                                  sum);
            }
        }
        HalfMatrix out(seq, dh);
        kernels::dense_gemm_nn(p, v, out);
        return out;
    }

    FloatMatrix acc(seq, dh, 0.0f);

    // ---- Coarse + fine parts: SDDMM -> one compound softmax -> SpMM.
    BsrMatrix s_coarse;
    CsrMatrix s_fine;
    if (plan_.has_coarse()) {
        s_coarse = BsrMatrix(plan_.coarse);
        kernels::coarse_sddmm(q, k, s_coarse);
    }
    if (plan_.has_fine()) {
        s_fine = CsrMatrix(plan_.fine);
        kernels::fine_sddmm(q, k, s_fine);
    }
    if (plan_.has_coarse() || plan_.has_fine()) {
        kernels::compound_softmax(plan_.has_coarse() ? &s_coarse : nullptr,
                                  plan_.has_fine() ? &s_fine : nullptr,
                                  scale);
    }
    if (plan_.has_coarse()) {
        kernels::coarse_spmm(s_coarse, v, acc);
    }
    if (plan_.has_fine()) {
        kernels::fine_spmm(s_fine, v, acc);
    }

    // ---- Special part: global rows as dense GEMM + dense softmax (§3.1).
    if (plan_.has_special()) {
        const index_t g = static_cast<index_t>(plan_.global_rows.size());
        HalfMatrix qg(g, dh);
        for (index_t i = 0; i < g; ++i) {
            const index_t row = plan_.global_rows[static_cast<std::size_t>(i)];
            for (index_t d = 0; d < dh; ++d) {
                qg.at(i, d) = q.at(row, d);
            }
        }
        HalfMatrix sg(g, seq);
        kernels::dense_gemm_nt(qg, k, sg);
        kernels::dense_softmax_rows(sg, scale, plan_.valid_len);
        HalfMatrix cg(g, dh);
        kernels::dense_gemm_nn(sg, v, cg);
        for (index_t i = 0; i < g; ++i) {
            const index_t row = plan_.global_rows[static_cast<std::size_t>(i)];
            for (index_t d = 0; d < dh; ++d) {
                // Global rows were carved out of the other parts, so the
                // accumulator is zero here; plain add keeps it uniform.
                acc.at(row, d) += float(cg.at(i, d));
            }
        }
    }

    HalfMatrix out(seq, dh);
    for (index_t r = 0; r < seq; ++r) {
        for (index_t d = 0; d < dh; ++d) {
            out.at(r, d) = half(acc.at(r, d));
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// Stream assignment.

AttentionEngine::Streams
AttentionEngine::capture_streams(LaunchGraph &graph) const
{
    // Each engine gets its own streams so several engines' phases can
    // co-schedule (heterogeneous batches). Baselines and the single-stream
    // ablation use one stream; Multigrain uses three (§3.1). Creation
    // order (coarse, fine, special) is part of the replay contract: every
    // graph of one engine numbers its logical streams alike, so one
    // binding or stream map serves all of them.
    Streams s;
    s.coarse = graph.create_stream();
    const bool multi = plan_.mode == SliceMode::kMultigrain &&
                       config_.multi_stream;
    s.fine = multi ? graph.create_stream() : s.coarse;
    s.special = multi ? graph.create_stream() : s.coarse;
    return s;
}

// ---------------------------------------------------------------------------
// Phase bodies, recorded into a capture graph.

namespace {

// Definedness declarations for the annotate sites below (core/check.h).
// The o / dq / dk / dv accumulators start on zero-filled allocations and
// escape the graph as results; the stashed probabilities (%p.*) and the
// setup-time additive mask flow *into* a graph that never writes them.
constexpr unsigned kAccumOut = sim::kBufZeroInit | sim::kBufOutput;
constexpr unsigned kInbound = sim::kBufInput;

}  // namespace

void
AttentionEngine::build_sddmm(LaunchGraph &graph, const sim::DeviceSpec &dev,
                             const Streams &streams) const
{
    const index_t dh = config_.head_dim;
    const index_t replicas = config_.batch * config_.num_heads;
    const index_t g = static_cast<index_t>(plan_.global_rows.size());
    const AttnBufferBytes bb = attn_buffer_bytes(plan_, config_);

    switch (plan_.mode) {
      case SliceMode::kCoarseOnly: {
        // SDDMM uses BCOO while SpMM uses BSR (§2.4's format duplication).
        const BcooLayout bcoo = bcoo_from_bsr(*plan_.coarse);
        graph.launch(streams.coarse,
                     sim::annotate(kernels::plan_triton_sddmm(
                                       dev, bcoo, dh, replicas,
                                       "sddmm.triton"),
                                   {{"q", bb.qkv}, {"k", bb.qkv}},
                                   {{"%s.coarse", bb.coarse}}));
        return;
      }
      case SliceMode::kFineOnly:
        graph.launch(streams.coarse,
                     sim::annotate(kernels::plan_fine_sddmm(
                                       dev, *plan_.fine, dh, replicas,
                                       config_.fine_scheme,
                                       "sddmm.sputnik"),
                                   {{"q", bb.qkv}, {"k", bb.qkv}},
                                   {{"%s.fine", bb.fine}}));
        return;
      case SliceMode::kDense:
        graph.launch(streams.coarse,
                     sim::annotate(kernels::plan_dense_gemm(
                                       dev, plan_.seq_len, plan_.seq_len, dh,
                                       replicas, "sddmm.dense"),
                                   {{"q", bb.qkv}, {"k", bb.qkv}},
                                   {{"%s.full", bb.full}}));
        return;
      case SliceMode::kMultigrain:
        break;
    }

    if (plan_.has_coarse()) {
        graph.launch(streams.coarse,
                     sim::annotate(kernels::plan_coarse_sddmm(
                                       dev, *plan_.coarse, dh, replicas,
                                       "sddmm.coarse"),
                                   {{"q", bb.qkv}, {"k", bb.qkv}},
                                   {{"%s.coarse", bb.coarse}}));
    }
    if (plan_.has_fine()) {
        graph.launch(streams.fine,
                     sim::annotate(kernels::plan_fine_sddmm(
                                       dev, *plan_.fine, dh, replicas,
                                       config_.fine_scheme,
                                       "sddmm.fine"),
                                   {{"q", bb.qkv}, {"k", bb.qkv}},
                                   {{"%s.fine", bb.fine}}));
    }
    if (plan_.has_special()) {
        graph.launch(streams.special,
                     sim::annotate(kernels::plan_dense_gemm(
                                       dev, g, plan_.valid_len, dh, replicas,
                                       "sddmm.global"),
                                   {{"q", bb.qkv}, {"k", bb.qkv}},
                                   {{"%s.global", bb.global}}));
    }
}

void
AttentionEngine::build_softmax(LaunchGraph &graph, const sim::DeviceSpec &dev,
                               const Streams &streams) const
{
    const index_t replicas = config_.batch * config_.num_heads;
    const index_t g = static_cast<index_t>(plan_.global_rows.size());
    const AttnBufferBytes bb = attn_buffer_bytes(plan_, config_);

    switch (plan_.mode) {
      case SliceMode::kCoarseOnly:
        graph.launch(streams.coarse,
                     sim::annotate(kernels::plan_triton_softmax(
                                       dev, *plan_.coarse, replicas,
                                       "softmax.triton"),
                                   {{"%s.coarse", bb.coarse}},
                                   {{"%s.coarse", bb.coarse}}));
        return;
      case SliceMode::kFineOnly:
        graph.launch(streams.coarse,
                     sim::annotate(kernels::plan_fine_softmax(
                                       dev, *plan_.fine, replicas,
                                       "softmax.sputnik"),
                                   {{"%s.fine", bb.fine}},
                                   {{"%s.fine", bb.fine}}));
        return;
      case SliceMode::kDense:
        // Additive-mask pass (read S + mask, write S), then dense softmax.
        graph.launch(streams.coarse,
                     sim::annotate(kernels::plan_elementwise(
                                       dev,
                                       plan_.seq_len * plan_.seq_len *
                                           replicas,
                                       2, 2.0, "softmax.dense.mask"),
                                   {{"%s.full", bb.full},
                                    {"%mask", bb.mask, kInbound}},
                                   {{"%s.full", bb.full}}));
        graph.launch(streams.coarse,
                     sim::annotate(kernels::plan_dense_softmax(
                                       dev, plan_.seq_len, plan_.seq_len,
                                       replicas, "softmax.dense"),
                                   {{"%s.full", bb.full}},
                                   {{"%s.full", bb.full}}));
        return;
      case SliceMode::kMultigrain:
        break;
    }

    // One compound softmax across coarse+fine (the denominator couples
    // them, §3.3) ∥ dense softmax for the independent global rows. The
    // annotation carries the coupling: launched on the coarse stream, its
    // read of %s.fine is exactly the cross-stream edge the preceding join
    // barrier exists to create.
    if (plan_.has_coarse() || plan_.has_fine()) {
        sim::KernelLaunch softmax = kernels::plan_compound_softmax(
            dev, plan_.has_coarse() ? plan_.coarse.get() : nullptr,
            plan_.has_fine() ? plan_.fine.get() : nullptr, replicas,
            "softmax.compound");
        if (plan_.has_coarse() && plan_.has_fine()) {
            softmax = sim::annotate(std::move(softmax),
                                    {{"%s.coarse", bb.coarse},
                                     {"%s.fine", bb.fine}},
                                    {{"%s.coarse", bb.coarse},
                                     {"%s.fine", bb.fine}});
        } else if (plan_.has_coarse()) {
            softmax = sim::annotate(std::move(softmax),
                                    {{"%s.coarse", bb.coarse}},
                                    {{"%s.coarse", bb.coarse}});
        } else {
            softmax = sim::annotate(std::move(softmax),
                                    {{"%s.fine", bb.fine}},
                                    {{"%s.fine", bb.fine}});
        }
        graph.launch(streams.coarse, std::move(softmax));
    }
    if (plan_.has_special()) {
        graph.launch(streams.special,
                     sim::annotate(kernels::plan_dense_softmax(
                                       dev, g, plan_.valid_len, replicas,
                                       "softmax.global"),
                                   {{"%s.global", bb.global}},
                                   {{"%s.global", bb.global}}));
    }
}

void
AttentionEngine::build_spmm(LaunchGraph &graph, const sim::DeviceSpec &dev,
                            const Streams &streams) const
{
    const index_t dh = config_.head_dim;
    const index_t replicas = config_.batch * config_.num_heads;
    const index_t g = static_cast<index_t>(plan_.global_rows.size());
    const AttnBufferBytes bb = attn_buffer_bytes(plan_, config_);

    switch (plan_.mode) {
      case SliceMode::kCoarseOnly:
        graph.launch(streams.coarse,
                     sim::annotate(kernels::plan_triton_spmm(
                                       dev, *plan_.coarse, dh, replicas,
                                       "spmm.triton"),
                                   {{"%s.coarse", bb.coarse}, {"v", bb.qkv}},
                                   {}, {{"o", bb.qkv, kAccumOut}}));
        return;
      case SliceMode::kFineOnly:
        graph.launch(streams.coarse,
                     sim::annotate(kernels::plan_fine_spmm(
                                       dev, *plan_.fine, dh, replicas,
                                       "spmm.sputnik"),
                                   {{"%s.fine", bb.fine}, {"v", bb.qkv}},
                                   {}, {{"o", bb.qkv, kAccumOut}}));
        return;
      case SliceMode::kDense:
        graph.launch(streams.coarse,
                     sim::annotate(kernels::plan_dense_gemm(
                                       dev, plan_.seq_len, dh, plan_.seq_len,
                                       replicas, "spmm.dense"),
                                   {{"%s.full", bb.full}, {"v", bb.qkv}},
                                   {}, {{"o", bb.qkv, kAccumOut}}));
        return;
      case SliceMode::kMultigrain:
        break;
    }

    // Coarse, fine, and global parts all accumulate into the shared output
    // rows — a commutative RMW, so the three streams may overlap freely.
    if (plan_.has_coarse()) {
        graph.launch(streams.coarse,
                     sim::annotate(kernels::plan_coarse_spmm(
                                       dev, *plan_.coarse, dh, replicas,
                                       "spmm.coarse"),
                                   {{"%s.coarse", bb.coarse}, {"v", bb.qkv}},
                                   {}, {{"o", bb.qkv, kAccumOut}}));
    }
    if (plan_.has_fine()) {
        graph.launch(streams.fine,
                     sim::annotate(kernels::plan_fine_spmm(
                                       dev, *plan_.fine, dh, replicas,
                                       "spmm.fine"),
                                   {{"%s.fine", bb.fine}, {"v", bb.qkv}},
                                   {}, {{"o", bb.qkv, kAccumOut}}));
    }
    if (plan_.has_special()) {
        graph.launch(streams.special,
                     sim::annotate(kernels::plan_dense_gemm(
                                       dev, g, dh, plan_.valid_len, replicas,
                                       "spmm.global"),
                                   {{"%s.global", bb.global}, {"v", bb.qkv}},
                                   {}, {{"o", bb.qkv, kAccumOut}}));
    }
}

void
AttentionEngine::build_backward(LaunchGraph &graph, const sim::DeviceSpec &dev,
                                const Streams &streams) const
{
    const index_t dh = config_.head_dim;
    const index_t replicas = config_.batch * config_.num_heads;
    const index_t g = static_cast<index_t>(plan_.global_rows.size());
    const AttnBufferBytes bb = attn_buffer_bytes(plan_, config_);

    if (plan_.mode == SliceMode::kDense) {
        const index_t L = plan_.seq_len;
        graph.launch(streams.coarse,
                     sim::annotate(kernels::plan_dense_gemm(
                                       dev, L, L, dh, replicas,
                                       "bwd.sddmm.dp.dense"),
                                   {{"d_out", bb.qkv}, {"v", bb.qkv}},
                                   {{"%dp.full", bb.full}}));
        graph.launch(streams.coarse,
                     sim::annotate(kernels::plan_dense_gemm(
                                       dev, L, dh, L, replicas,
                                       "bwd.spmm_t.dv.dense"),
                                   {{"%p.full", bb.full, kInbound},
                                    {"d_out", bb.qkv}},
                                   {}, {{"dv", bb.qkv, kAccumOut}}));
        graph.join_streams();
        graph.launch(streams.coarse,
                     sim::annotate(kernels::plan_elementwise(
                                       dev, L * L * replicas, 2, 6.0,
                                       "bwd.softmax.dense"),
                                   {{"%p.full", bb.full, kInbound},
                                    {"%dp.full", bb.full}},
                                   {{"%dp.full", bb.full}}));
        graph.join_streams();
        graph.launch(streams.coarse,
                     sim::annotate(kernels::plan_dense_gemm(
                                       dev, L, dh, L, replicas,
                                       "bwd.spmm.dq.dense"),
                                   {{"%dp.full", bb.full}, {"k", bb.qkv}},
                                   {}, {{"dq", bb.qkv, kAccumOut}}));
        graph.launch(streams.coarse,
                     sim::annotate(kernels::plan_dense_gemm(
                                       dev, L, dh, L, replicas,
                                       "bwd.spmm_t.dk.dense"),
                                   {{"%dp.full", bb.full}, {"q", bb.qkv}},
                                   {}, {{"dk", bb.qkv, kAccumOut}}));
        graph.join_streams();
        return;
    }

    const bool coarse_only = plan_.mode == SliceMode::kCoarseOnly;
    const bool has_coarse = plan_.has_coarse();
    const bool has_fine = plan_.has_fine();

    // ---- Phase B1: dP SDDMMs and the dV transposed SpMMs.
    if (has_coarse) {
        if (coarse_only) {
            const BcooLayout bcoo = bcoo_from_bsr(*plan_.coarse);
            graph.launch(streams.coarse,
                         sim::annotate(kernels::plan_triton_sddmm(
                                           dev, bcoo, dh, replicas,
                                           "bwd.sddmm.dp"),
                                       {{"d_out", bb.qkv}, {"v", bb.qkv}},
                                       {{"%dp.coarse", bb.coarse}}));
            graph.launch(streams.coarse,
                         sim::annotate(kernels::plan_triton_spmm(
                                           dev, coarse_transposed(), dh,
                                           replicas,
                                           "bwd.spmm_t.dv"),
                                       {{"%p.coarse", bb.coarse, kInbound},
                                        {"d_out", bb.qkv}},
                                       {}, {{"dv", bb.qkv, kAccumOut}}));
        } else {
            graph.launch(streams.coarse,
                         sim::annotate(kernels::plan_coarse_sddmm(
                                           dev, *plan_.coarse, dh, replicas,
                                           "bwd.sddmm.dp"),
                                       {{"d_out", bb.qkv}, {"v", bb.qkv}},
                                       {{"%dp.coarse", bb.coarse}}));
            graph.launch(streams.coarse,
                         sim::annotate(kernels::plan_coarse_spmm(
                                           dev, coarse_transposed(), dh,
                                           replicas,
                                           "bwd.spmm_t.dv"),
                                       {{"%p.coarse", bb.coarse, kInbound},
                                        {"d_out", bb.qkv}},
                                       {}, {{"dv", bb.qkv, kAccumOut}}));
        }
    }
    if (has_fine) {
        graph.launch(streams.fine,
                     sim::annotate(kernels::plan_fine_sddmm(
                                       dev, *plan_.fine, dh, replicas,
                                       config_.fine_scheme,
                                       "bwd.sddmm.dp.fine"),
                                   {{"d_out", bb.qkv}, {"v", bb.qkv}},
                                   {{"%dp.fine", bb.fine}}));
        graph.launch(streams.fine,
                     sim::annotate(kernels::plan_fine_spmm(
                                       dev, fine_transposed(), dh, replicas,
                                       "bwd.spmm_t.dv.fine"),
                                   {{"%p.fine", bb.fine, kInbound},
                                    {"d_out", bb.qkv}},
                                   {}, {{"dv", bb.qkv, kAccumOut}}));
    }
    if (plan_.has_special()) {
        graph.launch(streams.special,
                     sim::annotate(kernels::plan_dense_gemm(
                                       dev, g, plan_.valid_len, dh, replicas,
                                       "bwd.sddmm.dp.global"),
                                   {{"d_out", bb.qkv}, {"v", bb.qkv}},
                                   {{"%dp.global", bb.global}}));
        graph.launch(streams.special,
                     sim::annotate(kernels::plan_dense_gemm(
                                       dev, plan_.valid_len, dh, g, replicas,
                                       "bwd.spmm_t.dv.global"),
                                   {{"%p.global", bb.global, kInbound},
                                    {"d_out", bb.qkv}},
                                   {}, {{"dv", bb.qkv, kAccumOut}}));
    }
    graph.join_streams();

    // ---- Phase B2: fused softmax backward (plus the dense global rows).
    if (has_coarse || has_fine) {
        sim::KernelLaunch softmax_bwd = kernels::plan_compound_softmax_backward(
            dev, has_coarse ? plan_.coarse.get() : nullptr,
            has_fine ? plan_.fine.get() : nullptr, replicas,
            "bwd.softmax.compound");
        if (has_coarse && has_fine) {
            softmax_bwd = sim::annotate(
                std::move(softmax_bwd),
                {{"%p.coarse", bb.coarse, kInbound},
                 {"%p.fine", bb.fine, kInbound},
                 {"%dp.coarse", bb.coarse}, {"%dp.fine", bb.fine}},
                {{"%dp.coarse", bb.coarse}, {"%dp.fine", bb.fine}});
        } else if (has_coarse) {
            softmax_bwd = sim::annotate(std::move(softmax_bwd),
                                        {{"%p.coarse", bb.coarse, kInbound},
                                         {"%dp.coarse", bb.coarse}},
                                        {{"%dp.coarse", bb.coarse}});
        } else {
            softmax_bwd = sim::annotate(std::move(softmax_bwd),
                                        {{"%p.fine", bb.fine, kInbound},
                                         {"%dp.fine", bb.fine}},
                                        {{"%dp.fine", bb.fine}});
        }
        graph.launch(streams.coarse, std::move(softmax_bwd));
    }
    if (plan_.has_special()) {
        graph.launch(streams.special,
                     sim::annotate(kernels::plan_dense_softmax(
                                       dev, g, plan_.valid_len, replicas,
                                       "bwd.softmax.global"),
                                   {{"%p.global", bb.global, kInbound},
                                    {"%dp.global", bb.global}},
                                   {{"%dp.global", bb.global}}));
    }
    graph.join_streams();

    // ---- Phase B3: dQ SpMMs and the dK transposed SpMMs.
    if (has_coarse) {
        if (coarse_only) {
            graph.launch(streams.coarse,
                         sim::annotate(kernels::plan_triton_spmm(
                                           dev, *plan_.coarse, dh, replicas,
                                           "bwd.spmm.dq"),
                                       {{"%dp.coarse", bb.coarse},
                                        {"k", bb.qkv}},
                                       {}, {{"dq", bb.qkv, kAccumOut}}));
            graph.launch(streams.coarse,
                         sim::annotate(kernels::plan_triton_spmm(
                                           dev, coarse_transposed(), dh,
                                           replicas,
                                           "bwd.spmm_t.dk"),
                                       {{"%dp.coarse", bb.coarse},
                                        {"q", bb.qkv}},
                                       {}, {{"dk", bb.qkv, kAccumOut}}));
        } else {
            graph.launch(streams.coarse,
                         sim::annotate(kernels::plan_coarse_spmm(
                                           dev, *plan_.coarse, dh, replicas,
                                           "bwd.spmm.dq"),
                                       {{"%dp.coarse", bb.coarse},
                                        {"k", bb.qkv}},
                                       {}, {{"dq", bb.qkv, kAccumOut}}));
            graph.launch(streams.coarse,
                         sim::annotate(kernels::plan_coarse_spmm(
                                           dev, coarse_transposed(), dh,
                                           replicas,
                                           "bwd.spmm_t.dk"),
                                       {{"%dp.coarse", bb.coarse},
                                        {"q", bb.qkv}},
                                       {}, {{"dk", bb.qkv, kAccumOut}}));
        }
    }
    if (has_fine) {
        graph.launch(streams.fine,
                     sim::annotate(kernels::plan_fine_spmm(
                                       dev, *plan_.fine, dh, replicas,
                                       "bwd.spmm.dq.fine"),
                                   {{"%dp.fine", bb.fine}, {"k", bb.qkv}},
                                   {}, {{"dq", bb.qkv, kAccumOut}}));
        graph.launch(streams.fine,
                     sim::annotate(kernels::plan_fine_spmm(
                                       dev, fine_transposed(), dh, replicas,
                                       "bwd.spmm_t.dk.fine"),
                                   {{"%dp.fine", bb.fine}, {"q", bb.qkv}},
                                   {}, {{"dk", bb.qkv, kAccumOut}}));
    }
    if (plan_.has_special()) {
        graph.launch(streams.special,
                     sim::annotate(kernels::plan_dense_gemm(
                                       dev, g, dh, plan_.valid_len, replicas,
                                       "bwd.spmm.dq.global"),
                                   {{"%dp.global", bb.global},
                                    {"k", bb.qkv}},
                                   {}, {{"dq", bb.qkv, kAccumOut}}));
        graph.launch(streams.special,
                     sim::annotate(kernels::plan_dense_gemm(
                                       dev, plan_.valid_len, dh, g, replicas,
                                       "bwd.spmm_t.dk.global"),
                                   {{"%dp.global", bb.global},
                                    {"q", bb.qkv}},
                                   {}, {{"dk", bb.qkv, kAccumOut}}));
    }
    graph.join_streams();
}

// ---------------------------------------------------------------------------
// Capture: graphs built once per (plan key, device), served from the cache.

std::shared_ptr<const AttentionEngine::AttentionGraphs>
AttentionEngine::forward_graphs(const sim::DeviceSpec &device) const
{
    const std::string key = meta_key_ + "|fwd|" + device_plan_key(device);
    return PlanCache::instance().get_or_build<AttentionGraphs>(key, [&] {
        const ScopedTimer timer("plan.capture");
        auto graphs = std::make_shared<AttentionGraphs>();
        {
            const Streams s = capture_streams(graphs->sddmm);
            build_sddmm(graphs->sddmm, device, s);
        }
        {
            const Streams s = capture_streams(graphs->softmax);
            build_softmax(graphs->softmax, device, s);
        }
        {
            const Streams s = capture_streams(graphs->spmm);
            build_spmm(graphs->spmm, device, s);
        }
        {
            const Streams s = capture_streams(graphs->forward);
            build_sddmm(graphs->forward, device, s);
            graphs->forward.join_streams();
            build_softmax(graphs->forward, device, s);
            graphs->forward.join_streams();
            build_spmm(graphs->forward, device, s);
            graphs->forward.join_streams();
        }
        // Throwing here keeps a racy plan out of the cache entirely.
        enforce_capture_lint(graphs->sddmm, device, key + " (sddmm)");
        enforce_capture_lint(graphs->softmax, device, key + " (softmax)");
        enforce_capture_lint(graphs->spmm, device, key + " (spmm)");
        // Hazards, memory plan and definedness of the composed graph
        // (core/check.h). The phase fragments are neither planned nor
        // checked: standalone, a fragment legitimately reads scores a
        // sibling fragment writes, and composers account them through
        // the composed graph they are appended into.
        verify_capture(graphs->forward, device, key);
        return graphs;
    });
}

std::shared_ptr<const MemPlan>
AttentionEngine::forward_memplan(const sim::DeviceSpec &device) const
{
    const std::string key = meta_key_ + "|fwd|" + device_plan_key(device);
    return memplan_for(key, forward_graphs(device)->forward);
}

std::shared_ptr<const MemPlan>
AttentionEngine::backward_memplan(const sim::DeviceSpec &device) const
{
    const std::string key = meta_key_ + "|bwd|" + device_plan_key(device);
    return memplan_for(key, *backward_graph(device));
}

std::shared_ptr<const LaunchGraph>
AttentionEngine::backward_graph(const sim::DeviceSpec &device) const
{
    const std::string key = meta_key_ + "|bwd|" + device_plan_key(device);
    return PlanCache::instance().get_or_build<LaunchGraph>(key, [&] {
        const ScopedTimer timer("plan.capture");
        auto graph = std::make_shared<LaunchGraph>();
        const Streams s = capture_streams(*graph);
        build_backward(*graph, device, s);
        verify_capture(*graph, device, key);
        return graph;
    });
}

double
AttentionEngine::attention_memory_bytes() const
{
    const double replicas =
        static_cast<double>(config_.batch * config_.num_heads);
    const double value_bytes = 2.0;  // FP16.
    const double idx_bytes = 4.0;

    if (plan_.mode == SliceMode::kDense) {
        // S and P, each L x L per replica (plus the additive mask, shared).
        return 2.0 * static_cast<double>(plan_.seq_len) * plan_.seq_len *
                   value_bytes * replicas +
               static_cast<double>(plan_.seq_len) * plan_.seq_len *
                   value_bytes;
    }

    double values = 0;    // Per replica (S and P share the layout; both
                          // live simultaneously between phases).
    double metadata = 0;  // Shared across replicas.
    if (plan_.has_coarse()) {
        values += 2.0 * static_cast<double>(plan_.coarse->total_stored()) *
                  value_bytes;
        metadata +=
            static_cast<double>(plan_.coarse->row_offsets.size() +
                                plan_.coarse->col_indices.size()) *
                idx_bytes +
            static_cast<double>(plan_.coarse->valid_bits.size()) * 8.0;
    }
    if (plan_.has_fine()) {
        values += 2.0 * static_cast<double>(plan_.fine->nnz()) * value_bytes;
        metadata += static_cast<double>(plan_.fine->row_offsets.size() +
                                        plan_.fine->col_indices.size()) *
                    idx_bytes;
    }
    if (plan_.has_special()) {
        values += 2.0 * static_cast<double>(plan_.special_elements()) *
                  value_bytes;
        metadata +=
            static_cast<double>(plan_.global_rows.size()) * idx_bytes;
    }
    return values * replicas + metadata;
}

const CsrLayout &
AttentionEngine::fine_transposed() const
{
    return state_->fine_transposed();
}

const BsrLayout &
AttentionEngine::coarse_transposed() const
{
    return state_->coarse_transposed();
}

AttentionEngine::Grads
AttentionEngine::run_backward(const HalfMatrix &q, const HalfMatrix &k,
                              const HalfMatrix &v,
                              const HalfMatrix &d_out) const
{
    const index_t seq = plan_.seq_len;
    const index_t dh = config_.head_dim;
    MG_CHECK(d_out.rows() == seq && d_out.cols() == dh)
        << "d_out must be seq_len x head_dim";
    MG_CHECK(q.rows() == seq && q.cols() == dh && k.rows() == seq &&
             k.cols() == dh && v.rows() == seq && v.cols() == dh)
        << "q/k/v must be seq_len x head_dim";
    const double scale = config_.effective_scale();

    FloatMatrix dq(seq, dh, 0.0f), dk(seq, dh, 0.0f), dv(seq, dh, 0.0f);

    // The dense baseline's masked gradients coincide with the element-wise
    // path over the full pattern, so route it through the fine kernels.
    const bool has_coarse = plan_.has_coarse();
    const std::shared_ptr<const CsrLayout> fine_layout =
        plan_.mode == SliceMode::kDense ? plan_.full : plan_.fine;
    const bool has_fine =
        fine_layout != nullptr && fine_layout->nnz() > 0;

    // ---- Recompute the forward probabilities (flash-style).
    BsrMatrix p_coarse;
    CsrMatrix p_fine;
    if (has_coarse) {
        p_coarse = BsrMatrix(plan_.coarse);
        kernels::coarse_sddmm(q, k, p_coarse);
    }
    if (has_fine) {
        p_fine = CsrMatrix(fine_layout);
        kernels::fine_sddmm(q, k, p_fine);
    }
    if (has_coarse || has_fine) {
        kernels::compound_softmax(has_coarse ? &p_coarse : nullptr,
                                  has_fine ? &p_fine : nullptr, scale);
    }

    // ---- dP = (dC . V^T)|pattern via the forward SDDMM kernels.
    BsrMatrix dp_coarse;
    CsrMatrix dp_fine;
    if (has_coarse) {
        dp_coarse = BsrMatrix(plan_.coarse);
        kernels::coarse_sddmm(d_out, v, dp_coarse);
    }
    if (has_fine) {
        dp_fine = CsrMatrix(fine_layout);
        kernels::fine_sddmm(d_out, v, dp_fine);
    }

    // ---- dS = P (dP - rowsum(P dP)) scale, fused across both parts.
    if (has_coarse || has_fine) {
        kernels::compound_softmax_backward(
            has_coarse ? &p_coarse : nullptr,
            has_coarse ? &dp_coarse : nullptr,
            has_fine ? &p_fine : nullptr,
            has_fine ? &dp_fine : nullptr, scale);
    }

    // ---- dQ = dS . K; dK = dS^T . Q; dV = P^T . dC.
    if (has_coarse) {
        kernels::coarse_spmm(dp_coarse, k, dq);
        kernels::coarse_spmm_transposed(dp_coarse, q, dk);
        kernels::coarse_spmm_transposed(p_coarse, d_out, dv);
    }
    if (has_fine) {
        kernels::fine_spmm(dp_fine, k, dq);
        kernels::fine_spmm_transposed(dp_fine, q, dk);
        kernels::fine_spmm_transposed(p_fine, d_out, dv);
    }

    // ---- Special part: dense backward over the global rows.
    if (plan_.has_special()) {
        const index_t g = static_cast<index_t>(plan_.global_rows.size());
        const index_t valid = plan_.valid_len;
        // Recompute P_g.
        HalfMatrix qg(g, dh);
        HalfMatrix dcg(g, dh);
        for (index_t i = 0; i < g; ++i) {
            const index_t row = plan_.global_rows[static_cast<std::size_t>(i)];
            for (index_t d = 0; d < dh; ++d) {
                qg.at(i, d) = q.at(row, d);
                dcg.at(i, d) = d_out.at(row, d);
            }
        }
        HalfMatrix pg(g, seq);
        kernels::dense_gemm_nt(qg, k, pg);
        kernels::dense_softmax_rows(pg, scale, valid);

        for (index_t i = 0; i < g; ++i) {
            const index_t row = plan_.global_rows[static_cast<std::size_t>(i)];
            // dp_j = dC_row . V_j ; t = sum_j p_j dp_j.
            std::vector<float> dp(static_cast<std::size_t>(valid));
            float t = 0.0f;
            for (index_t j = 0; j < valid; ++j) {
                float acc = 0.0f;
                for (index_t d = 0; d < dh; ++d) {
                    acc += float(dcg.at(i, d)) * float(v.at(j, d));
                }
                dp[static_cast<std::size_t>(j)] = float(half(acc));
                t += float(pg.at(i, j)) * dp[static_cast<std::size_t>(j)];
            }
            for (index_t j = 0; j < valid; ++j) {
                const float pv = float(pg.at(i, j));
                const float ds = pv * (dp[static_cast<std::size_t>(j)] - t) *
                                 static_cast<float>(scale);
                for (index_t d = 0; d < dh; ++d) {
                    dq.at(row, d) += ds * float(k.at(j, d));
                    dk.at(j, d) += ds * float(qg.at(i, d));
                    dv.at(j, d) += pv * float(dcg.at(i, d));
                }
            }
        }
    }

    Grads grads{HalfMatrix(seq, dh), HalfMatrix(seq, dh),
                HalfMatrix(seq, dh)};
    for (index_t r = 0; r < seq; ++r) {
        for (index_t d = 0; d < dh; ++d) {
            grads.dq.at(r, d) = half(dq.at(r, d));
            grads.dk.at(r, d) = half(dk.at(r, d));
            grads.dv.at(r, d) = half(dv.at(r, d));
        }
    }
    return grads;
}

sim::SimResult
AttentionEngine::simulate(const sim::DeviceSpec &device) const
{
    return sim::simulate(device, forward_graphs(device)->forward);
}

}  // namespace multigrain
