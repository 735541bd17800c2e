// Tests for the backward pass: the FP64 analytic reference is pinned
// against finite differences, the FP16 kernels against the reference, the
// split (coarse+fine) softmax backward against the whole-pattern one, and
// the backward plans against structural expectations.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/attention.h"
#include "formats/convert.h"
#include "gpusim/device.h"
#include "kernels/backward.h"
#include "kernels/fine.h"
#include "kernels/reference.h"
#include "patterns/slice.h"

namespace multigrain {
namespace {

CompoundPattern
test_pattern(index_t seq)
{
    CompoundPattern p;
    p.seq_len = seq;
    p.atoms.push_back(AtomicPattern::local(3));
    p.atoms.push_back(AtomicPattern::selected({1, seq / 2}));
    p.atoms.push_back(AtomicPattern::global({1}));
    p.atoms.push_back(AtomicPattern::random(2, 19));
    return p;
}

// --------------------------------------------------- layout transposes ----

TEST(TransposeTest, CsrDoubleTransposeIsIdentity)
{
    const CsrLayout layout = build_full_layout(test_pattern(24));
    const CsrLayout t = transpose_layout(layout);
    t.validate();
    const CsrLayout tt = transpose_layout(t);
    EXPECT_EQ(tt.row_offsets, layout.row_offsets);
    EXPECT_EQ(tt.col_indices, layout.col_indices);
    EXPECT_EQ(t.nnz(), layout.nnz());
}

TEST(TransposeTest, CsrTransposeSwapsCoordinates)
{
    CsrLayout layout;
    layout.rows = 3;
    layout.cols = 4;
    layout.row_offsets = {0, 2, 2, 3};
    layout.col_indices = {1, 3, 0};
    const CsrLayout t = transpose_layout(layout);
    t.validate();
    EXPECT_EQ(t.rows, 4);
    EXPECT_EQ(t.cols, 3);
    // (0,1) -> (1,0); (0,3) -> (3,0); (2,0) -> (0,2).
    EXPECT_EQ(t.row_nnz(0), 1);
    EXPECT_EQ(t.col_indices[static_cast<std::size_t>(t.row_offsets[0])], 2);
    EXPECT_EQ(t.row_nnz(1), 1);
    EXPECT_EQ(t.row_nnz(3), 1);
}

TEST(TransposeTest, BsrTransposePreservesValidityPerElement)
{
    Rng rng(3);
    MaskMatrix mask(32, 32, 0);
    for (index_t r = 0; r < 32; ++r) {
        for (index_t c = 0; c < 32; ++c) {
            mask.at(r, c) = rng.next_float() < 0.15f ? 1 : 0;
        }
    }
    const BsrLayout bsr = bsr_from_csr(csr_from_mask(mask), 8);
    const BsrLayout t = transpose_layout(bsr);
    t.validate();
    EXPECT_EQ(t.nnz_blocks(), bsr.nnz_blocks());
    EXPECT_EQ(t.total_valid(), bsr.total_valid());
    // Element-level check through the CSR views.
    const CsrLayout expect = transpose_layout(csr_from_bsr(bsr));
    const CsrLayout actual = csr_from_bsr(t);
    EXPECT_EQ(actual.row_offsets, expect.row_offsets);
    EXPECT_EQ(actual.col_indices, expect.col_indices);
}

// --------------------------------------------- reference vs finite diff ----

TEST(ReferenceBackwardTest, MatchesFiniteDifferences)
{
    const index_t seq = 12, dh = 4;
    Rng rng(7);
    HalfMatrix q = random_half_matrix(rng, seq, dh, -0.5f, 0.5f);
    HalfMatrix k = random_half_matrix(rng, seq, dh, -0.5f, 0.5f);
    HalfMatrix v = random_half_matrix(rng, seq, dh, -0.5f, 0.5f);
    CompoundPattern p;
    p.seq_len = seq;
    p.atoms.push_back(AtomicPattern::local(2));
    p.atoms.push_back(AtomicPattern::selected({0, 7}));
    const CsrLayout layout = build_full_layout(p);
    const double scale = 0.5;

    DoubleMatrix d_out(seq, dh);
    for (index_t r = 0; r < seq; ++r) {
        for (index_t d = 0; d < dh; ++d) {
            d_out.at(r, d) = rng.next_float(-1.0f, 1.0f);
        }
    }
    const auto loss = [&](const HalfMatrix &qq, const HalfMatrix &kk,
                          const HalfMatrix &vv) {
        const DoubleMatrix c = kernels::ref_attention(qq, kk, vv, layout,
                                                      scale);
        double total = 0;
        for (index_t r = 0; r < seq; ++r) {
            for (index_t d = 0; d < dh; ++d) {
                total += c.at(r, d) * d_out.at(r, d);
            }
        }
        return total;
    };

    const kernels::RefAttentionGrads grads =
        kernels::ref_attention_backward(q, k, v, layout, scale, d_out);

    // Exactly representable perturbation around |x| < 1.
    const float eps = 0x1.0p-6f;
    Rng pick(9);
    for (int trial = 0; trial < 8; ++trial) {
        const index_t r = pick.next_range(0, seq - 1);
        const index_t d = pick.next_range(0, dh - 1);
        for (int which = 0; which < 3; ++which) {
            HalfMatrix *m = which == 0 ? &q : which == 1 ? &k : &v;
            const DoubleMatrix &g = which == 0   ? grads.dq
                                    : which == 1 ? grads.dk
                                                 : grads.dv;
            const half original = m->at(r, d);
            m->at(r, d) = half(float(original) + eps);
            const double up = loss(q, k, v);
            m->at(r, d) = half(float(original) - eps);
            const double down = loss(q, k, v);
            m->at(r, d) = original;
            const double fd = (up - down) / (2.0 * eps);
            EXPECT_NEAR(fd, g.at(r, d), 5e-3 + 5e-2 * std::abs(g.at(r, d)))
                << "which=" << which << " (" << r << "," << d << ")";
        }
    }
}

// ----------------------------------------------------- kernels vs ref ----

TEST(BackwardKernelTest, FineSpmmTransposedMatchesRefOnTranspose)
{
    Rng rng(11);
    const index_t seq = 32, dh = 8;
    auto layout = std::make_shared<const CsrLayout>(
        build_full_layout(test_pattern(seq)));
    CsrMatrix p(layout);
    std::vector<double> pvals(p.values.size());
    for (std::size_t i = 0; i < p.values.size(); ++i) {
        p.values[i] = half(rng.next_float(0.0f, 0.2f));
        pvals[i] = float(p.values[i]);
    }
    const HalfMatrix d = random_half_matrix(rng, seq, dh, -0.5f, 0.5f);
    FloatMatrix out(seq, dh, 0.0f);
    kernels::fine_spmm_transposed(p, d, out);

    // Reference: SpMM of the transposed matrix.
    const CsrLayout t = transpose_layout(*layout);
    std::vector<double> tvals(pvals.size());
    // Re-gather values in transposed order via a dense detour.
    DoubleMatrix dense(seq, seq, 0.0);
    std::size_t idx = 0;
    for (index_t r = 0; r < seq; ++r) {
        for (index_t i = layout->row_offsets[static_cast<std::size_t>(r)];
             i < layout->row_offsets[static_cast<std::size_t>(r + 1)];
             ++i) {
            dense.at(r,
                     layout->col_indices[static_cast<std::size_t>(i)]) =
                pvals[idx++];
        }
    }
    idx = 0;
    for (index_t r = 0; r < seq; ++r) {
        for (index_t i = t.row_offsets[static_cast<std::size_t>(r)];
             i < t.row_offsets[static_cast<std::size_t>(r + 1)]; ++i) {
            tvals[idx++] =
                dense.at(t.col_indices[static_cast<std::size_t>(i)], r);
        }
    }
    const DoubleMatrix ref = kernels::ref_spmm(t, tvals, d);
    for (index_t r = 0; r < seq; ++r) {
        for (index_t c = 0; c < dh; ++c) {
            EXPECT_NEAR(out.at(r, c), ref.at(r, c), 0.02);
        }
    }
}

TEST(BackwardKernelTest, SplitSoftmaxBackwardMatchesWhole)
{
    Rng rng(13);
    const index_t seq = 64;
    CompoundPattern pat;
    pat.seq_len = seq;
    pat.atoms.push_back(AtomicPattern::local(4));
    pat.atoms.push_back(AtomicPattern::random(5, 3));
    const SlicePlan plan = slice_and_dice(pat, {.block = 16});
    const auto full =
        std::make_shared<const CsrLayout>(build_full_layout(plan.pattern));
    ASSERT_TRUE(plan.has_coarse() && plan.has_fine());

    // Shared P and dP values over the full pattern.
    HalfMatrix p_dense(seq, seq, half(0.0f));
    HalfMatrix dp_dense(seq, seq, half(0.0f));
    for (index_t r = 0; r < seq; ++r) {
        for (index_t j = full->row_offsets[static_cast<std::size_t>(r)];
             j < full->row_offsets[static_cast<std::size_t>(r + 1)];
             ++j) {
            const index_t c =
                full->col_indices[static_cast<std::size_t>(j)];
            p_dense.at(r, c) = half(rng.next_float(0.0f, 0.2f));
            dp_dense.at(r, c) = half(rng.next_float(-1.0f, 1.0f));
        }
    }
    BsrMatrix pc = gather_bsr(p_dense, plan.coarse);
    BsrMatrix dpc = gather_bsr(dp_dense, plan.coarse);
    CsrMatrix pf = gather_csr(p_dense, plan.fine);
    CsrMatrix dpf = gather_csr(dp_dense, plan.fine);
    // Zero the invalid coarse positions of P (as the forward softmax
    // leaves them), so they contribute nothing.
    const BsrLayout &bl = *plan.coarse;
    for (index_t b = 0; b < bl.nnz_blocks(); ++b) {
        for (index_t r = 0; r < bl.block; ++r) {
            for (index_t c = 0; c < bl.block; ++c) {
                if (!bl.element_valid(b, r, c)) {
                    pc.block(b)[r * bl.block + c] = half(0.0f);
                }
            }
        }
    }
    kernels::compound_softmax_backward(&pc, &dpc, &pf, &dpf, 0.5);

    CsrMatrix p_whole = gather_csr(p_dense, full);
    CsrMatrix dp_whole = gather_csr(dp_dense, full);
    kernels::compound_softmax_backward(nullptr, nullptr, &p_whole,
                                       &dp_whole, 0.5);
    const HalfMatrix whole_dense = dense_from_csr(dp_whole);
    const HalfMatrix cd = dense_from_bsr(dpc);
    const HalfMatrix fd = dense_from_csr(dpf);
    for (index_t r = 0; r < seq; ++r) {
        for (index_t c = 0; c < seq; ++c) {
            EXPECT_NEAR(float(cd.at(r, c)) + float(fd.at(r, c)),
                        float(whole_dense.at(r, c)), 0.02)
                << "(" << r << "," << c << ")";
        }
    }
}

// ----------------------------------------------------- engine backward ----

class EngineBackwardTest : public ::testing::TestWithParam<SliceMode> {};

TEST_P(EngineBackwardTest, MatchesAnalyticReference)
{
    const SliceMode mode = GetParam();
    Rng rng(17);
    const index_t seq = 64, dh = 16;
    const HalfMatrix q = random_half_matrix(rng, seq, dh, -0.5f, 0.5f);
    const HalfMatrix k = random_half_matrix(rng, seq, dh, -0.5f, 0.5f);
    const HalfMatrix v = random_half_matrix(rng, seq, dh, -0.5f, 0.5f);
    const HalfMatrix d_out = random_half_matrix(rng, seq, dh, -0.5f, 0.5f);

    AttentionConfig config;
    config.head_dim = dh;
    config.block = 16;
    const AttentionEngine engine(test_pattern(seq), config, mode);
    const AttentionEngine::Grads grads =
        engine.run_backward(q, k, v, d_out);

    const kernels::RefAttentionGrads ref = kernels::ref_attention_backward(
        q, k, v, build_full_layout(engine.plan().pattern),
        config.effective_scale(),
        widen(d_out));
    EXPECT_LT(kernels::max_abs_diff(widen(grads.dq), ref.dq), 0.06)
        << "dq " << to_string(mode);
    EXPECT_LT(kernels::max_abs_diff(widen(grads.dk), ref.dk), 0.06)
        << "dk " << to_string(mode);
    EXPECT_LT(kernels::max_abs_diff(widen(grads.dv), ref.dv), 0.06)
        << "dv " << to_string(mode);
}

INSTANTIATE_TEST_SUITE_P(Modes, EngineBackwardTest,
                         ::testing::Values(SliceMode::kMultigrain,
                                           SliceMode::kCoarseOnly,
                                           SliceMode::kFineOnly,
                                           SliceMode::kDense),
                         [](const auto &info) {
                             std::string n = to_string(info.param);
                             for (char &c : n) {
                                 if (c == '-') {
                                     c = '_';
                                 }
                             }
                             return n;
                         });

TEST(EngineBackwardTest, PlanHasThreeOrderedPhases)
{
    AttentionConfig config;
    config.head_dim = 64;
    config.num_heads = 2;
    const AttentionEngine engine(test_pattern(256), config,
                                 SliceMode::kMultigrain);
    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    const sim::SimResult r =
        sim::simulate(device, *engine.backward_graph(device));

    double sddmm_end = 0, softmax_start = 1e30, softmax_end = 0,
           spmm_start = 1e30;
    bool saw_dv = false, saw_dk = false, saw_dq = false;
    for (const auto &k : r.kernels) {
        saw_dv |= k.name.find("spmm_t.dv") != std::string::npos;
        saw_dk |= k.name.find("spmm_t.dk") != std::string::npos;
        saw_dq |= k.name.find("spmm.dq") != std::string::npos;
        if (k.name.rfind("bwd.sddmm", 0) == 0 ||
            k.name.find("spmm_t.dv") != std::string::npos) {
            sddmm_end = std::max(sddmm_end, k.end_us);
        } else if (k.name.rfind("bwd.softmax", 0) == 0) {
            softmax_start = std::min(softmax_start, k.start_us);
            softmax_end = std::max(softmax_end, k.end_us);
        } else {
            spmm_start = std::min(spmm_start, k.start_us);
        }
    }
    EXPECT_TRUE(saw_dv && saw_dk && saw_dq);
    EXPECT_GE(softmax_start, sddmm_end);
    EXPECT_GE(spmm_start, softmax_end);
}

TEST(EngineBackwardTest, BackwardCostsMoreThanForward)
{
    AttentionConfig config;
    config.head_dim = 64;
    config.num_heads = 4;
    const AttentionEngine engine(test_pattern(1024), config,
                                 SliceMode::kMultigrain);
    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    const double fwd = engine.simulate(device).total_us;
    const double bwd =
        sim::simulate(device, *engine.backward_graph(device)).total_us;
    // Backward does roughly 2-3x the forward's sparse work.
    EXPECT_GT(bwd, fwd);
    EXPECT_LT(bwd, 4 * fwd);
}

}  // namespace
}  // namespace multigrain
