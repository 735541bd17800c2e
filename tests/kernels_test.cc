// Tests for src/kernels: every functional kernel against the FP64 dense
// reference (within FP16 tolerances), softmax invariants, and cost-model
// sanity (work conservation, traffic lower bounds, scheme differences).

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "formats/convert.h"
#include "gpusim/device.h"
#include "kernels/blocked_baseline.h"
#include "kernels/coarse.h"
#include "kernels/compound_softmax.h"
#include "kernels/cost_model.h"
#include "kernels/dense.h"
#include "kernels/fine.h"
#include "kernels/reference.h"
#include "patterns/pattern.h"
#include "patterns/slice.h"

namespace multigrain {
namespace {

using kernels::FineSddmmScheme;

constexpr double kTol = 6e-3;  // FP16 ULP at O(1) values, with slack.

CompoundPattern
test_pattern(index_t seq)
{
    CompoundPattern p;
    p.seq_len = seq;
    p.atoms.push_back(AtomicPattern::local(5));
    p.atoms.push_back(AtomicPattern::selected({1, seq / 2, seq - 2}));
    p.atoms.push_back(AtomicPattern::random(4, 11));
    return p;
}

// ----------------------------------------------------------- reference ----

TEST(ReferenceTest, GemmNtMatchesGemmNnOnTransposedInput)
{
    Rng rng(1);
    const HalfMatrix a = random_half_matrix(rng, 6, 4);
    const HalfMatrix b = random_half_matrix(rng, 5, 4);
    DoubleMatrix bt(4, 5);
    for (index_t r = 0; r < 5; ++r) {
        for (index_t c = 0; c < 4; ++c) {
            bt.at(c, r) = float(b.at(r, c));
        }
    }
    const DoubleMatrix via_nt = kernels::ref_gemm_nt(widen(a), widen(b));
    const DoubleMatrix via_nn = kernels::ref_gemm_nn(widen(a), bt);
    EXPECT_LT(kernels::max_abs_diff(via_nt, via_nn), 1e-12);
}

TEST(ReferenceTest, SoftmaxRowsSumToOne)
{
    Rng rng(2);
    const CsrLayout layout = build_full_layout(test_pattern(32));
    std::vector<double> values(static_cast<std::size_t>(layout.nnz()));
    for (auto &v : values) {
        v = rng.next_float(-3.0f, 3.0f);
    }
    const auto probs = kernels::ref_softmax(layout, values, 0.5);
    for (index_t r = 0; r < layout.rows; ++r) {
        double sum = 0;
        for (index_t i = layout.row_offsets[static_cast<std::size_t>(r)];
             i < layout.row_offsets[static_cast<std::size_t>(r + 1)]; ++i) {
            sum += probs[static_cast<std::size_t>(i)];
        }
        if (layout.row_nnz(r) > 0) {
            EXPECT_NEAR(sum, 1.0, 1e-12) << "row " << r;
        }
    }
}

TEST(ReferenceTest, SoftmaxInvariantToShift)
{
    const CsrLayout layout = build_full_layout(test_pattern(16));
    std::vector<double> values(static_cast<std::size_t>(layout.nnz()), 0.0);
    Rng rng(3);
    for (auto &v : values) {
        v = rng.next_float(-2, 2);
    }
    std::vector<double> shifted = values;
    for (auto &v : shifted) {
        v += 100.0;
    }
    const auto p1 = kernels::ref_softmax(layout, values, 1.0);
    const auto p2 = kernels::ref_softmax(layout, shifted, 1.0);
    for (std::size_t i = 0; i < p1.size(); ++i) {
        EXPECT_NEAR(p1[i], p2[i], 1e-9);
    }
}

// -------------------------------------------------------------- coarse ----

class SparseGemmTest : public ::testing::TestWithParam<index_t> {};

TEST_P(SparseGemmTest, CoarseSddmmMatchesReferenceOnValidElements)
{
    const index_t seq = GetParam();
    Rng rng(7);
    const index_t dh = 16;
    const HalfMatrix q = random_half_matrix(rng, seq, dh);
    const HalfMatrix k = random_half_matrix(rng, seq, dh);
    const CsrLayout full = build_full_layout(test_pattern(seq));
    auto bsr = std::make_shared<const BsrLayout>(bsr_from_csr(full, 8));
    BsrMatrix s(bsr);
    kernels::coarse_sddmm(q, k, s);
    // Compare the valid positions against the reference SDDMM.
    const std::vector<double> ref = kernels::ref_sddmm(q, k, full);
    const HalfMatrix dense = dense_from_bsr(s);
    std::size_t i = 0;
    for (index_t r = 0; r < seq; ++r) {
        for (index_t j = full.row_offsets[static_cast<std::size_t>(r)];
             j < full.row_offsets[static_cast<std::size_t>(r + 1)]; ++j) {
            const index_t c = full.col_indices[static_cast<std::size_t>(j)];
            EXPECT_NEAR(float(dense.at(r, c)), ref[i], kTol * dh)
                << "(" << r << "," << c << ")";
            ++i;
        }
    }
}

TEST_P(SparseGemmTest, FineSddmmMatchesReference)
{
    const index_t seq = GetParam();
    Rng rng(8);
    const index_t dh = 16;
    const HalfMatrix q = random_half_matrix(rng, seq, dh);
    const HalfMatrix k = random_half_matrix(rng, seq, dh);
    auto layout = std::make_shared<const CsrLayout>(
        build_full_layout(test_pattern(seq)));
    CsrMatrix s(layout);
    kernels::fine_sddmm(q, k, s);
    const std::vector<double> ref = kernels::ref_sddmm(q, k, *layout);
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_NEAR(float(s.values[i]), ref[i], kTol * dh);
    }
}

TEST_P(SparseGemmTest, CoarseSpmmMatchesReference)
{
    const index_t seq = GetParam();
    Rng rng(9);
    const index_t dh = 16;
    const HalfMatrix v = random_half_matrix(rng, seq, dh);
    const CsrLayout full = build_full_layout(test_pattern(seq));
    auto bsr = std::make_shared<const BsrLayout>(bsr_from_csr(full, 8));

    // Probability-like values at the valid positions, zero elsewhere.
    Rng vals(10);
    HalfMatrix p_dense(seq, seq, half(0.0f));
    for (index_t r = 0; r < seq; ++r) {
        for (index_t j = full.row_offsets[static_cast<std::size_t>(r)];
             j < full.row_offsets[static_cast<std::size_t>(r + 1)]; ++j) {
            p_dense.at(r, full.col_indices[static_cast<std::size_t>(j)]) =
                half(vals.next_float(0.0f, 0.1f));
        }
    }
    const BsrMatrix p = gather_bsr(p_dense, bsr);
    // gather_bsr copies stored-but-invalid positions too; they are zero in
    // p_dense, so full-block SpMM math stays exact.
    FloatMatrix acc(seq, dh, 0.0f);
    kernels::coarse_spmm(p, v, acc);

    std::vector<double> pvals(static_cast<std::size_t>(full.nnz()));
    std::size_t i = 0;
    for (index_t r = 0; r < seq; ++r) {
        for (index_t j = full.row_offsets[static_cast<std::size_t>(r)];
             j < full.row_offsets[static_cast<std::size_t>(r + 1)]; ++j) {
            pvals[i++] = float(
                p_dense.at(r,
                           full.col_indices[static_cast<std::size_t>(j)]));
        }
    }
    const DoubleMatrix ref = kernels::ref_spmm(full, pvals, v);
    for (index_t r = 0; r < seq; ++r) {
        for (index_t d = 0; d < dh; ++d) {
            EXPECT_NEAR(acc.at(r, d), ref.at(r, d), kTol * 4);
        }
    }
}

TEST_P(SparseGemmTest, FineSpmmMatchesReference)
{
    const index_t seq = GetParam();
    Rng rng(11);
    const index_t dh = 16;
    const HalfMatrix v = random_half_matrix(rng, seq, dh);
    auto layout = std::make_shared<const CsrLayout>(
        build_full_layout(test_pattern(seq)));
    CsrMatrix p(layout);
    std::vector<double> pvals(p.values.size());
    for (std::size_t i = 0; i < p.values.size(); ++i) {
        const float x = rng.next_float(0.0f, 0.1f);
        p.values[i] = half(x);
        pvals[i] = float(p.values[i]);
    }
    FloatMatrix acc(seq, dh, 0.0f);
    kernels::fine_spmm(p, v, acc);
    const DoubleMatrix ref = kernels::ref_spmm(*layout, pvals, v);
    for (index_t r = 0; r < seq; ++r) {
        for (index_t d = 0; d < dh; ++d) {
            EXPECT_NEAR(acc.at(r, d), ref.at(r, d), kTol * 4);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SparseGemmTest,
                         ::testing::Values<index_t>(16, 32, 64, 96));

// ------------------------------------------------------------- softmax ----

TEST(SoftmaxKernelTest, FineSoftmaxMatchesReference)
{
    Rng rng(12);
    auto layout = std::make_shared<const CsrLayout>(
        build_full_layout(test_pattern(48)));
    CsrMatrix s(layout);
    std::vector<double> svals(s.values.size());
    for (std::size_t i = 0; i < s.values.size(); ++i) {
        const float x = rng.next_float(-4.0f, 4.0f);
        s.values[i] = half(x);
        svals[i] = float(s.values[i]);
    }
    kernels::fine_softmax(s, 0.25);
    const auto ref = kernels::ref_softmax(*layout, svals, 0.25);
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_NEAR(float(s.values[i]), ref[i], kTol);
    }
}

TEST(SoftmaxKernelTest, CompoundSoftmaxMatchesFineOnWholePattern)
{
    // Splitting the same values between a coarse BSR part and a fine CSR
    // part must give the same probabilities as one fine softmax.
    Rng rng(13);
    const index_t seq = 64;
    CompoundPattern pat;
    pat.seq_len = seq;
    pat.atoms.push_back(AtomicPattern::local(4));
    pat.atoms.push_back(AtomicPattern::random(5, 3));
    const SlicePlan plan = slice_and_dice(pat, {.block = 16});
    const auto full =
        std::make_shared<const CsrLayout>(build_full_layout(plan.pattern));
    ASSERT_TRUE(plan.has_coarse());
    ASSERT_TRUE(plan.has_fine());

    HalfMatrix s_dense(seq, seq, half(0.0f));
    for (index_t r = 0; r < seq; ++r) {
        for (index_t j =
                 full->row_offsets[static_cast<std::size_t>(r)];
             j < full->row_offsets[static_cast<std::size_t>(r + 1)];
             ++j) {
            s_dense.at(
                r, full->col_indices[static_cast<std::size_t>(j)]) =
                half(rng.next_float(-3.0f, 3.0f));
        }
    }
    BsrMatrix coarse = gather_bsr(s_dense, plan.coarse);
    CsrMatrix fine = gather_csr(s_dense, plan.fine);
    kernels::compound_softmax(&coarse, &fine, 0.5);

    CsrMatrix whole = gather_csr(s_dense, full);
    kernels::fine_softmax(whole, 0.5);
    const HalfMatrix whole_dense = dense_from_csr(whole);

    const HalfMatrix coarse_dense = dense_from_bsr(coarse);
    const HalfMatrix fine_dense = dense_from_csr(fine);
    for (index_t r = 0; r < seq; ++r) {
        for (index_t c = 0; c < seq; ++c) {
            const float combined =
                float(coarse_dense.at(r, c)) + float(fine_dense.at(r, c));
            EXPECT_NEAR(combined, float(whole_dense.at(r, c)), kTol)
                << "(" << r << "," << c << ")";
        }
    }
}

TEST(SoftmaxKernelTest, CompoundSoftmaxZeroesInvalidBlockPositions)
{
    CompoundPattern pat;
    pat.seq_len = 32;
    pat.atoms.push_back(AtomicPattern::local(2));  // Partial edge blocks.
    const SlicePlan plan = slice_and_dice(pat, {.block = 8});
    BsrMatrix s(plan.coarse);
    for (auto &v : s.values) {
        v = half(1.0f);  // Garbage in the padding positions too.
    }
    kernels::compound_softmax(&s, nullptr, 1.0);
    const BsrLayout &l = *plan.coarse;
    for (index_t b = 0; b < l.nnz_blocks(); ++b) {
        for (index_t r = 0; r < l.block; ++r) {
            for (index_t c = 0; c < l.block; ++c) {
                if (!l.element_valid(b, r, c)) {
                    EXPECT_EQ(float(s.block(b)[r * l.block + c]), 0.0f);
                }
            }
        }
    }
}

TEST(SoftmaxKernelTest, EmptyRowsProduceZeros)
{
    CsrLayout l;
    l.rows = 4;
    l.cols = 4;
    l.row_offsets = {0, 2, 2, 2, 4};
    l.col_indices = {0, 1, 2, 3};
    auto layout = std::make_shared<const CsrLayout>(std::move(l));
    CsrMatrix s(layout);
    s.values = {half(1.0f), half(2.0f), half(3.0f), half(4.0f)};
    kernels::compound_softmax(nullptr, &s, 1.0);
    EXPECT_NEAR(float(s.values[0]) + float(s.values[1]), 1.0f, 0.01f);
    EXPECT_NEAR(float(s.values[2]) + float(s.values[3]), 1.0f, 0.01f);
}

TEST(SoftmaxKernelTest, LargeLogitsDoNotOverflow)
{
    // Safe softmax: logits near the FP16 max must not produce inf/NaN.
    CsrLayout l;
    l.rows = 1;
    l.cols = 3;
    l.row_offsets = {0, 3};
    l.col_indices = {0, 1, 2};
    auto layout = std::make_shared<const CsrLayout>(std::move(l));
    CsrMatrix s(layout);
    s.values = {half(60000.0f), half(59000.0f), half(-60000.0f)};
    kernels::fine_softmax(s, 1.0);
    for (const half v : s.values) {
        EXPECT_TRUE(std::isfinite(float(v)));
    }
    EXPECT_GT(float(s.values[0]), 0.9f);
}

// ---------------------------------------------------------- cost model ----

TEST(CostModelTest, SplitReuseConservesTraffic)
{
    const kernels::MemSplit s =
        kernels::split_reuse(1000.0, 300.0, 1e9, 0.5);
    EXPECT_LE(s.dram_bytes + s.l2_bytes, 1000.0 + 1e-9);
    EXPECT_GE(s.dram_bytes, 300.0);  // First touches always hit DRAM.
}

TEST(CostModelTest, SplitReuseAllDramWhenNoReuse)
{
    const kernels::MemSplit s = kernels::split_reuse(500.0, 500.0, 1e9, 0.5);
    EXPECT_DOUBLE_EQ(s.dram_bytes, 500.0);
    EXPECT_DOUBLE_EQ(s.l2_bytes, 0.0);
}

TEST(CostModelTest, SmallL2SpillsToDram)
{
    const kernels::MemSplit big_l2 =
        kernels::split_reuse(1000.0, 100.0, 1e9, 0.0);
    const kernels::MemSplit small_l2 =
        kernels::split_reuse(1000.0, 100.0, 50.0, 0.0);
    EXPECT_LT(big_l2.dram_bytes, small_l2.dram_bytes);
}

TEST(CostModelTest, CoarseSddmmPlanConservesFlops)
{
    const CsrLayout full = build_full_layout(test_pattern(64));
    const BsrLayout bsr = bsr_from_csr(full, 16);
    const auto launch = kernels::plan_coarse_sddmm(
        sim::DeviceSpec::a100(), bsr, 32, 3);
    // Tensor flops = blocks * 2 * B^2 * dh * replicas, by construction.
    const double expected =
        static_cast<double>(bsr.nnz_blocks()) * 2.0 * 16 * 16 * 32 * 3;
    EXPECT_NEAR(launch.total_work().tensor_flops, expected, 1.0);
    EXPECT_EQ(launch.num_tbs(),
              [&] {
                  index_t nonempty = 0;
                  for (index_t br = 0; br < bsr.block_rows(); ++br) {
                      nonempty += bsr.row_nnz_blocks(br) > 0 ? 1 : 0;
                  }
                  return nonempty * 3;
              }());
}

TEST(CostModelTest, FineSddmmPlanConservesFlops)
{
    const CsrLayout full = build_full_layout(test_pattern(64));
    const auto launch = kernels::plan_fine_sddmm(
        sim::DeviceSpec::a100(), full, 32, 2, FineSddmmScheme::kRowSplit);
    const double expected = static_cast<double>(full.nnz()) *
                            (2.0 * 32 * kernels::kFineGatherOverhead + 2.0) *
                            2;
    EXPECT_NEAR(launch.total_work().cuda_flops, expected, 1.0);
    EXPECT_EQ(launch.num_tbs(), full.rows * 2);
}

TEST(CostModelTest, OneDTilingLaunchesMoreBlocksThanRowSplit)
{
    // A layout with one dense row (global) and many short rows: the
    // official 1D tiling pays ceil(max_nnz/64) blocks for *every* row.
    CompoundPattern pat;
    pat.seq_len = 128;
    pat.atoms.push_back(AtomicPattern::local(2));
    pat.atoms.push_back(AtomicPattern::global({0}));
    const CsrLayout full = build_full_layout(pat);
    const auto rowsplit = kernels::plan_fine_sddmm(
        sim::DeviceSpec::a100(), full, 64, 1, FineSddmmScheme::kRowSplit);
    const auto tiling = kernels::plan_fine_sddmm(
        sim::DeviceSpec::a100(), full, 64, 1, FineSddmmScheme::k1dTiling);
    EXPECT_EQ(rowsplit.num_tbs(), 128);
    EXPECT_EQ(tiling.num_tbs(), 128 * 2);  // max_nnz 128 -> 2 tiles/row.
    // Same useful flops either way.
    EXPECT_NEAR(rowsplit.total_work().cuda_flops,
                tiling.total_work().cuda_flops, 1.0);
}

TEST(CostModelTest, TritonSoftmaxSweepsStoredNotValid)
{
    // Blockifying a scattered pattern forces the blocked softmax to touch
    // every stored element; the compound softmax touches valid + fine.
    CompoundPattern pat;
    pat.seq_len = 256;
    pat.atoms.push_back(AtomicPattern::random(6, 5));
    SliceOptions coarse_only;
    coarse_only.block = 64;
    coarse_only.mode = SliceMode::kCoarseOnly;
    const SlicePlan triton = slice_and_dice(pat, coarse_only);
    const SlicePlan mg = slice_and_dice(pat, {.block = 64});

    const auto t = kernels::plan_triton_softmax(sim::DeviceSpec::a100(),
                                                *triton.coarse, 1);
    const auto m = kernels::plan_compound_softmax(
        sim::DeviceSpec::a100(), nullptr, mg.fine.get(), 1);
    EXPECT_GT(t.total_work().cuda_flops, 10 * m.total_work().cuda_flops);
    EXPECT_GT(t.total_work().dram_bytes(),
              4 * m.total_work().dram_bytes());
}

TEST(CostModelTest, DenseGemmPlanFlopsExact)
{
    const sim::DeviceSpec dev = sim::DeviceSpec::a100();
    const auto launch = kernels::plan_dense_gemm(dev, 256, 512, 128, 2, "g");
    // Tile-quantized flops are at least the exact amount, expressed in
    // sparse-efficiency units (dense GEMM achieves a higher fraction of
    // peak, so its flops are scaled down by the efficiency ratio).
    const double eff = dev.tensor_efficiency / dev.dense_tensor_efficiency;
    EXPECT_GE(launch.total_work().tensor_flops,
              2.0 * 256 * 512 * 128 * 2 * eff - 1.0);
    EXPECT_GT(launch.num_tbs(), 0);
}

TEST(CostModelTest, ElementwisePlanBandwidthBound)
{
    const auto launch = kernels::plan_elementwise(sim::DeviceSpec::a100(),
                                                  1 << 20, 2, 8.0, "ew");
    const auto w = launch.total_work();
    EXPECT_NEAR(w.dram_read_bytes, 2.0 * 2 * (1 << 20), 1e3);
    EXPECT_NEAR(w.dram_write_bytes, 2.0 * (1 << 20), 1e3);
}

}  // namespace
}  // namespace multigrain
