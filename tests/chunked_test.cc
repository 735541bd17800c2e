// Tests for the §2.4 special methods: sliding-chunk (Longformer) and
// blockify (BigBird) must compute exactly the banded sparse attention the
// reference defines, and their plans must carry the pre-processing copy
// overheads the paper charges them with.

#include <memory>

#include <gtest/gtest.h>

#include "common/error.h"
#include "gpusim/device.h"
#include "gpusim/engine.h"
#include "kernels/chunked_baseline.h"
#include "kernels/reference.h"
#include "patterns/pattern.h"

namespace multigrain {
namespace {

constexpr double kTol = 0.02;

class ChunkedWindowTest : public ::testing::TestWithParam<index_t> {};

TEST_P(ChunkedWindowTest, SlidingChunkMatchesLocalReference)
{
    const index_t window = GetParam();
    const index_t seq = window * 8;
    Rng rng(21);
    const HalfMatrix q = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    const HalfMatrix k = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    const HalfMatrix v = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);

    const HalfMatrix out =
        kernels::sliding_chunk_attention(q, k, v, window, 0.25);

    CompoundPattern pattern;
    pattern.seq_len = seq;
    pattern.atoms.push_back(AtomicPattern::local(window));
    const CsrLayout layout = build_full_layout(pattern);
    const DoubleMatrix ref = kernels::ref_attention(q, k, v, layout, 0.25);
    EXPECT_LT(kernels::max_abs_diff(widen(out), ref), kTol);
}

TEST_P(ChunkedWindowTest, BlockifyMatchesBlockedLocalReference)
{
    const index_t block = GetParam();
    const index_t seq = block * 8;
    Rng rng(22);
    const HalfMatrix q = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    const HalfMatrix k = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    const HalfMatrix v = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);

    const HalfMatrix out =
        kernels::blockify_attention(q, k, v, block, 0.25);

    CompoundPattern pattern;
    pattern.seq_len = seq;
    pattern.atoms.push_back(AtomicPattern::blocked_local(block, 1));
    const CsrLayout layout = build_full_layout(pattern);
    const DoubleMatrix ref = kernels::ref_attention(q, k, v, layout, 0.25);
    EXPECT_LT(kernels::max_abs_diff(widen(out), ref), kTol);
}

INSTANTIATE_TEST_SUITE_P(Windows, ChunkedWindowTest,
                         ::testing::Values<index_t>(4, 8, 16));

TEST(ChunkedTest, SlidingChunkRejectsBadShapes)
{
    Rng rng(1);
    const HalfMatrix m = random_half_matrix(rng, 30, 8);
    EXPECT_THROW(kernels::sliding_chunk_attention(m, m, m, 0, 1.0), Error);
    EXPECT_THROW(kernels::sliding_chunk_attention(m, m, m, 7, 1.0), Error);
}

TEST(ChunkedTest, PlansCarryCopyOverheads)
{
    const index_t seq = 4096, dh = 64, replicas = 4;

    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    const sim::SimResult chunk = sim::simulate(
        device, kernels::plan_sliding_chunk(device, seq, 256, dh, replicas));
    // The copy-in kernel moves 2x K + 2x V (read + write each).
    const auto *copy = chunk.find("chunk.copy_in");
    ASSERT_NE(copy, nullptr);
    const double kv_bytes = 2.0 * seq * dh * 2.0 * replicas;  // K and V.
    EXPECT_NEAR(copy->work.dram_bytes(), 2.0 * kv_bytes * 2.0,
                0.02 * kv_bytes);

    const sim::SimResult blockify = sim::simulate(
        device, kernels::plan_blockify(device, seq, 64, dh, replicas));
    const auto *bcopy = blockify.find("blockify.copy_in");
    ASSERT_NE(bcopy, nullptr);
    // 3x duplication: strictly more copy traffic than sliding chunk at the
    // same model size.
    EXPECT_GT(bcopy->work.dram_bytes(), copy->work.dram_bytes() * 1.4);
}

TEST(ChunkedTest, PlanPhasesAreOrdered)
{
    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    const sim::SimResult r = sim::simulate(
        device, kernels::plan_sliding_chunk(device, 1024, 128, 64, 1));
    const auto *copy = r.find("chunk.copy_in");
    const auto *qk = r.find("chunk.qk");
    const auto *softmax = r.find("chunk.softmax");
    const auto *pv = r.find("chunk.pv");
    ASSERT_TRUE(copy && qk && softmax && pv);
    EXPECT_GE(qk->start_us, copy->end_us);
    EXPECT_GE(softmax->start_us, qk->end_us);
    EXPECT_GE(pv->start_us, softmax->end_us);
}

}  // namespace
}  // namespace multigrain
