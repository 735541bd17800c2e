// Property-based tests: randomized compound patterns drive the invariants
// that must hold for *every* input — partition exactness, method
// equivalence, softmax normalization, simulator conservation — swept over
// seeds with parameterized gtest.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/attention.h"
#include "formats/convert.h"
#include "gpusim/device.h"
#include "kernels/compound_softmax.h"
#include "kernels/cost_model.h"
#include "kernels/reference.h"
#include "patterns/slice.h"

namespace multigrain {
namespace {

/// Draws a random compound pattern: 1-4 atoms of random kinds/parameters.
CompoundPattern
random_pattern(Rng &rng, index_t seq)
{
    CompoundPattern p;
    p.seq_len = seq;
    const int atoms = static_cast<int>(rng.next_range(1, 4));
    for (int i = 0; i < atoms; ++i) {
        switch (rng.next_range(0, 7)) {
          case 0:
            p.atoms.push_back(
                AtomicPattern::local(rng.next_range(0, seq / 8)));
            break;
          case 1:
            p.atoms.push_back(AtomicPattern::dilated(
                rng.next_range(1, 4), rng.next_range(2, 5)));
            break;
          case 2: {
            std::vector<index_t> tokens;
            const index_t count = rng.next_range(1, 6);
            for (index_t t = 0; t < count; ++t) {
                tokens.push_back(rng.next_range(0, seq - 1));
            }
            p.atoms.push_back(AtomicPattern::global(tokens));
            break;
          }
          case 3: {
            std::vector<index_t> tokens;
            const index_t count = rng.next_range(1, 8);
            for (index_t t = 0; t < count; ++t) {
                tokens.push_back(rng.next_range(0, seq - 1));
            }
            p.atoms.push_back(AtomicPattern::selected(tokens));
            break;
          }
          case 4:
            p.atoms.push_back(AtomicPattern::random(
                rng.next_range(1, 8), rng.next_u64()));
            break;
          case 5:
            p.atoms.push_back(AtomicPattern::blocked_local(
                16, rng.next_range(0, 2)));
            break;
          case 6:
            p.atoms.push_back(AtomicPattern::blocked_random(
                16, rng.next_range(1, 3), rng.next_u64()));
            break;
          default:
            p.atoms.push_back(AtomicPattern::clustered_random(
                16, rng.next_range(1, 3), rng.next_range(2, 10),
                rng.next_u64()));
            break;
        }
    }
    // Sometimes add zero padding.
    if (rng.next_float() < 0.3f) {
        p.valid_len = rng.next_range(seq / 2, seq);
    }
    return p;
}

class PatternPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PatternPropertyTest, PartitionIsExactForAllModes)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
    const CompoundPattern p = random_pattern(rng, 96);
    for (const SliceMode mode :
         {SliceMode::kMultigrain, SliceMode::kCoarseOnly,
          SliceMode::kFineOnly}) {
        SliceOptions options;
        options.block = 16;
        options.mode = mode;
        const SlicePlan plan = slice_and_dice(p, options);
        ASSERT_NO_THROW(plan.validate_partition())
            << p.describe() << " mode " << to_string(mode);
    }
}

TEST_P(PatternPropertyTest, MethodsMatchDenseReference)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 17);
    const index_t seq = 64;
    const CompoundPattern p = random_pattern(rng, seq);
    const HalfMatrix q = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    const HalfMatrix k = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    const HalfMatrix v = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    AttentionConfig config;
    config.head_dim = 16;
    config.block = 16;

    const CsrLayout full = build_full_layout(p);
    if (full.nnz() == 0) {
        return;  // Degenerate (all padding) pattern: nothing to compare.
    }
    const DoubleMatrix ref =
        kernels::ref_attention(q, k, v, full, config.effective_scale());
    for (const SliceMode mode :
         {SliceMode::kMultigrain, SliceMode::kCoarseOnly,
          SliceMode::kFineOnly, SliceMode::kDense}) {
        const AttentionEngine engine(p, config, mode);
        const HalfMatrix out = engine.run(q, k, v);
        EXPECT_LT(kernels::max_abs_diff(widen(out), ref), 0.03)
            << p.describe() << " mode " << to_string(mode);
    }
}

TEST_P(PatternPropertyTest, SoftmaxRowsNormalizedInAllParts)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537 + 29);
    const index_t seq = 80;
    const CompoundPattern p = random_pattern(rng, seq);
    const SlicePlan plan = slice_and_dice(p, {.block = 16});
    const CsrLayout full = build_full_layout(plan.pattern);
    if (full.nnz() == 0) {
        return;
    }

    HalfMatrix s_dense(seq, seq, half(0.0f));
    for (index_t r = 0; r < seq; ++r) {
        for (index_t j = full.row_offsets[static_cast<std::size_t>(r)];
             j < full.row_offsets[static_cast<std::size_t>(r + 1)]; ++j) {
            s_dense.at(r, full.col_indices[static_cast<std::size_t>(j)]) =
                half(rng.next_float(-3.0f, 3.0f));
        }
    }
    BsrMatrix coarse;
    CsrMatrix fine;
    if (plan.has_coarse()) {
        coarse = gather_bsr(s_dense, plan.coarse);
    }
    if (plan.has_fine()) {
        fine = gather_csr(s_dense, plan.fine);
    }
    if (!plan.has_coarse() && !plan.has_fine()) {
        return;  // Pure-global pattern.
    }
    kernels::compound_softmax(plan.has_coarse() ? &coarse : nullptr,
                              plan.has_fine() ? &fine : nullptr, 0.7);

    const HalfMatrix cd = plan.has_coarse()
                              ? dense_from_bsr(coarse)
                              : HalfMatrix(seq, seq, half(0.0f));
    const HalfMatrix fd = plan.has_fine()
                              ? dense_from_csr(fine)
                              : HalfMatrix(seq, seq, half(0.0f));
    for (index_t r = 0; r < seq; ++r) {
        const bool is_global = std::binary_search(
            plan.global_rows.begin(), plan.global_rows.end(), r);
        if (is_global) {
            continue;  // Handled by the dense softmax elsewhere.
        }
        double sum = 0;
        index_t elems = 0;
        for (index_t c = 0; c < seq; ++c) {
            sum += float(cd.at(r, c)) + float(fd.at(r, c));
        }
        elems = full.row_nnz(r);
        if (elems > 0) {
            EXPECT_NEAR(sum, 1.0, 0.02) << "row " << r << " of "
                                        << p.describe();
        } else {
            EXPECT_NEAR(sum, 0.0, 1e-6) << "row " << r;
        }
    }
}

TEST_P(PatternPropertyTest, SimulatedWorkMatchesLayoutFootprint)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 41);
    const CompoundPattern p = random_pattern(rng, 128);
    AttentionConfig config;
    config.head_dim = 16;
    config.block = 16;
    const AttentionEngine engine(p, config, SliceMode::kMultigrain);
    if (build_full_layout(p).nnz() == 0) {
        return;
    }
    const sim::SimResult r = engine.simulate(sim::DeviceSpec::a100());
    // Work conservation at the plan level: SDDMM tensor flops cover the
    // coarse stored blocks exactly.
    if (engine.plan().has_coarse()) {
        const double expected =
            static_cast<double>(engine.plan().coarse->nnz_blocks()) * 2.0 *
            16 * 16 * 16;
        const auto *k = r.find("sddmm.coarse");
        ASSERT_NE(k, nullptr);
        EXPECT_NEAR(k->work.tensor_flops, expected, 1.0);
    }
    if (engine.plan().has_fine()) {
        const auto *k = r.find("sddmm.fine");
        ASSERT_NE(k, nullptr);
        const double expected =
            static_cast<double>(engine.plan().fine->nnz()) *
            (2.0 * 16 * kernels::kFineGatherOverhead + 2.0);
        EXPECT_NEAR(k->work.cuda_flops, expected, 1.0);
    }
    EXPECT_GT(r.total_us, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatternPropertyTest,
                         ::testing::Range(0, 25));

TEST_P(PatternPropertyTest, BackwardMatchesAnalyticReference)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 48271 + 5);
    const index_t seq = 48;
    CompoundPattern p = random_pattern(rng, seq);
    const HalfMatrix q = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    const HalfMatrix k = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    const HalfMatrix v = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    const HalfMatrix d_out = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    AttentionConfig config;
    config.head_dim = 16;
    config.block = 16;

    const CsrLayout full = build_full_layout(p);
    if (full.nnz() == 0) {
        return;
    }
    const kernels::RefAttentionGrads ref = kernels::ref_attention_backward(
        q, k, v, full, config.effective_scale(), widen(d_out));
    for (const SliceMode mode :
         {SliceMode::kMultigrain, SliceMode::kCoarseOnly,
          SliceMode::kFineOnly, SliceMode::kDense}) {
        const AttentionEngine engine(p, config, mode);
        const AttentionEngine::Grads grads =
            engine.run_backward(q, k, v, d_out);
        EXPECT_LT(kernels::max_abs_diff(widen(grads.dq), ref.dq), 0.08)
            << "dq " << p.describe() << " mode " << to_string(mode);
        EXPECT_LT(kernels::max_abs_diff(widen(grads.dk), ref.dk), 0.08)
            << "dk " << p.describe() << " mode " << to_string(mode);
        EXPECT_LT(kernels::max_abs_diff(widen(grads.dv), ref.dv), 0.08)
            << "dv " << p.describe() << " mode " << to_string(mode);
    }
}

// ------------------------------------------------- engine stress sweeps ----

class EngineStressTest : public ::testing::TestWithParam<int> {};

/// Random mixes of kernels across random streams with occasional joins:
/// the engine must stay deterministic, conserve work, and respect
/// stream/join ordering for every program shape.
TEST_P(EngineStressTest, RandomProgramsAreDeterministicAndOrdered)
{
    const auto build = [&](sim::SimResult *out) {
        Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 7);
        LaunchGraph graph;
        std::vector<int> streams = {0};
        for (int s = 0; s < 3; ++s) {
            streams.push_back(graph.create_stream());
        }
        const int kernels = static_cast<int>(rng.next_range(3, 12));
        double expected_flops = 0;
        for (int k = 0; k < kernels; ++k) {
            sim::KernelLaunch launch;
            launch.name = "k" + std::to_string(k);
            launch.shape.threads =
                static_cast<int>(rng.next_range(1, 8)) * 64;
            launch.shape.smem_bytes =
                static_cast<int>(rng.next_range(0, 48)) * 1024;
            launch.shape.regs_per_thread =
                static_cast<int>(rng.next_range(16, 128));
            const index_t groups = rng.next_range(1, 4);
            for (index_t g = 0; g < groups; ++g) {
                sim::TbWork w;
                w.tensor_flops = rng.next_float() < 0.5f
                                     ? rng.next_float(0, 4e6)
                                     : 0.0;
                w.cuda_flops = rng.next_float(0, 2e6);
                w.dram_read_bytes = rng.next_float(0, 1e5);
                w.dram_write_bytes = rng.next_float(0, 5e4);
                w.l2_bytes = rng.next_float(0, 2e5);
                const index_t count = rng.next_range(1, 200);
                launch.add_tb(w, count);
                expected_flops +=
                    (w.tensor_flops + w.cuda_flops) *
                    static_cast<double>(count);
            }
            graph.launch(
                streams[static_cast<std::size_t>(rng.next_range(0, 3))],
                std::move(launch));
            if (rng.next_float() < 0.25f) {
                graph.join_streams();
            }
        }
        *out = sim::simulate(sim::DeviceSpec::a100(), graph);
        return expected_flops;
    };

    sim::SimResult r1, r2;
    const double flops = build(&r1);
    build(&r2);

    // Deterministic.
    ASSERT_EQ(r1.kernels.size(), r2.kernels.size());
    EXPECT_DOUBLE_EQ(r1.total_us, r2.total_us);
    for (std::size_t i = 0; i < r1.kernels.size(); ++i) {
        EXPECT_DOUBLE_EQ(r1.kernels[i].start_us, r2.kernels[i].start_us);
        EXPECT_DOUBLE_EQ(r1.kernels[i].end_us, r2.kernels[i].end_us);
    }
    // Work conserved.
    EXPECT_NEAR(r1.work.tensor_flops + r1.work.cuda_flops, flops,
                1e-6 * flops + 1e-9);
    // Same-stream kernels never overlap.
    for (std::size_t i = 0; i < r1.kernels.size(); ++i) {
        for (std::size_t j = i + 1; j < r1.kernels.size(); ++j) {
            if (r1.kernels[i].stream == r1.kernels[j].stream) {
                EXPECT_GE(r1.kernels[j].start_us + 1e-9,
                          r1.kernels[i].end_us)
                    << r1.kernels[i].name << " vs " << r1.kernels[j].name;
            }
        }
    }
    // Every kernel has a sane span.
    for (const auto &k : r1.kernels) {
        EXPECT_GE(k.end_us, k.start_us);
        EXPECT_GE(k.start_us, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(Programs, EngineStressTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace multigrain
