// Integration tests for the Multigrain core: all three processing methods
// must produce the same attention output as the FP64 dense-masked
// reference, and their performance plans must have the structure the
// paper describes (multi-stream overlap, phase ordering, traffic ordering).

#include <cmath>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/attention.h"
#include "formats/convert.h"
#include "gpusim/device.h"
#include "kernels/reference.h"
#include "patterns/presets.h"

namespace multigrain {
namespace {

constexpr double kTol = 0.03;  // FP16 through three chained ops.

AttentionConfig
small_config()
{
    AttentionConfig c;
    c.head_dim = 16;
    c.block = 16;
    return c;
}

CompoundPattern
compound(index_t seq)
{
    CompoundPattern p;
    p.seq_len = seq;
    p.atoms.push_back(AtomicPattern::local(4));
    p.atoms.push_back(AtomicPattern::selected({1, seq / 3}));
    p.atoms.push_back(AtomicPattern::global({1, seq / 3}));
    p.atoms.push_back(AtomicPattern::random(3, 21));
    return p;
}

class MethodEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<SliceMode, index_t>> {};

TEST_P(MethodEquivalenceTest, MatchesDenseReference)
{
    const auto [mode, seq] = GetParam();
    Rng rng(31);
    const HalfMatrix q = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    const HalfMatrix k = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    const HalfMatrix v = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);

    const AttentionEngine engine(compound(seq), small_config(), mode);
    const HalfMatrix out = engine.run(q, k, v);

    const DoubleMatrix ref = kernels::ref_attention(
        q, k, v, build_full_layout(engine.plan().pattern),
        engine.config().effective_scale());
    EXPECT_LT(kernels::max_abs_diff(widen(out), ref), kTol)
        << to_string(mode) << " L=" << seq;
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSizes, MethodEquivalenceTest,
    ::testing::Combine(::testing::Values(SliceMode::kMultigrain,
                                         SliceMode::kCoarseOnly,
                                         SliceMode::kFineOnly),
                       ::testing::Values<index_t>(32, 64, 128)),
    [](const auto &info) {
        std::string name = to_string(std::get<0>(info.param));
        for (char &c : name) {
            if (c == '-') {
                c = '_';
            }
        }
        return name + "_L" + std::to_string(std::get<1>(info.param));
    });

TEST(AttentionEngineTest, MethodsAgreeWithEachOther)
{
    Rng rng(32);
    const index_t seq = 96;
    const HalfMatrix q = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    const HalfMatrix k = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    const HalfMatrix v = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    const CompoundPattern p = compound(seq);
    const HalfMatrix mg =
        AttentionEngine(p, small_config(), SliceMode::kMultigrain)
            .run(q, k, v);
    const HalfMatrix tr =
        AttentionEngine(p, small_config(), SliceMode::kCoarseOnly)
            .run(q, k, v);
    const HalfMatrix sp =
        AttentionEngine(p, small_config(), SliceMode::kFineOnly)
            .run(q, k, v);
    EXPECT_LT(kernels::max_abs_diff(widen(mg), widen(tr)), kTol);
    EXPECT_LT(kernels::max_abs_diff(widen(mg), widen(sp)), kTol);
}

TEST(AttentionEngineTest, ZeroPaddedRowsComeOutZero)
{
    Rng rng(33);
    const index_t seq = 64;
    CompoundPattern p = compound(seq);
    p.valid_len = 40;
    const HalfMatrix q = random_half_matrix(rng, seq, 16);
    const HalfMatrix k = random_half_matrix(rng, seq, 16);
    const HalfMatrix v = random_half_matrix(rng, seq, 16);
    const AttentionEngine engine(p, small_config(), SliceMode::kMultigrain);
    const HalfMatrix out = engine.run(q, k, v);
    for (index_t r = 40; r < seq; ++r) {
        for (index_t d = 0; d < 16; ++d) {
            EXPECT_EQ(float(out.at(r, d)), 0.0f) << r << "," << d;
        }
    }
}

TEST(AttentionEngineTest, GlobalRowsAttendEverything)
{
    // A global row's context must reflect every position, including ones
    // no local/selected element covers.
    Rng rng(34);
    const index_t seq = 64;
    const HalfMatrix q = random_half_matrix(rng, seq, 16, -0.2f, 0.2f);
    const HalfMatrix k = random_half_matrix(rng, seq, 16, -0.2f, 0.2f);
    HalfMatrix v(seq, 16, half(0.0f));
    // Value signal only at position 50, far from row 1's local band.
    for (index_t d = 0; d < 16; ++d) {
        v.at(50, d) = half(8.0f);
    }
    CompoundPattern p;
    p.seq_len = seq;
    p.atoms.push_back(AtomicPattern::local(2));
    p.atoms.push_back(AtomicPattern::global({1}));
    const AttentionEngine engine(p, small_config(), SliceMode::kMultigrain);
    const HalfMatrix out = engine.run(q, k, v);
    double global_mag = 0, local_mag = 0;
    for (index_t d = 0; d < 16; ++d) {
        global_mag += std::abs(float(out.at(1, d)));
        local_mag += std::abs(float(out.at(20, d)));
    }
    EXPECT_GT(global_mag, 0.1);   // Sees position 50.
    EXPECT_EQ(local_mag, 0.0);    // Local row 20 cannot.
}

TEST(AttentionEngineTest, DenseModeMatchesReference)
{
    Rng rng(45);
    const index_t seq = 96;
    const CompoundPattern p = compound(seq);
    const HalfMatrix q = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    const HalfMatrix k = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    const HalfMatrix v = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    const AttentionEngine dense(p, small_config(), SliceMode::kDense);
    const DoubleMatrix ref = kernels::ref_attention(
        q, k, v, build_full_layout(dense.plan().pattern),
        dense.config().effective_scale());
    EXPECT_LT(kernels::max_abs_diff(widen(dense.run(q, k, v)), ref), kTol);
    // Backward too (routed through the element-wise path internally).
    const HalfMatrix d_out = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    const AttentionEngine::Grads grads =
        dense.run_backward(q, k, v, d_out);
    const kernels::RefAttentionGrads ref_grads =
        kernels::ref_attention_backward(
            q, k, v, build_full_layout(dense.plan().pattern),
            dense.config().effective_scale(), widen(d_out));
    EXPECT_LT(kernels::max_abs_diff(widen(grads.dq), ref_grads.dq), 0.06);
}

TEST(AttentionEngineTest, DenseModeCostsQuadratically)
{
    AttentionConfig config;
    config.head_dim = 64;
    config.num_heads = 4;
    CompoundPattern small, big;
    small.seq_len = 1024;
    big.seq_len = 4096;
    small.atoms.push_back(AtomicPattern::local(64));
    big.atoms.push_back(AtomicPattern::local(64));
    const double t_small =
        AttentionEngine(small, config, SliceMode::kDense)
            .simulate(sim::DeviceSpec::a100())
            .total_us;
    const double t_big = AttentionEngine(big, config, SliceMode::kDense)
                             .simulate(sim::DeviceSpec::a100())
                             .total_us;
    // 4x the length: >= ~10x the time (O(L^2) with fixed overheads).
    EXPECT_GT(t_big, 8 * t_small);
    // And the sparse method beats dense handily at L=4096.
    const double t_mg = AttentionEngine(big, config, SliceMode::kMultigrain)
                            .simulate(sim::DeviceSpec::a100())
                            .total_us;
    EXPECT_LT(t_mg, t_big / 3);
}

TEST(AttentionEngineTest, MemoryFootprintOrdering)
{
    AttentionConfig config;
    config.head_dim = 64;
    config.num_heads = 4;
    const auto patterns = fig9_patterns(4096, 0.05, 7);
    const CompoundPattern &p = patterns[0].pattern;  // L+S.
    const double dense =
        AttentionEngine(p, config, SliceMode::kDense)
            .attention_memory_bytes();
    const double triton =
        AttentionEngine(p, config, SliceMode::kCoarseOnly)
            .attention_memory_bytes();
    const double sputnik =
        AttentionEngine(p, config, SliceMode::kFineOnly)
            .attention_memory_bytes();
    const double mg = AttentionEngine(p, config, SliceMode::kMultigrain)
                          .attention_memory_bytes();
    // Dense stores L^2; every sparse plan stores far less; blockified
    // storage exceeds element-wise storage (the stored/valid inflation);
    // Multigrain sits at or below the coarse-only baseline.
    EXPECT_GT(dense, 4 * triton);
    EXPECT_GT(triton, sputnik * 0.9);
    EXPECT_LE(mg, triton);
    // ~5% density: dense/sputnik ratio near 1/density (plus indices).
    EXPECT_GT(dense / sputnik, 6.0);
}

TEST(AttentionEngineTest, CausalPatternsMatchReferenceAcrossMethods)
{
    Rng rng(44);
    const index_t seq = 64;
    // A Sparse Transformer "strided" decoder pattern: a causal window of
    // 8 plus every 8th earlier position.
    CompoundPattern p;
    p.seq_len = seq;
    p.causal = true;
    p.atoms.push_back(AtomicPattern::local(8));
    p.atoms.push_back(AtomicPattern::dilated(seq / 8, 8));
    const HalfMatrix q = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    const HalfMatrix k = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    const HalfMatrix v = random_half_matrix(rng, seq, 16, -0.5f, 0.5f);
    const AttentionEngine mg(p, small_config(), SliceMode::kMultigrain);
    const DoubleMatrix ref = kernels::ref_attention(
        q, k, v, build_full_layout(mg.plan().pattern),
        mg.config().effective_scale());
    for (const SliceMode mode :
         {SliceMode::kMultigrain, SliceMode::kCoarseOnly,
          SliceMode::kFineOnly}) {
        const AttentionEngine engine(p, small_config(), mode);
        EXPECT_LT(kernels::max_abs_diff(widen(engine.run(q, k, v)), ref),
                  kTol)
            << to_string(mode);
    }
}

// ----------------------------------------------------------- the plans ----

TEST(AttentionPlanTest, MultigrainUsesMultipleStreams)
{
    const AttentionEngine engine(compound(128), small_config(),
                                 SliceMode::kMultigrain);
    const sim::SimResult r = engine.simulate(sim::DeviceSpec::a100());
    bool coarse_seen = false, fine_seen = false, global_seen = false;
    int max_stream = 0;
    for (const auto &k : r.kernels) {
        coarse_seen |= k.name == "sddmm.coarse";
        fine_seen |= k.name == "sddmm.fine";
        global_seen |= k.name == "sddmm.global";
        max_stream = std::max(max_stream, k.stream);
    }
    EXPECT_TRUE(coarse_seen);
    EXPECT_TRUE(fine_seen);
    EXPECT_TRUE(global_seen);
    EXPECT_GE(max_stream, 1);  // Genuinely multi-stream.
}

TEST(AttentionPlanTest, SddmmPartsOverlapInTime)
{
    AttentionConfig config = small_config();
    config.head_dim = 64;
    config.block = 64;
    config.num_heads = 4;
    const auto patterns = fig9_patterns(1024, 0.05, 7);
    const AttentionEngine engine(patterns[0].pattern, config,
                                 SliceMode::kMultigrain);
    const sim::SimResult r = engine.simulate(sim::DeviceSpec::a100());
    const auto *coarse = r.find("sddmm.coarse");
    const auto *fine = r.find("sddmm.fine");
    ASSERT_NE(coarse, nullptr);
    ASSERT_NE(fine, nullptr);
    // Multi-stream: the two SDDMMs co-run rather than serialize.
    EXPECT_LT(fine->start_us, coarse->end_us);
    EXPECT_LT(coarse->start_us, fine->end_us);
}

TEST(AttentionPlanTest, PhasesAreOrdered)
{
    const AttentionEngine engine(compound(128), small_config(),
                                 SliceMode::kMultigrain);
    const sim::SimResult r = engine.simulate(sim::DeviceSpec::a100());
    // Every softmax kernel starts after every SDDMM kernel ends, and every
    // SpMM after every softmax (join_streams between phases).
    double sddmm_end = 0, softmax_start = 1e30, softmax_end = 0,
           spmm_start = 1e30;
    for (const auto &k : r.kernels) {
        if (k.name.rfind(phase::kSddmm, 0) == 0) {
            sddmm_end = std::max(sddmm_end, k.end_us);
        } else if (k.name.rfind(phase::kSoftmax, 0) == 0) {
            softmax_start = std::min(softmax_start, k.start_us);
            softmax_end = std::max(softmax_end, k.end_us);
        } else if (k.name.rfind(phase::kSpmm, 0) == 0) {
            spmm_start = std::min(spmm_start, k.start_us);
        }
    }
    EXPECT_GE(softmax_start, sddmm_end);
    EXPECT_GE(spmm_start, softmax_end);
}

TEST(AttentionPlanTest, SingleStreamAblationSerializesParts)
{
    AttentionConfig config = small_config();
    config.multi_stream = false;
    const AttentionEngine engine(compound(128), config,
                                 SliceMode::kMultigrain);
    const sim::SimResult r = engine.simulate(sim::DeviceSpec::a100());
    ASSERT_FALSE(r.kernels.empty());
    const int stream = r.kernels.front().stream;
    for (const auto &k : r.kernels) {
        EXPECT_EQ(k.stream, stream) << k.name;  // All on one stream.
    }
    const auto *coarse = r.find("sddmm.coarse");
    const auto *fine = r.find("sddmm.fine");
    ASSERT_NE(coarse, nullptr);
    ASSERT_NE(fine, nullptr);
    EXPECT_GE(fine->start_us, coarse->end_us);
}

TEST(AttentionPlanTest, TritonTrafficExceedsMultigrainOnFinePatterns)
{
    // A scattered pattern blockified stores ~64x more elements than it has;
    // the Triton-style plan must show that as DRAM traffic (Fig. 7's
    // memory-traffic reduction).
    CompoundPattern p;
    p.seq_len = 1024;
    p.atoms.push_back(AtomicPattern::local(48));
    p.atoms.push_back(AtomicPattern::random(12, 9));
    AttentionConfig config;
    config.head_dim = 64;
    config.block = 64;
    const double mg = AttentionEngine(p, config, SliceMode::kMultigrain)
                          .simulate(sim::DeviceSpec::a100())
                          .work.dram_bytes();
    const double tr = AttentionEngine(p, config, SliceMode::kCoarseOnly)
                          .simulate(sim::DeviceSpec::a100())
                          .work.dram_bytes();
    EXPECT_GT(tr, 2.0 * mg);
}

TEST(AttentionPlanTest, ReplicasScaleWork)
{
    AttentionConfig one = small_config();
    AttentionConfig four = small_config();
    four.num_heads = 2;
    four.batch = 2;
    const CompoundPattern p = compound(128);
    const auto r1 = AttentionEngine(p, one, SliceMode::kMultigrain)
                        .simulate(sim::DeviceSpec::a100());
    const auto r4 = AttentionEngine(p, four, SliceMode::kMultigrain)
                        .simulate(sim::DeviceSpec::a100());
    EXPECT_NEAR(r4.work.tensor_flops, 4 * r1.work.tensor_flops, 1.0);
    EXPECT_NEAR(r4.work.cuda_flops, 4 * r1.work.cuda_flops, 1e-3);
    // Batching improves utilization: 4x work costs < 4x time.
    EXPECT_LT(r4.total_us, 4 * r1.total_us);
}

}  // namespace
}  // namespace multigrain
