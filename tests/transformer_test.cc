// Tests for the transformer substrate: model configs, synthetic workload
// generators and the end-to-end runner.

#include <string>

#include <gtest/gtest.h>

#include "core/attention.h"
#include "gpusim/device.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"

namespace multigrain {
namespace {

// -------------------------------------------------------------- config ----

TEST(ConfigTest, LongformerMatchesPaperSetup)
{
    const ModelConfig c = ModelConfig::longformer_large();
    EXPECT_EQ(c.max_seq_len, 4096);
    EXPECT_EQ(c.num_heads, 16);
    EXPECT_EQ(c.head_dim(), 64);
    EXPECT_EQ(c.num_layers, 24);
    EXPECT_TRUE(c.has_global_rows);
    // §5.1: sparse:dense stored-block ratio ~1:3 for the ±256 window at
    // block 64 — enough dense interior blocks to favor tensor cores.
    EXPECT_EQ(2 * c.local_window, 512);
}

TEST(ConfigTest, QdsMatchesPaperSetup)
{
    const ModelConfig c = ModelConfig::qds_base();
    EXPECT_EQ(c.max_seq_len, 2048);
    EXPECT_EQ(c.head_dim(), 64);
    EXPECT_FALSE(c.has_global_rows);
    EXPECT_EQ(2 * c.local_window, 128);
}

TEST(ConfigTest, BlockRatiosMatchSection51)
{
    // Stored blocks per interior block row: 2w/B + 1 fully-dense plus 2
    // partial; the paper quotes sparse:dense 1:3 (Longformer) vs 2:1 (QDS).
    const auto ratio = [](const ModelConfig &c) {
        CompoundPattern p;
        p.seq_len = c.max_seq_len;
        p.atoms.push_back(AtomicPattern::local(c.local_window));
        const SlicePlan plan = slice_and_dice(p, {.block = c.block});
        index_t dense = 0, sparse = 0;
        const BsrLayout &l = *plan.coarse;
        for (index_t b = 0; b < l.nnz_blocks(); ++b) {
            if (l.block_valid_count(b) == l.block * l.block) {
                ++dense;
            } else {
                ++sparse;
            }
        }
        return static_cast<double>(sparse) / static_cast<double>(dense);
    };
    EXPECT_LT(ratio(ModelConfig::longformer_large()), 0.6);  // ~1:3.
    EXPECT_GT(ratio(ModelConfig::qds_base()), 1.4);          // ~2:1.
}

TEST(ConfigTest, BigBirdPatternHasBlockedAtomsAndGlobals)
{
    const ModelConfig c = ModelConfig::bigbird_etc_base();
    EXPECT_EQ(c.family, PatternFamily::kBigBird);
    Rng rng(40);
    const WorkloadSample s = sample_for_model(rng, c);
    const CompoundPattern p = build_model_pattern(c, s);
    bool blocked_local = false, blocked_random = false, global = false;
    for (const auto &atom : p.atoms) {
        blocked_local |= atom.kind == AtomicKind::kBlockedLocal;
        blocked_random |= atom.kind == AtomicKind::kBlockedRandom;
        global |= atom.kind == AtomicKind::kGlobal;
    }
    EXPECT_TRUE(blocked_local);
    EXPECT_TRUE(blocked_random);
    EXPECT_TRUE(global);
    // Random block draws are input dependent: different samples differ.
    const WorkloadSample s2 = sample_for_model(rng, c);
    ASSERT_NE(s.valid_len, s2.valid_len);
    const SlicePlan a = slice_and_dice(p, {.block = c.block});
    const SlicePlan b =
        slice_and_dice(build_model_pattern(c, s2), {.block = c.block});
    EXPECT_NE(a.coarse->nnz_blocks(), b.coarse->nnz_blocks());
}

TEST(ConfigTest, PoolingformerPatternIsTwoLevelWindow)
{
    const ModelConfig c = ModelConfig::poolingformer_base();
    Rng rng(41);
    const CompoundPattern p =
        build_model_pattern(c, sample_for_model(rng, c));
    ASSERT_EQ(p.atoms.size(), 2u);
    EXPECT_EQ(p.atoms[0].kind, AtomicKind::kLocal);
    EXPECT_EQ(p.atoms[1].kind, AtomicKind::kDilated);
    // Second level reaches far beyond the sliding window.
    EXPECT_GT(c.dilated_window * c.dilated_stride, 2 * c.local_window);
}

TEST(ConfigTest, ExtraModelsSliceCleanly)
{
    for (const ModelConfig &c : {ModelConfig::bigbird_etc_base(),
                                 ModelConfig::poolingformer_base()}) {
        Rng rng(42);
        const CompoundPattern p =
            build_model_pattern(c, sample_for_model(rng, c));
        const SlicePlan plan = slice_and_dice(p, {.block = c.block});
        plan.validate_partition();
        EXPECT_TRUE(plan.has_coarse()) << c.name;
        EXPECT_TRUE(plan.has_fine()) << c.name;
    }
}

// ------------------------------------------------------------ workload ----

TEST(WorkloadTest, SamplesAreDeterministic)
{
    const ModelConfig c = ModelConfig::longformer_large();
    Rng a(5), b(5);
    const WorkloadSample sa = sample_hotpotqa(a, c);
    const WorkloadSample sb = sample_hotpotqa(b, c);
    EXPECT_EQ(sa.valid_len, sb.valid_len);
    EXPECT_EQ(sa.special_tokens, sb.special_tokens);
}

TEST(WorkloadTest, HotpotqaSamplesWithinBounds)
{
    const ModelConfig c = ModelConfig::longformer_large();
    Rng rng(6);
    for (int i = 0; i < 50; ++i) {
        const WorkloadSample s = sample_hotpotqa(rng, c);
        EXPECT_GT(s.valid_len, 0);
        EXPECT_LE(s.valid_len, c.max_seq_len);
        EXPECT_FALSE(s.special_tokens.empty());
        EXPECT_LT(s.special_tokens.size(), 200u);
        for (const index_t t : s.special_tokens) {
            EXPECT_GE(t, 0);
            EXPECT_LT(t, s.valid_len);
        }
    }
}

TEST(WorkloadTest, MarcoHasDenserSeparators)
{
    // QDS attends a separator per sentence: more special tokens per token
    // of document than Longformer's paragraph markers.
    Rng rng(7);
    const WorkloadSample lf =
        sample_hotpotqa(rng, ModelConfig::longformer_large());
    const WorkloadSample ms = sample_msmarco(rng, ModelConfig::qds_base());
    const double lf_density =
        static_cast<double>(lf.special_tokens.size()) /
        static_cast<double>(lf.valid_len);
    const double ms_density =
        static_cast<double>(ms.special_tokens.size()) /
        static_cast<double>(ms.valid_len);
    EXPECT_GT(ms_density, lf_density);
}

TEST(WorkloadTest, ModelPatternHasExpectedAtoms)
{
    const ModelConfig lf = ModelConfig::longformer_large();
    Rng rng(8);
    const WorkloadSample s = sample_for_model(rng, lf);
    const CompoundPattern p = build_model_pattern(lf, s);
    ASSERT_EQ(p.atoms.size(), 3u);  // local + selected + global.
    EXPECT_EQ(p.atoms[0].kind, AtomicKind::kLocal);
    EXPECT_EQ(p.atoms[1].kind, AtomicKind::kSelected);
    EXPECT_EQ(p.atoms[2].kind, AtomicKind::kGlobal);
    EXPECT_EQ(p.valid_len, s.valid_len);

    const CompoundPattern q = build_model_pattern(
        ModelConfig::qds_base(),
        sample_for_model(rng, ModelConfig::qds_base()));
    ASSERT_EQ(q.atoms.size(), 2u);  // local + selected.
}

// -------------------------------------------------------------- runner ----

TEST(RunnerTest, EndToEndProducesLayeredTimeline)
{
    const ModelConfig c = ModelConfig::qds_base();
    Rng rng(12);
    const WorkloadSample s = sample_for_model(rng, c);
    const TransformerRunner runner(c, SliceMode::kMultigrain, s, 1);
    const EndToEndResult r = runner.simulate(sim::DeviceSpec::a100());
    EXPECT_GT(r.total_us, 0);
    EXPECT_GT(r.attention_us, 0);
    EXPECT_LT(r.attention_us, r.total_us);
    EXPECT_GT(r.dram_bytes, r.attention_dram_bytes);
    // One QKV GEMM per layer present in the timeline.
    int qkv = 0;
    for (const auto &k : r.sim.kernels) {
        qkv += k.name.find("gemm.qkv") != std::string::npos;
    }
    EXPECT_EQ(qkv, static_cast<int>(c.num_layers));
}

TEST(RunnerTest, DenseWorkIdenticalAcrossMethods)
{
    const ModelConfig c = ModelConfig::qds_base();
    Rng rng(13);
    const WorkloadSample s = sample_for_model(rng, c);
    const auto dense_flops = [&](SliceMode mode) {
        const TransformerRunner runner(c, mode, s, 1);
        const EndToEndResult r = runner.simulate(sim::DeviceSpec::a100());
        double flops = 0;
        for (const auto &k : r.sim.kernels) {
            if (k.name.find("gemm.") != std::string::npos) {
                flops += k.work.tensor_flops;
            }
        }
        return flops;
    };
    EXPECT_DOUBLE_EQ(dense_flops(SliceMode::kMultigrain),
                     dense_flops(SliceMode::kFineOnly));
    EXPECT_DOUBLE_EQ(dense_flops(SliceMode::kMultigrain),
                     dense_flops(SliceMode::kCoarseOnly));
}

TEST(RunnerTest, TrainingStepExtendsForward)
{
    const ModelConfig c = ModelConfig::qds_base();
    Rng rng(18);
    const WorkloadSample s = sample_for_model(rng, c);
    const TransformerRunner runner(c, SliceMode::kMultigrain, s, 1);
    const EndToEndResult fwd = runner.simulate(sim::DeviceSpec::a100());
    const EndToEndResult step =
        runner.simulate_training(sim::DeviceSpec::a100());
    // A step costs roughly 3x a forward pass (backward dense GEMMs are 2x
    // and the attention backward is ~2-3x the forward attention).
    EXPECT_GT(step.total_us, 2.0 * fwd.total_us);
    EXPECT_LT(step.total_us, 4.5 * fwd.total_us);
    // The backward attention kernels are present.
    bool saw_dv = false, saw_softmax_bwd = false;
    for (const auto &k : step.sim.kernels) {
        saw_dv |= k.name.find("spmm_t.dv") != std::string::npos;
        saw_softmax_bwd |= k.name.find("bwd.softmax") != std::string::npos;
    }
    EXPECT_TRUE(saw_dv);
    EXPECT_TRUE(saw_softmax_bwd);
}

TEST(RunnerTest, MultigrainWinsTrainingToo)
{
    const ModelConfig c = ModelConfig::qds_base();
    Rng rng(19);
    const WorkloadSample s = sample_for_model(rng, c);
    const double mg = TransformerRunner(c, SliceMode::kMultigrain, s, 2)
                          .simulate_training(sim::DeviceSpec::a100())
                          .total_us;
    const double tr = TransformerRunner(c, SliceMode::kCoarseOnly, s, 2)
                          .simulate_training(sim::DeviceSpec::a100())
                          .total_us;
    EXPECT_LT(mg, tr);
}

TEST(RunnerTest, BatchScalesAttentionWork)
{
    const ModelConfig c = ModelConfig::qds_base();
    Rng rng(14);
    const WorkloadSample s = sample_for_model(rng, c);
    const TransformerRunner b1(c, SliceMode::kMultigrain, s, 1);
    const TransformerRunner b2(c, SliceMode::kMultigrain, s, 2);
    const EndToEndResult r1 = b1.simulate(sim::DeviceSpec::a100());
    const EndToEndResult r2 = b2.simulate(sim::DeviceSpec::a100());
    EXPECT_NEAR(r2.attention_dram_bytes, 2 * r1.attention_dram_bytes,
                0.01 * r1.attention_dram_bytes);
    EXPECT_GT(r2.total_us, r1.total_us);
    EXPECT_LT(r2.total_us, 2 * r1.total_us);  // Better utilization.
}

}  // namespace
}  // namespace multigrain
