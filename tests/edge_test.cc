// Edge cases across the stack: degenerate sequences, odd shapes, empty
// parts, contract violations — the inputs a downstream user will
// eventually feed the library.

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/attention.h"
#include "core/lint.h"
#include "gpusim/device.h"
#include "kernels/reference.h"
#include "patterns/slice.h"

namespace multigrain {
namespace {

TEST(EdgeTest, SingleBlockSequence)
{
    CompoundPattern p;
    p.seq_len = 16;  // Exactly one block.
    p.atoms.push_back(AtomicPattern::local(16));  // Fully dense.
    AttentionConfig config;
    config.head_dim = 8;
    config.block = 16;
    Rng rng(1);
    const HalfMatrix q = random_half_matrix(rng, 16, 8, -0.5f, 0.5f);
    const HalfMatrix k = random_half_matrix(rng, 16, 8, -0.5f, 0.5f);
    const HalfMatrix v = random_half_matrix(rng, 16, 8, -0.5f, 0.5f);
    for (const SliceMode mode :
         {SliceMode::kMultigrain, SliceMode::kCoarseOnly,
          SliceMode::kFineOnly, SliceMode::kDense}) {
        const AttentionEngine engine(p, config, mode);
        const DoubleMatrix ref = kernels::ref_attention(
            q, k, v, build_full_layout(engine.plan().pattern),
            config.effective_scale());
        EXPECT_LT(kernels::max_abs_diff(widen(engine.run(q, k, v)), ref),
                  0.03)
            << to_string(mode);
        EXPECT_GT(engine.simulate(sim::DeviceSpec::a100()).total_us, 0);
    }
}

TEST(EdgeTest, MostlyPaddedSequence)
{
    CompoundPattern p;
    p.seq_len = 128;
    p.valid_len = 5;  // Almost everything is padding.
    p.atoms.push_back(AtomicPattern::local(8));
    AttentionConfig config;
    config.head_dim = 8;
    config.block = 16;
    Rng rng(2);
    const HalfMatrix q = random_half_matrix(rng, 128, 8);
    const HalfMatrix k = random_half_matrix(rng, 128, 8);
    const HalfMatrix v = random_half_matrix(rng, 128, 8);
    const AttentionEngine engine(p, config, SliceMode::kMultigrain);
    const HalfMatrix out = engine.run(q, k, v);
    for (index_t r = 5; r < 128; ++r) {
        for (index_t d = 0; d < 8; ++d) {
            EXPECT_EQ(float(out.at(r, d)), 0.0f);
        }
    }
    // Rows 0..4 still normalize properly.
    const DoubleMatrix ref = kernels::ref_attention(
        q, k, v, build_full_layout(engine.plan().pattern),
        config.effective_scale());
    EXPECT_LT(kernels::max_abs_diff(widen(out), ref), 0.03);
}

TEST(EdgeTest, HeadDimSmallerThanBlock)
{
    CompoundPattern p;
    p.seq_len = 128;
    p.atoms.push_back(AtomicPattern::local(10));
    AttentionConfig config;
    config.head_dim = 24;  // Not a divisor or multiple of 64.
    config.block = 64;
    Rng rng(3);
    const HalfMatrix q = random_half_matrix(rng, 128, 24, -0.5f, 0.5f);
    const HalfMatrix k = random_half_matrix(rng, 128, 24, -0.5f, 0.5f);
    const HalfMatrix v = random_half_matrix(rng, 128, 24, -0.5f, 0.5f);
    const AttentionEngine engine(p, config, SliceMode::kMultigrain);
    const DoubleMatrix ref = kernels::ref_attention(
        q, k, v, build_full_layout(engine.plan().pattern),
        config.effective_scale());
    EXPECT_LT(kernels::max_abs_diff(widen(engine.run(q, k, v)), ref), 0.03);
    EXPECT_GT(engine.simulate(sim::DeviceSpec::a100()).total_us, 0);
}

TEST(EdgeTest, HeadDimLargerThanBlock)
{
    CompoundPattern p;
    p.seq_len = 64;
    p.atoms.push_back(AtomicPattern::local(6));
    AttentionConfig config;
    config.head_dim = 40;
    config.block = 16;  // head_dim spans 2.5 blocks.
    Rng rng(4);
    const HalfMatrix q = random_half_matrix(rng, 64, 40, -0.5f, 0.5f);
    const HalfMatrix k = random_half_matrix(rng, 64, 40, -0.5f, 0.5f);
    const HalfMatrix v = random_half_matrix(rng, 64, 40, -0.5f, 0.5f);
    const AttentionEngine engine(p, config, SliceMode::kMultigrain);
    const DoubleMatrix ref = kernels::ref_attention(
        q, k, v, build_full_layout(engine.plan().pattern),
        config.effective_scale());
    EXPECT_LT(kernels::max_abs_diff(widen(engine.run(q, k, v)), ref), 0.03);
}

TEST(EdgeTest, ContractViolationsThrow)
{
    CompoundPattern p;
    p.seq_len = 64;
    p.atoms.push_back(AtomicPattern::local(4));
    AttentionConfig config;
    config.head_dim = 16;
    config.block = 16;

    AttentionConfig bad = config;
    bad.batch = 0;
    EXPECT_THROW(AttentionEngine(p, bad, SliceMode::kMultigrain), Error);

    const AttentionEngine engine(p, config, SliceMode::kMultigrain);
    Rng rng(5);
    const HalfMatrix ok = random_half_matrix(rng, 64, 16);
    const HalfMatrix wrong_rows = random_half_matrix(rng, 32, 16);
    const HalfMatrix wrong_cols = random_half_matrix(rng, 64, 8);
    EXPECT_THROW(engine.run(wrong_rows, ok, ok), Error);
    EXPECT_THROW(engine.run(ok, ok, wrong_cols), Error);
    EXPECT_THROW(engine.run_backward(ok, ok, ok, wrong_cols), Error);
}

TEST(EdgeTest, ScaleOverrideIsHonored)
{
    CompoundPattern p;
    p.seq_len = 32;
    p.atoms.push_back(AtomicPattern::local(4));
    AttentionConfig config;
    config.head_dim = 8;
    config.block = 16;
    config.scale = 0.01;  // Custom scaling factor instead of 1/sqrt(d).
    Rng rng(6);
    const HalfMatrix q = random_half_matrix(rng, 32, 8);
    const HalfMatrix k = random_half_matrix(rng, 32, 8);
    const HalfMatrix v = random_half_matrix(rng, 32, 8);
    const AttentionEngine engine(p, config, SliceMode::kMultigrain);
    const DoubleMatrix ref = kernels::ref_attention(
        q, k, v, build_full_layout(engine.plan().pattern), 0.01);
    EXPECT_LT(kernels::max_abs_diff(widen(engine.run(q, k, v)), ref), 0.03);
}

TEST(EdgeTest, SelfAttentionDiagonalOnly)
{
    // window 0: every token attends only itself -> softmax gives 1 and
    // the context equals V exactly.
    CompoundPattern p;
    p.seq_len = 32;
    p.atoms.push_back(AtomicPattern::local(0));
    AttentionConfig config;
    config.head_dim = 8;
    config.block = 16;
    Rng rng(7);
    const HalfMatrix q = random_half_matrix(rng, 32, 8);
    const HalfMatrix k = random_half_matrix(rng, 32, 8);
    const HalfMatrix v = random_half_matrix(rng, 32, 8);
    const AttentionEngine engine(p, config, SliceMode::kMultigrain);
    const HalfMatrix out = engine.run(q, k, v);
    EXPECT_LT(kernels::max_abs_diff(widen(out), widen(v)), 0.01);
}

/// Tags X of the buffers `prefix`X the graph's kernels write: the parts
/// its SDDMMs score (prefix "%s.") or its dP SDDMMs differentiate
/// ("%dp.").
std::set<std::string>
written_parts(const LaunchGraph &graph, const std::string &prefix)
{
    std::set<std::string> tags;
    for (const LaunchGraphNode &node : graph.nodes()) {
        for (const sim::BufferId id : node.launch.writes) {
            const std::string name = sim::buffer_name(id);
            if (name.rfind(prefix, 0) == 0) {
                tags.insert(name.substr(prefix.size()));
            }
        }
    }
    return tags;
}

TEST(EdgeTest, EmptyPatternLaunchesNoEmptyKernel)
{
    // No attended position at all: a sparse part with no work launches
    // nothing, in either direction; only the dense baseline runs.
    CompoundPattern p;
    p.seq_len = 64;
    p.atoms.push_back(AtomicPattern::random(0, 1));
    AttentionConfig config;
    config.head_dim = 16;
    config.block = 16;
    const sim::DeviceSpec device = sim::DeviceSpec::a100();
    for (const SliceMode mode :
         {SliceMode::kMultigrain, SliceMode::kCoarseOnly,
          SliceMode::kFineOnly, SliceMode::kDense}) {
        SCOPED_TRACE(to_string(mode));
        const AttentionEngine engine(p, config, mode);
        const LaunchGraph &forward = *engine.forward_graph(device);
        const LaunchGraph &backward = *engine.backward_graph(device);
        for (const LaunchGraph *graph : {&forward, &backward}) {
            for (const LaunchGraphNode &node : graph->nodes()) {
                EXPECT_GT(node.launch.num_tbs(), 0) << node.launch.name;
            }
            LintOptions options;
            options.device = &device;
            for (const LintFinding &f : lint_graph(*graph, options).findings) {
                EXPECT_NE(f.kind, LintKind::kEmptyKernel) << f.message;
            }
        }
        EXPECT_EQ(written_parts(forward, "%s."),
                  written_parts(backward, "%dp."));
        EXPECT_EQ(forward.empty(), mode != SliceMode::kDense);
    }
}

}  // namespace
}  // namespace multigrain
