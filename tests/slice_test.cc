// Tests for the slice-and-dice classifier (paper §3.1): the partition
// property (coarse ⊎ fine ⊎ special == full pattern, no double coverage),
// mode behaviour, overlap invalidation, and the global-routing ablation.

#include <cctype>
#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/error.h"
#include "formats/convert.h"
#include "patterns/presets.h"
#include "patterns/slice.h"

namespace multigrain {
namespace {

CompoundPattern
longformer_like(index_t seq)
{
    CompoundPattern p;
    p.seq_len = seq;
    p.atoms.push_back(AtomicPattern::local(8));
    p.atoms.push_back(AtomicPattern::selected({0, 5, seq / 2, seq - 3}));
    p.atoms.push_back(AtomicPattern::global({0, 5, seq / 2, seq - 3}));
    return p;
}

TEST(SliceTest, MultigrainSplitsIntoThreeParts)
{
    const SlicePlan plan =
        slice_and_dice(longformer_like(128), {.block = 16});
    EXPECT_TRUE(plan.has_coarse());
    EXPECT_TRUE(plan.has_fine());
    EXPECT_TRUE(plan.has_special());
    EXPECT_EQ(plan.global_rows.size(), 4u);
    plan.validate_partition();
}

TEST(SliceTest, CoarseOnlyBlockifiesEverything)
{
    SliceOptions options;
    options.block = 16;
    options.mode = SliceMode::kCoarseOnly;
    const SlicePlan plan = slice_and_dice(longformer_like(128), options);
    EXPECT_TRUE(plan.has_coarse());
    EXPECT_FALSE(plan.has_fine());
    EXPECT_FALSE(plan.has_special());
    // Every valid element of the full pattern is stored in some block.
    EXPECT_EQ(plan.full, nullptr);
    EXPECT_EQ(plan.coarse->total_valid(),
              build_full_layout(plan.pattern).nnz());
    plan.validate_partition();
}

TEST(SliceTest, FineOnlyKeepsFullLayout)
{
    SliceOptions options;
    options.block = 16;
    options.mode = SliceMode::kFineOnly;
    const SlicePlan plan = slice_and_dice(longformer_like(128), options);
    EXPECT_FALSE(plan.has_coarse());
    EXPECT_TRUE(plan.has_fine());
    EXPECT_FALSE(plan.has_special());
    EXPECT_EQ(plan.fine, plan.full);
    plan.validate_partition();
}

TEST(SliceTest, OverlapBetweenCoarseAndFineInvalidated)
{
    // Selected tokens inside the local band: the fine part must not
    // duplicate elements the coarse band already owns (§3.3).
    CompoundPattern p;
    p.seq_len = 64;
    p.atoms.push_back(AtomicPattern::local(4));
    p.atoms.push_back(
        AtomicPattern::selected({10, 11, 12}));  // Near the diagonal.
    const SlicePlan plan = slice_and_dice(p, {.block = 16});
    plan.validate_partition();
    // Row 10 attends column 10 via both atoms; only the coarse part may
    // keep it, so the fine row 10 must not contain column 10.
    if (plan.has_fine()) {
        for (index_t i = plan.fine->row_offsets[10];
             i < plan.fine->row_offsets[11]; ++i) {
            EXPECT_NE(plan.fine->col_indices[static_cast<std::size_t>(i)],
                      10);
        }
    }
}

TEST(SliceTest, GlobalRowsCarvedOutOfOtherParts)
{
    const SlicePlan plan =
        slice_and_dice(longformer_like(128), {.block = 16});
    const CsrLayout coarse_csr = csr_from_bsr(*plan.coarse);
    for (const index_t g : plan.global_rows) {
        EXPECT_EQ(coarse_csr.row_nnz(g), 0) << "global row " << g;
        EXPECT_EQ(plan.fine->row_nnz(g), 0) << "global row " << g;
    }
}

TEST(SliceTest, GlobalRoutingAblationKeepsGlobalsFine)
{
    SliceOptions options;
    options.block = 16;
    options.route_global_to_dense = false;
    const SlicePlan plan = slice_and_dice(longformer_like(128), options);
    EXPECT_FALSE(plan.has_special());
    // Global row 0 is dense across coarse + fine (overlap invalidation
    // leaves the band elements with the coarse part).
    const CsrLayout coarse_csr = csr_from_bsr(*plan.coarse);
    EXPECT_EQ(plan.fine->row_nnz(0) + coarse_csr.row_nnz(0), 128);
    EXPECT_GT(plan.fine->row_nnz(0), 100);  // Most of the row stays fine.
    plan.validate_partition();
}

TEST(SliceTest, PureCoarsePatternHasNoFinePart)
{
    CompoundPattern p;
    p.seq_len = 128;
    p.atoms.push_back(AtomicPattern::local(8));
    const SlicePlan plan = slice_and_dice(p, {.block = 16});
    EXPECT_TRUE(plan.has_coarse());
    EXPECT_FALSE(plan.has_fine());
    EXPECT_FALSE(plan.has_special());
    plan.validate_partition();
}

TEST(SliceTest, PureFinePatternHasNoCoarsePart)
{
    CompoundPattern p;
    p.seq_len = 128;
    p.atoms.push_back(AtomicPattern::random(6, 3));
    const SlicePlan plan = slice_and_dice(p, {.block = 16});
    EXPECT_FALSE(plan.has_coarse());
    EXPECT_TRUE(plan.has_fine());
    plan.validate_partition();
}

TEST(SliceTest, ZeroPaddingPropagatesToParts)
{
    CompoundPattern p = longformer_like(128);
    p.valid_len = 100;
    const SlicePlan plan = slice_and_dice(p, {.block = 16});
    EXPECT_EQ(plan.valid_len, 100);
    plan.validate_partition();
    // Padded rows are empty in every part.
    const CsrLayout coarse_csr = csr_from_bsr(*plan.coarse);
    for (index_t r = 100; r < 128; ++r) {
        EXPECT_EQ(coarse_csr.row_nnz(r), 0);
        EXPECT_EQ(plan.fine->row_nnz(r), 0);
    }
    // Global tokens beyond valid_len are dropped.
    for (const index_t g : plan.global_rows) {
        EXPECT_LT(g, 100);
    }
}

TEST(SliceTest, SeqLenMustBeBlockMultiple)
{
    CompoundPattern p;
    p.seq_len = 100;
    p.atoms.push_back(AtomicPattern::local(4));
    EXPECT_THROW(slice_and_dice(p, {.block = 16}), Error);
}

TEST(SliceTest, ElementCountsAreConsistent)
{
    const SlicePlan plan =
        slice_and_dice(longformer_like(128), {.block = 16});
    EXPECT_EQ(plan.coarse_valid_elements() + plan.fine_elements() +
                  plan.special_elements(),
              build_full_layout(plan.pattern).nnz());
    EXPECT_GE(plan.coarse_stored_elements(), plan.coarse_valid_elements());
}

// Partition property across every evaluation preset and mode.
class SlicePartitionTest
    : public ::testing::TestWithParam<std::tuple<int, SliceMode>> {};

TEST_P(SlicePartitionTest, PartitionExact)
{
    const auto [pattern_idx, mode] = GetParam();
    const auto patterns = fig9_patterns(256, 0.08, 17);
    SliceOptions options;
    options.block = 64;
    options.mode = mode;
    const SlicePlan plan =
        slice_and_dice(patterns[static_cast<std::size_t>(pattern_idx)]
                           .pattern,
                       options);
    plan.validate_partition();
    EXPECT_EQ(plan.coarse_valid_elements() + plan.fine_elements() +
                  plan.special_elements(),
              build_full_layout(plan.pattern).nnz());
}

INSTANTIATE_TEST_SUITE_P(
    AllPresetsAllModes, SlicePartitionTest,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(SliceMode::kMultigrain,
                                         SliceMode::kCoarseOnly,
                                         SliceMode::kFineOnly)),
    [](const ::testing::TestParamInfo<std::tuple<int, SliceMode>> &info) {
        const auto patterns = fig9_patterns(256, 0.08, 17);
        std::string name =
            patterns[static_cast<std::size_t>(std::get<0>(info.param))]
                .label +
            std::string("_") + to_string(std::get<1>(info.param));
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c))) {
                c = '_';
            }
        }
        return name;
    });

}  // namespace
}  // namespace multigrain
