// Unit tests for src/patterns: atomic pattern semantics, compound unions,
// zero-padding clipping, determinism, and the evaluation presets.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "formats/convert.h"
#include "patterns/pattern.h"
#include "patterns/presets.h"
#include "patterns/slice.h"

namespace multigrain {
namespace {

std::vector<index_t>
row_columns(const AtomicPattern &atom, index_t seq, index_t valid,
            index_t row)
{
    std::vector<ColumnInterval> intervals;
    atom.append_row_intervals(seq, valid, row, intervals);
    std::vector<index_t> cols;
    append_columns(intervals, cols);
    return cols;
}

// --------------------------------------------------------------- local ----

TEST(LocalPatternTest, InteriorRowGetsFullWindow)
{
    const AtomicPattern p = AtomicPattern::local(3);
    const auto cols = row_columns(p, 32, 32, 10);
    ASSERT_EQ(cols.size(), 7u);
    EXPECT_EQ(cols.front(), 7);
    EXPECT_EQ(cols.back(), 13);
}

TEST(LocalPatternTest, EdgeRowsAreClipped)
{
    const AtomicPattern p = AtomicPattern::local(3);
    EXPECT_EQ(row_columns(p, 32, 32, 0).size(), 4u);   // 0..3.
    EXPECT_EQ(row_columns(p, 32, 32, 31).size(), 4u);  // 28..31.
}

TEST(LocalPatternTest, WindowZeroIsDiagonal)
{
    const AtomicPattern p = AtomicPattern::local(0);
    const auto cols = row_columns(p, 8, 8, 5);
    ASSERT_EQ(cols.size(), 1u);
    EXPECT_EQ(cols[0], 5);
}

TEST(LocalPatternTest, PaddedRowsAndColumnsExcluded)
{
    const AtomicPattern p = AtomicPattern::local(4);
    EXPECT_TRUE(row_columns(p, 32, 16, 20).empty());  // Padded row.
    const auto cols = row_columns(p, 32, 16, 14);     // Near padding.
    EXPECT_EQ(cols.back(), 15);                       // Clipped at valid.
}

// ------------------------------------------------------------- dilated ----

TEST(DilatedPatternTest, StridePlacesColumns)
{
    const AtomicPattern p = AtomicPattern::dilated(2, 3);
    const auto cols = row_columns(p, 32, 32, 10);
    const std::vector<index_t> expected = {4, 7, 10, 13, 16};
    EXPECT_EQ(cols, expected);
}

TEST(DilatedPatternTest, IncludesSelfEvenAtEdges)
{
    const AtomicPattern p = AtomicPattern::dilated(2, 5);
    const auto cols = row_columns(p, 16, 16, 0);
    ASSERT_FALSE(cols.empty());
    EXPECT_EQ(cols.front(), 0);
    EXPECT_EQ(cols.back(), 10);
}

// ----------------------------------------------------- global/selected ----

TEST(GlobalPatternTest, TokenRowsAreDense)
{
    const AtomicPattern p = AtomicPattern::global({3, 5});
    EXPECT_EQ(row_columns(p, 16, 16, 3).size(), 16u);
    EXPECT_EQ(row_columns(p, 16, 16, 5).size(), 16u);
    EXPECT_TRUE(row_columns(p, 16, 16, 4).empty());
}

TEST(GlobalPatternTest, DenseRowsClippedToValidLen)
{
    const AtomicPattern p = AtomicPattern::global({3});
    EXPECT_EQ(row_columns(p, 16, 10, 3).size(), 10u);
}

TEST(SelectedPatternTest, EveryRowGetsTokenColumns)
{
    const AtomicPattern p = AtomicPattern::selected({2, 9, 7});
    const auto cols = row_columns(p, 16, 16, 0);
    const std::vector<index_t> expected = {2, 7, 9};
    EXPECT_EQ(cols, expected);
    EXPECT_EQ(row_columns(p, 16, 16, 15), expected);
}

TEST(SelectedPatternTest, TokensBeyondValidLenDropped)
{
    const AtomicPattern p = AtomicPattern::selected({2, 12});
    const auto cols = row_columns(p, 16, 8, 0);
    ASSERT_EQ(cols.size(), 1u);
    EXPECT_EQ(cols[0], 2);
}

TEST(SelectedPatternTest, ConstructorSortsAndDedupes)
{
    const AtomicPattern p = AtomicPattern::selected({9, 2, 9});
    ASSERT_EQ(p.tokens.size(), 2u);
    EXPECT_EQ(p.tokens[0], 2);
}

// -------------------------------------------------------------- random ----

TEST(RandomPatternTest, DeterministicPerRow)
{
    const AtomicPattern p = AtomicPattern::random(10, 77);
    EXPECT_EQ(row_columns(p, 128, 128, 5), row_columns(p, 128, 128, 5));
    // Row order does not matter: computing row 100 first changes nothing.
    const auto a = row_columns(p, 128, 128, 100);
    row_columns(p, 128, 128, 3);
    EXPECT_EQ(row_columns(p, 128, 128, 100), a);
}

TEST(RandomPatternTest, MeanCountIsRespected)
{
    const AtomicPattern p = AtomicPattern::random(20, 123);
    index_t total = 0;
    const index_t rows = 256;
    for (index_t r = 0; r < rows; ++r) {
        total += static_cast<index_t>(row_columns(p, 512, 512, r).size());
    }
    const double mean = static_cast<double>(total) / rows;
    EXPECT_NEAR(mean, 20.0, 2.0);
}

TEST(RandomPatternTest, RowCountsVary)
{
    // The Bernoulli draws must produce per-row variation (the imbalance
    // stressor); identical counts on every row would be a regression.
    const AtomicPattern p = AtomicPattern::random(16, 9);
    std::set<std::size_t> sizes;
    for (index_t r = 0; r < 64; ++r) {
        sizes.insert(row_columns(p, 512, 512, r).size());
    }
    EXPECT_GT(sizes.size(), 3u);
}

TEST(RandomPatternTest, DifferentSeedsDiffer)
{
    const AtomicPattern a = AtomicPattern::random(10, 1);
    const AtomicPattern b = AtomicPattern::random(10, 2);
    EXPECT_NE(row_columns(a, 256, 256, 0), row_columns(b, 256, 256, 0));
}

// ------------------------------------------------------------- blocked ----

TEST(BlockedLocalTest, BlocksAreFullyDense)
{
    const AtomicPattern p = AtomicPattern::blocked_local(8, 1);
    const auto cols = row_columns(p, 64, 64, 20);  // Block row 2.
    ASSERT_EQ(cols.size(), 24u);                   // Blocks 1, 2, 3.
    EXPECT_EQ(cols.front(), 8);
    EXPECT_EQ(cols.back(), 31);
}

TEST(BlockedLocalTest, RowsInSameBlockRowMatch)
{
    const AtomicPattern p = AtomicPattern::blocked_local(8, 1);
    EXPECT_EQ(row_columns(p, 64, 64, 16), row_columns(p, 64, 64, 23));
}

TEST(BlockedLocalTest, WindowZeroIsBlockDiagonal)
{
    const AtomicPattern p = AtomicPattern::blocked_local(8, 0);
    const auto cols = row_columns(p, 64, 64, 9);
    ASSERT_EQ(cols.size(), 8u);
    EXPECT_EQ(cols.front(), 8);
}

TEST(BlockedRandomTest, ConsistentWithinBlockRowAndSeeded)
{
    const AtomicPattern p = AtomicPattern::blocked_random(8, 3, 55);
    EXPECT_EQ(row_columns(p, 128, 128, 8), row_columns(p, 128, 128, 15));
    // Columns come in whole blocks.
    const auto cols = row_columns(p, 128, 128, 8);
    EXPECT_EQ(cols.size() % 8, 0u);
}

TEST(BlockedRandomTest, MeanBlockCountRespected)
{
    const AtomicPattern p = AtomicPattern::blocked_random(8, 4, 99);
    index_t blocks_total = 0;
    for (index_t br = 0; br < 64; ++br) {
        blocks_total += static_cast<index_t>(
            row_columns(p, 512, 512, br * 8).size() / 8);
    }
    EXPECT_NEAR(static_cast<double>(blocks_total) / 64.0, 4.0, 1.0);
}

// ------------------------------------------------------------ compound ----

TEST(CompoundTest, FullLayoutIsUnionOfAtoms)
{
    CompoundPattern p;
    p.seq_len = 64;
    p.atoms.push_back(AtomicPattern::local(2));
    p.atoms.push_back(AtomicPattern::selected({10, 40}));
    const CsrLayout full = build_full_layout(p);
    full.validate();
    const MaskMatrix mask = mask_from_csr(full);
    // Selected columns present everywhere, local band around diagonal.
    for (index_t r = 0; r < 64; ++r) {
        EXPECT_TRUE(mask.at(r, 10));
        EXPECT_TRUE(mask.at(r, 40));
        EXPECT_TRUE(mask.at(r, r));
    }
    EXPECT_TRUE(mask.at(20, 22));
    EXPECT_FALSE(mask.at(20, 25));
}

TEST(CompoundTest, GlobalRowsDenseInFullLayout)
{
    CompoundPattern p;
    p.seq_len = 32;
    p.atoms.push_back(AtomicPattern::local(1));
    p.atoms.push_back(AtomicPattern::global({5}));
    const CsrLayout full = build_full_layout(p);
    EXPECT_EQ(full.row_nnz(5), 32);
    EXPECT_EQ(full.row_nnz(6), 3);
}

TEST(CompoundTest, ValidLenClipsEverything)
{
    CompoundPattern p;
    p.seq_len = 32;
    p.valid_len = 20;
    p.atoms.push_back(AtomicPattern::local(4));
    p.atoms.push_back(AtomicPattern::global({5}));
    const CsrLayout full = build_full_layout(p);
    EXPECT_EQ(full.row_nnz(5), 20);
    for (index_t r = 20; r < 32; ++r) {
        EXPECT_EQ(full.row_nnz(r), 0) << "padded row " << r;
    }
    for (const index_t c : full.col_indices) {
        EXPECT_LT(c, 20);
    }
}

TEST(CompoundTest, NegativeSpecialTokensAreRejected)
{
    EXPECT_THROW(AtomicPattern::selected({-3, 10}), Error);
    EXPECT_THROW(AtomicPattern::global({-1, 4}), Error);
    // A hand-built atom slips past the factories; validate() and every
    // entry point that materializes the pattern still reject it.
    CompoundPattern p;
    p.seq_len = 128;
    p.atoms.push_back(AtomicPattern::local(4));
    p.atoms.push_back(AtomicPattern::selected({10}));
    p.atoms.back().tokens = {-3, 10};
    EXPECT_THROW(p.validate(), Error);
    EXPECT_THROW(build_full_layout(p), Error);
    for (const SliceMode mode :
         {SliceMode::kMultigrain, SliceMode::kCoarseOnly,
          SliceMode::kFineOnly, SliceMode::kDense}) {
        EXPECT_THROW(slice_and_dice(p, {.block = 16, .mode = mode}), Error)
            << to_string(mode);
    }
}

TEST(CompoundTest, ValidateRejectsMalformedAtoms)
{
    const auto with = [](void (*edit)(AtomicPattern &)) {
        CompoundPattern p;
        p.seq_len = 64;
        p.atoms.push_back(AtomicPattern::local(2));
        edit(p.atoms.back());
        return p;
    };
    EXPECT_NO_THROW(with([](AtomicPattern &) {}).validate());
    EXPECT_THROW(with([](AtomicPattern &a) { a.window = -1; }).validate(),
                 Error);
    EXPECT_THROW(with([](AtomicPattern &a) { a.stride = 0; }).validate(),
                 Error);
    EXPECT_THROW(with([](AtomicPattern &a) { a.block = 0; }).validate(),
                 Error);
    EXPECT_THROW(with([](AtomicPattern &a) { a.tokens = {64}; }).validate(),
                 Error);
    EXPECT_THROW(
        with([](AtomicPattern &a) { a.tokens = {5, 3}; }).validate(), Error);
}

TEST(CompoundTest, DescribeMentionsEveryAtom)
{
    CompoundPattern p;
    p.seq_len = 64;
    p.atoms.push_back(AtomicPattern::local(3));
    p.atoms.push_back(AtomicPattern::random(5, 1));
    const std::string desc = p.describe();
    EXPECT_NE(desc.find("local"), std::string::npos);
    EXPECT_NE(desc.find("random"), std::string::npos);
}

TEST(CompoundTest, ClassifierFlagsMatchPaperTable)
{
    EXPECT_TRUE(AtomicPattern::local(1).is_coarse());
    EXPECT_TRUE(AtomicPattern::blocked_local(8, 1).is_coarse());
    EXPECT_TRUE(AtomicPattern::blocked_random(8, 1, 1).is_coarse());
    EXPECT_FALSE(AtomicPattern::random(1, 1).is_coarse());
    EXPECT_FALSE(AtomicPattern::selected({0}).is_coarse());
    EXPECT_FALSE(AtomicPattern::dilated(1, 2).is_coarse());
    EXPECT_FALSE(AtomicPattern::global({0}).is_coarse());
    EXPECT_TRUE(AtomicPattern::global({0}).is_special());
    EXPECT_FALSE(AtomicPattern::local(1).is_special());
}

// ------------------------------------------------------------- presets ----

TEST(PresetsTest, Fig9PatternsHitTargetDensity)
{
    const index_t seq = 1024;
    const double density = 0.05;
    for (const auto &[label, pattern] : fig9_patterns(seq, density, 42)) {
        const CsrLayout full = build_full_layout(pattern);
        const double actual =
            static_cast<double>(full.nnz()) /
            (static_cast<double>(seq) * static_cast<double>(seq));
        // Global rows push density a little above the row budget.
        EXPECT_GT(actual, density * 0.6) << label;
        EXPECT_LT(actual, density * 2.0) << label;
    }
}

TEST(PresetsTest, Fig9OrderMatchesPaper)
{
    const auto patterns = fig9_patterns(512, 0.05, 1);
    ASSERT_EQ(patterns.size(), 5u);
    EXPECT_EQ(patterns[0].label, "L+S");
    EXPECT_EQ(patterns[3].label, "L+S+G");
    EXPECT_EQ(patterns[4].label, "LB+R+G");
}

TEST(PresetsTest, Fig11PatternsAreCoarseOnly)
{
    for (const auto &[label, pattern] : fig11_patterns(512, 3)) {
        for (const auto &atom : pattern.atoms) {
            EXPECT_TRUE(atom.is_coarse()) << label;
        }
    }
}

TEST(PresetsTest, SpreadTokensSortedUniqueInRange)
{
    const auto tokens = spread_tokens(1000, 50, 7);
    EXPECT_GE(tokens.size(), 45u);
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        EXPECT_GE(tokens[i], 0);
        EXPECT_LT(tokens[i], 1000);
        if (i > 0) {
            EXPECT_LT(tokens[i - 1], tokens[i]);
        }
    }
}

TEST(PresetsTest, FactoriesRejectBadArguments)
{
    EXPECT_THROW(AtomicPattern::local(-1), Error);
    EXPECT_THROW(AtomicPattern::dilated(1, 0), Error);
    EXPECT_THROW(AtomicPattern::blocked_local(0, 1), Error);
    EXPECT_THROW(AtomicPattern::clustered_random(0, 1, 1, 1), Error);
    EXPECT_THROW(preset_local_selected(512, 0.0, 1), Error);
}

// ----------------------------------------------------- clustered random ----

TEST(ClusteredRandomTest, ElementsConfinedToPerBlockRowClusters)
{
    const AtomicPattern p = AtomicPattern::clustered_random(16, 2, 8, 5);
    // All rows of a block row draw inside the same <= 2 block columns.
    for (index_t br = 0; br < 8; ++br) {
        std::set<index_t> blocks;
        for (index_t r = br * 16; r < (br + 1) * 16; ++r) {
            for (const index_t c : row_columns(p, 256, 256, r)) {
                blocks.insert(c / 16);
            }
        }
        EXPECT_LE(blocks.size(), 2u) << "block row " << br;
    }
}

TEST(ClusteredRandomTest, MeanCountRespected)
{
    const AtomicPattern p = AtomicPattern::clustered_random(32, 3, 12, 17);
    index_t total = 0;
    const index_t rows = 512;
    for (index_t r = 0; r < rows; ++r) {
        total += static_cast<index_t>(row_columns(p, 1024, 1024, r).size());
    }
    EXPECT_NEAR(static_cast<double>(total) / rows, 12.0, 2.0);
}

TEST(ClusteredRandomTest, DeterministicAndRowOrderIndependent)
{
    const AtomicPattern p = AtomicPattern::clustered_random(16, 2, 6, 3);
    const auto a = row_columns(p, 256, 256, 200);
    row_columns(p, 256, 256, 7);  // Unrelated draw in between.
    EXPECT_EQ(row_columns(p, 256, 256, 200), a);
}

TEST(ClusteredRandomTest, ClassifiedFineGrained)
{
    EXPECT_FALSE(AtomicPattern::clustered_random(16, 2, 6, 3).is_coarse());
    EXPECT_FALSE(AtomicPattern::clustered_random(16, 2, 6, 3).is_special());
}

TEST(ClusteredRandomTest, RespectsValidLen)
{
    const AtomicPattern p = AtomicPattern::clustered_random(16, 8, 32, 9);
    for (const index_t c : row_columns(p, 256, 100, 10)) {
        EXPECT_LT(c, 100);
    }
    EXPECT_TRUE(row_columns(p, 256, 100, 150).empty());  // Padded row.
}

TEST(ClusteredRandomTest, BoundsBlockificationUnlikePureRandom)
{
    // The motivating property: blockifying a clustered-random pattern
    // stores a bounded number of blocks per block row, while pure random
    // of the same density covers nearly every block.
    CompoundPattern clustered, pure;
    clustered.seq_len = pure.seq_len = 512;
    clustered.atoms.push_back(
        AtomicPattern::clustered_random(64, 2, 16, 7));
    pure.atoms.push_back(AtomicPattern::random(16, 7));
    const BsrLayout bc = bsr_from_csr(build_full_layout(clustered), 64);
    const BsrLayout bp = bsr_from_csr(build_full_layout(pure), 64);
    EXPECT_LE(bc.nnz_blocks(), 2 * bc.block_rows());
    EXPECT_GT(bp.nnz_blocks(), 3 * bc.nnz_blocks());
}

// --------------------------------------------------------------- causal ----

TEST(CausalTest, LayoutNeverLooksAhead)
{
    CompoundPattern p;
    p.seq_len = 64;
    p.causal = true;
    p.atoms.push_back(AtomicPattern::local(8));
    p.atoms.push_back(AtomicPattern::random(6, 4));
    const CsrLayout full = build_full_layout(p);
    full.validate();
    for (index_t r = 0; r < 64; ++r) {
        for (index_t i = full.row_offsets[static_cast<std::size_t>(r)];
             i < full.row_offsets[static_cast<std::size_t>(r + 1)]; ++i) {
            EXPECT_LE(full.col_indices[static_cast<std::size_t>(i)], r);
        }
    }
    // Every row still attends at least itself.
    for (index_t r = 0; r < 64; ++r) {
        EXPECT_GE(full.row_nnz(r), 1) << "row " << r;
    }
}

TEST(CausalTest, GlobalAtomsRejected)
{
    CompoundPattern p;
    p.seq_len = 32;
    p.causal = true;
    p.atoms.push_back(AtomicPattern::global({3}));
    EXPECT_THROW(build_full_layout(p), Error);
}

TEST(CausalTest, DescribeMentionsCausality)
{
    CompoundPattern p;
    p.seq_len = 32;
    p.causal = true;
    p.atoms.push_back(AtomicPattern::local(2));
    EXPECT_NE(p.describe().find("causal"), std::string::npos);
}

/// Sparse Transformer (Child et al.) decoder patterns. "Strided": a
/// causal local window of `stride` plus every stride-th earlier position.
/// "Fixed": causal blocks of width `stride` plus the trailing
/// `summary_cols` columns of every block.
CompoundPattern
sparse_transformer_strided(index_t seq_len, index_t stride)
{
    CompoundPattern p;
    p.seq_len = seq_len;
    p.causal = true;
    p.atoms.push_back(AtomicPattern::local(stride));
    p.atoms.push_back(AtomicPattern::dilated(seq_len / stride, stride));
    return p;
}

CompoundPattern
sparse_transformer_fixed(index_t seq_len, index_t stride,
                         index_t summary_cols)
{
    CompoundPattern p;
    p.seq_len = seq_len;
    p.causal = true;
    p.atoms.push_back(AtomicPattern::blocked_local(stride, 0));
    std::vector<index_t> summaries;
    for (index_t b = stride; b <= seq_len; b += stride) {
        for (index_t s = 0; s < summary_cols; ++s) {
            summaries.push_back(b - 1 - s);
        }
    }
    p.atoms.push_back(AtomicPattern::selected(std::move(summaries)));
    return p;
}

TEST(CausalTest, SparseTransformerStridedShape)
{
    const CompoundPattern p = sparse_transformer_strided(64, 8);
    const CsrLayout full = build_full_layout(p);
    // Row 40 attends its window [32, 40] and the strided history
    // positions 0, 8, 16, 24, 32, 40.
    const MaskMatrix mask = mask_from_csr(full);
    EXPECT_TRUE(mask.at(40, 40));
    EXPECT_TRUE(mask.at(40, 33));
    EXPECT_TRUE(mask.at(40, 16));
    EXPECT_TRUE(mask.at(40, 0));
    EXPECT_FALSE(mask.at(40, 20));  // Neither window nor stride.
    EXPECT_FALSE(mask.at(40, 48));  // Future.
}

TEST(CausalTest, SparseTransformerFixedShape)
{
    const CompoundPattern p = sparse_transformer_fixed(64, 16, 2);
    const CsrLayout full = build_full_layout(p);
    const MaskMatrix mask = mask_from_csr(full);
    // Row 40 (block 2) attends inside its block up to itself...
    EXPECT_TRUE(mask.at(40, 32));
    EXPECT_TRUE(mask.at(40, 40));
    EXPECT_FALSE(mask.at(40, 41));  // Future inside block.
    // ...and the summary columns 14, 15 and 30, 31 of earlier blocks.
    EXPECT_TRUE(mask.at(40, 15));
    EXPECT_TRUE(mask.at(40, 14));
    EXPECT_TRUE(mask.at(40, 31));
    EXPECT_FALSE(mask.at(40, 13));
}

TEST(CausalTest, SlicesAndValidates)
{
    const CompoundPattern p = sparse_transformer_strided(128, 16);
    for (const SliceMode mode :
         {SliceMode::kMultigrain, SliceMode::kCoarseOnly,
          SliceMode::kFineOnly}) {
        SliceOptions options;
        options.block = 16;
        options.mode = mode;
        const SlicePlan plan = slice_and_dice(p, options);
        ASSERT_NO_THROW(plan.validate_partition()) << to_string(mode);
    }
}

// --------------------------------------------------------- burst tokens ----

TEST(BurstTokensTest, ProducesRequestedCountInBursts)
{
    const auto tokens = burst_tokens(1024, 40, 4, 11);
    EXPECT_GE(tokens.size(), 35u);
    EXPECT_LE(tokens.size(), 40u);
    // Tokens should concentrate into few 64-blocks relative to spread.
    std::set<index_t> burst_blocks, spread_blocks;
    for (const index_t t : tokens) {
        burst_blocks.insert(t / 64);
    }
    for (const index_t t : spread_tokens(1024, 40, 11)) {
        spread_blocks.insert(t / 64);
    }
    EXPECT_LT(burst_blocks.size(), spread_blocks.size());
}

TEST(BurstTokensTest, SortedUniqueWithinRange)
{
    const auto tokens = burst_tokens(512, 30, 5, 3);
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        EXPECT_GE(tokens[i], 0);
        EXPECT_LT(tokens[i], 512);
        if (i > 0) {
            EXPECT_LT(tokens[i - 1], tokens[i]);
        }
    }
}

TEST(BurstTokensTest, BurstOfOneMatchesSpreadCardinality)
{
    EXPECT_EQ(burst_tokens(256, 16, 1, 5).size(),
              spread_tokens(256, 16, 5).size());
}

}  // namespace
}  // namespace multigrain
