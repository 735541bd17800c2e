// Unit tests for src/formats: layout validation, conversions, round trips,
// the BSR bitmap transpose, and value gather/scatter.

#include <memory>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "formats/bcoo.h"
#include "formats/bsr.h"
#include "formats/convert.h"
#include "formats/csr.h"
#include "formats/matrix.h"

namespace multigrain {
namespace {

MaskMatrix
random_mask(Rng &rng, index_t rows, index_t cols, double density)
{
    MaskMatrix mask(rows, cols, 0);
    for (index_t r = 0; r < rows; ++r) {
        for (index_t c = 0; c < cols; ++c) {
            mask.at(r, c) = rng.next_float() < density ? 1 : 0;
        }
    }
    return mask;
}

bool
masks_equal(const MaskMatrix &a, const MaskMatrix &b)
{
    if (!a.same_shape(b)) {
        return false;
    }
    for (index_t r = 0; r < a.rows(); ++r) {
        for (index_t c = 0; c < a.cols(); ++c) {
            if ((a.at(r, c) != 0) != (b.at(r, c) != 0)) {
                return false;
            }
        }
    }
    return true;
}

// ----------------------------------------------------------------- CSR ----

TEST(CsrTest, EmptyLayoutValidates)
{
    CsrLayout l;
    l.rows = 4;
    l.cols = 4;
    l.row_offsets = {0, 0, 0, 0, 0};
    EXPECT_NO_THROW(l.validate());
    EXPECT_EQ(l.nnz(), 0);
    EXPECT_EQ(l.max_row_nnz(), 0);
}

TEST(CsrTest, RowNnzAndMax)
{
    CsrLayout l;
    l.rows = 3;
    l.cols = 8;
    l.row_offsets = {0, 2, 2, 5};
    l.col_indices = {0, 7, 1, 3, 5};
    l.validate();
    EXPECT_EQ(l.row_nnz(0), 2);
    EXPECT_EQ(l.row_nnz(1), 0);
    EXPECT_EQ(l.row_nnz(2), 3);
    EXPECT_EQ(l.max_row_nnz(), 3);
    EXPECT_EQ(l.nnz(), 5);
}

TEST(CsrTest, ValidateRejectsDescendingColumns)
{
    CsrLayout l;
    l.rows = 1;
    l.cols = 4;
    l.row_offsets = {0, 2};
    l.col_indices = {2, 1};
    EXPECT_THROW(l.validate(), Error);
}

TEST(CsrTest, ValidateRejectsOutOfRangeColumn)
{
    CsrLayout l;
    l.rows = 1;
    l.cols = 4;
    l.row_offsets = {0, 1};
    l.col_indices = {4};
    EXPECT_THROW(l.validate(), Error);
}

TEST(CsrTest, ValidateRejectsBadOffsets)
{
    CsrLayout l;
    l.rows = 2;
    l.cols = 4;
    l.row_offsets = {0, 2, 1};
    l.col_indices = {0, 1};
    EXPECT_THROW(l.validate(), Error);
}

TEST(CsrTest, MaskRoundTrip)
{
    Rng rng(1);
    const MaskMatrix mask = random_mask(rng, 13, 29, 0.2);
    const CsrLayout csr = csr_from_mask(mask);
    csr.validate();
    EXPECT_TRUE(masks_equal(mask, mask_from_csr(csr)));
}

// ----------------------------------------------------------------- BSR ----

TEST(BsrTest, BlockifyRecordsValidityBitmaps)
{
    // An 8x8 matrix, block 4, with elements only in the top-left tile.
    MaskMatrix mask(8, 8, 0);
    mask.at(0, 0) = 1;
    mask.at(3, 3) = 1;
    const BsrLayout bsr = bsr_from_csr(csr_from_mask(mask), 4);
    bsr.validate();
    EXPECT_EQ(bsr.nnz_blocks(), 1);
    EXPECT_EQ(bsr.block_valid_count(0), 2);
    EXPECT_EQ(bsr.total_valid(), 2);
    EXPECT_EQ(bsr.total_stored(), 16);
    EXPECT_TRUE(bsr.element_valid(0, 0, 0));
    EXPECT_TRUE(bsr.element_valid(0, 3, 3));
    EXPECT_FALSE(bsr.element_valid(0, 1, 2));
}

TEST(BsrTest, BlockifyRoundTripsThroughCsr)
{
    Rng rng(3);
    const MaskMatrix mask = random_mask(rng, 64, 64, 0.1);
    const CsrLayout csr = csr_from_mask(mask);
    for (const index_t block : {4, 8, 16, 32, 64}) {
        const BsrLayout bsr = bsr_from_csr(csr, block);
        bsr.validate();
        const CsrLayout back = csr_from_bsr(bsr);
        EXPECT_EQ(back.row_offsets, csr.row_offsets) << "block " << block;
        EXPECT_EQ(back.col_indices, csr.col_indices) << "block " << block;
        EXPECT_EQ(bsr.total_valid(), csr.nnz()) << "block " << block;
    }
}

TEST(BsrTest, DenseMatrixBlockifiesToAllBlocks)
{
    MaskMatrix mask(16, 16, 1);
    const BsrLayout bsr = bsr_from_csr(csr_from_mask(mask), 8);
    EXPECT_EQ(bsr.nnz_blocks(), 4);
    EXPECT_EQ(bsr.total_valid(), 256);
    // Fully-valid blocks still carry bitmaps of all-ones.
    EXPECT_EQ(bsr.block_valid_count(0), 64);
}

TEST(BsrTest, RejectsNonMultipleDims)
{
    CsrLayout csr;
    csr.rows = 10;
    csr.cols = 8;
    csr.row_offsets.assign(11, 0);
    EXPECT_THROW(bsr_from_csr(csr, 4), Error);
}

TEST(BsrTest, ValidateRejectsEmptyStoredBlock)
{
    BsrLayout bsr;
    bsr.rows = 4;
    bsr.cols = 4;
    bsr.block = 4;
    bsr.row_offsets = {0, 1};
    bsr.col_indices = {0};
    bsr.valid_bits.assign(1, 0);  // Stored block with no valid elements.
    EXPECT_THROW(bsr.validate(), Error);
}

// ---------------------------------------------------------------- BCOO ----

TEST(BcooTest, FromBsrKeepsBlockOrder)
{
    Rng rng(4);
    const MaskMatrix mask = random_mask(rng, 32, 32, 0.15);
    const BsrLayout bsr = bsr_from_csr(csr_from_mask(mask), 8);
    const BcooLayout bcoo = bcoo_from_bsr(bsr);
    bcoo.validate();
    EXPECT_EQ(bcoo.nnz_blocks(), bsr.nnz_blocks());
    EXPECT_EQ(bcoo.metadata_bytes(), bsr.nnz_blocks() * 8);
}

TEST(BcooTest, ValidateRejectsDuplicates)
{
    BcooLayout bcoo;
    bcoo.rows = 8;
    bcoo.cols = 8;
    bcoo.block = 4;
    bcoo.blocks = {{0, 1}, {0, 1}};
    EXPECT_THROW(bcoo.validate(), Error);
}

// ------------------------------------------------------- BSR transpose ----

TEST(BsrTransposeTest, MatchesPerBitOracleAndTwiceIsIdentity)
{
    Rng rng(8);
    for (const index_t block : {8, 16, 32, 64, 128}) {
        const BsrLayout bsr = bsr_from_csr(
            csr_from_mask(random_mask(rng, 3 * block, 2 * block, 0.3)),
            block);
        const BsrLayout t = transpose_layout(bsr);
        t.validate();
        ASSERT_EQ(t.nnz_blocks(), bsr.nnz_blocks()) << "block " << block;
        for (index_t br = 0; br < bsr.block_rows(); ++br) {
            for (index_t b = bsr.row_offsets[static_cast<std::size_t>(br)];
                 b < bsr.row_offsets[static_cast<std::size_t>(br + 1)];
                 ++b) {
                // Block (br, bc) lands in block row bc, at column br.
                const index_t bc =
                    bsr.col_indices[static_cast<std::size_t>(b)];
                index_t slot = t.row_offsets[static_cast<std::size_t>(bc)];
                while (t.col_indices[static_cast<std::size_t>(slot)] != br) {
                    ++slot;
                }
                for (index_t r = 0; r < block; ++r) {
                    for (index_t c = 0; c < block; ++c) {
                        ASSERT_EQ(bsr.element_valid(b, r, c),
                                  t.element_valid(slot, c, r))
                            << "block " << block << " (" << r << ", " << c
                            << ")";
                    }
                }
            }
        }
        const BsrLayout tt = transpose_layout(t);
        EXPECT_EQ(tt.row_offsets, bsr.row_offsets);
        EXPECT_EQ(tt.col_indices, bsr.col_indices);
        EXPECT_EQ(tt.valid_bits, bsr.valid_bits);
    }
}

// ----------------------------------------------------- value transport ----

TEST(ValuesTest, GatherCsrThenDenseRecoversMaskedMatrix)
{
    Rng rng(7);
    const HalfMatrix dense = random_half_matrix(rng, 12, 12);
    const MaskMatrix mask = random_mask(rng, 12, 12, 0.4);
    auto layout = std::make_shared<const CsrLayout>(csr_from_mask(mask));
    const CsrMatrix gathered = gather_csr(dense, layout);
    const HalfMatrix back = dense_from_csr(gathered);
    for (index_t r = 0; r < 12; ++r) {
        for (index_t c = 0; c < 12; ++c) {
            const float expected =
                mask.at(r, c) ? float(dense.at(r, c)) : 0.0f;
            EXPECT_EQ(float(back.at(r, c)), expected) << r << "," << c;
        }
    }
}

TEST(ValuesTest, GatherBsrThenDenseZeroesInvalidPositions)
{
    Rng rng(8);
    const HalfMatrix dense = random_half_matrix(rng, 16, 16);
    const MaskMatrix mask = random_mask(rng, 16, 16, 0.2);
    auto layout = std::make_shared<const BsrLayout>(
        bsr_from_csr(csr_from_mask(mask), 8));
    const BsrMatrix gathered = gather_bsr(dense, layout);
    const HalfMatrix back = dense_from_bsr(gathered);
    for (index_t r = 0; r < 16; ++r) {
        for (index_t c = 0; c < 16; ++c) {
            const float expected =
                mask.at(r, c) ? float(dense.at(r, c)) : 0.0f;
            EXPECT_EQ(float(back.at(r, c)), expected) << r << "," << c;
        }
    }
}

TEST(ValuesTest, GatherShapeMismatchThrows)
{
    Rng rng(9);
    const HalfMatrix dense = random_half_matrix(rng, 4, 4);
    auto layout = std::make_shared<const CsrLayout>(
        csr_from_mask(MaskMatrix(8, 8, 1)));
    EXPECT_THROW(gather_csr(dense, layout), Error);
}

// ------------------------------------------------------------- matrix ----

TEST(MatrixTest, FillAndAccessors)
{
    HalfMatrix m(3, 5, half(2.0f));
    EXPECT_EQ(m.rows(), 3);
    EXPECT_EQ(m.cols(), 5);
    EXPECT_EQ(m.size(), 15);
    EXPECT_EQ(float(m.at(2, 4)), 2.0f);
    m.fill(half(-1.0f));
    EXPECT_EQ(float(m.at(0, 0)), -1.0f);
    m.at(1, 2) = half(3.0f);
    EXPECT_EQ(float(m.row(1)[2]), 3.0f);
}

TEST(MatrixTest, WidenPreservesValues)
{
    Rng rng(10);
    const HalfMatrix m = random_half_matrix(rng, 6, 6);
    const DoubleMatrix d = widen(m);
    for (index_t r = 0; r < 6; ++r) {
        for (index_t c = 0; c < 6; ++c) {
            EXPECT_EQ(d.at(r, c), static_cast<double>(float(m.at(r, c))));
        }
    }
}

}  // namespace
}  // namespace multigrain
