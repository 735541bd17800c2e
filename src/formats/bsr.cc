#include "formats/bsr.h"

#include <bit>

#include "common/error.h"

namespace multigrain {

index_t
BsrLayout::block_valid_count(index_t b) const
{
    if (valid_bits.empty()) {
        return block * block;
    }
    index_t count = 0;
    const index_t words = words_per_block();
    for (index_t w = 0; w < words; ++w) {
        count += std::popcount(
            valid_bits[static_cast<std::size_t>(b * words + w)]);
    }
    return count;
}

index_t
BsrLayout::total_valid() const
{
    if (valid_bits.empty()) {
        return total_stored();
    }
    index_t count = 0;
    for (const std::uint64_t word : valid_bits) {
        count += std::popcount(word);
    }
    return count;
}

void
BsrLayout::validate() const
{
    MG_CHECK(block > 0) << "BSR block size must be positive";
    MG_CHECK(rows >= 0 && cols >= 0)
        << "BSR dims must be non-negative: " << rows << "x" << cols;
    MG_CHECK(rows % block == 0 && cols % block == 0)
        << "BSR dims " << rows << "x" << cols
        << " must be multiples of block size " << block
        << " (attention pads the sequence to the block size)";
    MG_CHECK(static_cast<index_t>(row_offsets.size()) - 1 == block_rows())
        << "BSR row_offsets must have block_rows+1 entries";
    MG_CHECK(row_offsets.front() == 0) << "BSR row_offsets must start at 0";
    for (index_t br = 0; br < block_rows(); ++br) {
        const index_t begin = row_offsets[static_cast<std::size_t>(br)];
        const index_t end = row_offsets[static_cast<std::size_t>(br + 1)];
        MG_CHECK(begin <= end &&
                 end <= static_cast<index_t>(col_indices.size()))
            << "BSR row_offsets must be non-decreasing and within "
            << "col_indices at block row " << br;
        for (index_t i = begin; i < end; ++i) {
            const index_t bc = col_indices[static_cast<std::size_t>(i)];
            MG_CHECK(bc >= 0 && bc < block_cols())
                << "BSR block column " << bc << " out of range [0, "
                << block_cols() << ") at block row " << br;
            if (i > begin) {
                MG_CHECK(col_indices[static_cast<std::size_t>(i - 1)] < bc)
                    << "BSR block columns must be strictly ascending in "
                    << "block row " << br;
            }
        }
    }
    MG_CHECK(static_cast<index_t>(col_indices.size()) == nnz_blocks())
        << "BSR col_indices size mismatch";
    if (!valid_bits.empty()) {
        MG_CHECK(static_cast<index_t>(valid_bits.size()) ==
                 nnz_blocks() * words_per_block())
            << "BSR valid_bits size " << valid_bits.size()
            << " does not match nnz_blocks " << nnz_blocks() << " x "
            << words_per_block() << " words";
        for (index_t b = 0; b < nnz_blocks(); ++b) {
            MG_CHECK(block_valid_count(b) > 0)
                << "BSR stored block " << b
                << " has no valid elements; it should not be stored";
        }
    }
}

}  // namespace multigrain
