#include "formats/convert.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/error.h"

namespace multigrain {

namespace {

// Bit ranges of a validity bitmap stored as 64-bit words: bit i is bit
// i % 64 of word i / 64, and row r of a block is the `block` bits from
// r * block on.

/// The low `n` bits set, for n in [0, 64].
std::uint64_t
low_bits(index_t n)
{
    return n >= 64 ? ~0ull : (1ull << n) - 1;
}

/// Bits [start, start + n) as the low bits of one word; n in [0, 64].
std::uint64_t
load_bits(const std::uint64_t *words, index_t start, index_t n)
{
    const index_t shift = start % 64;
    std::uint64_t v = words[start / 64] >> shift;
    if (shift + n > 64) {
        v |= words[start / 64 + 1] << (64 - shift);
    }
    return v & low_bits(n);
}

/// ORs the low `n` bits of `value` into bits [start, start + n).
void
or_bits(std::uint64_t *words, index_t start, index_t n, std::uint64_t value)
{
    const index_t shift = start % 64;
    value &= low_bits(n);
    words[start / 64] |= value << shift;
    if (shift + n > 64) {
        words[start / 64 + 1] |= value >> (64 - shift);
    }
}

/// Sets bits [begin, end).
void
set_bits(std::uint64_t *words, index_t begin, index_t end)
{
    while (begin < end) {
        const index_t n = std::min<index_t>(64 - begin % 64, end - begin);
        words[begin / 64] |= low_bits(n) << (begin % 64);
        begin += n;
    }
}

/// Transposes a 64x64 bit matrix in place: bit c of a[r] trades places
/// with bit r of a[c]. Swaps the off-diagonal 32x32 quadrants, then the
/// 16x16 ones inside each quadrant, and so on (Hacker's Delight §7-3).
void
transpose64(std::uint64_t a[64])
{
    std::uint64_t m = 0x00000000ffffffffull;
    for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
        for (int k = 0; k < 64; k = ((k | j) + 1) & ~j) {
            const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k] ^= t << j;
            a[k | j] ^= t;
        }
    }
}

}  // namespace

CsrLayout
csr_from_mask(const MaskMatrix &mask)
{
    CsrLayout out;
    out.rows = mask.rows();
    out.cols = mask.cols();
    out.row_offsets.reserve(static_cast<std::size_t>(out.rows + 1));
    out.row_offsets.push_back(0);
    for (index_t r = 0; r < out.rows; ++r) {
        for (index_t c = 0; c < out.cols; ++c) {
            if (mask.at(r, c) != 0) {
                out.col_indices.push_back(c);
            }
        }
        out.row_offsets.push_back(
            static_cast<index_t>(out.col_indices.size()));
    }
    return out;
}

MaskMatrix
mask_from_csr(const CsrLayout &layout)
{
    MaskMatrix mask(layout.rows, layout.cols, 0);
    for (index_t r = 0; r < layout.rows; ++r) {
        for (index_t i = layout.row_offsets[static_cast<std::size_t>(r)];
             i < layout.row_offsets[static_cast<std::size_t>(r + 1)]; ++i) {
            mask.at(r, layout.col_indices[static_cast<std::size_t>(i)]) = 1;
        }
    }
    return mask;
}

BsrLayout
bsr_from_rows(
    index_t rows, index_t cols, index_t block,
    const std::function<const std::vector<ColumnInterval> &(index_t)>
        &row_intervals)
{
    MG_CHECK(block > 0) << "block size must be positive";
    MG_CHECK(rows % block == 0 && cols % block == 0)
        << "matrix " << rows << "x" << cols
        << " is not a multiple of block size " << block;

    BsrLayout out;
    out.rows = rows;
    out.cols = cols;
    out.block = block;
    out.row_offsets.push_back(0);
    const index_t words = out.words_per_block();
    // One block-row strip at a time: bitmaps per block column, and which
    // of them the strip touched.
    std::vector<std::uint64_t> strip(
        static_cast<std::size_t>(out.block_cols() * words));
    std::vector<char> touched(static_cast<std::size_t>(out.block_cols()));
    for (index_t br = 0; br < out.block_rows(); ++br) {
        for (index_t r = 0; r < block; ++r) {
            for (const ColumnInterval &iv : row_intervals(br * block + r)) {
                MG_CHECK(0 <= iv.begin && iv.begin < iv.end && iv.end <= cols)
                    << "columns [" << iv.begin << ", " << iv.end
                    << ") of row " << br * block + r
                    << " are empty or outside [0, " << cols << ")";
                for (index_t bc = iv.begin / block; bc * block < iv.end;
                     ++bc) {
                    const index_t lo = std::max(iv.begin, bc * block);
                    const index_t hi = std::min(iv.end, (bc + 1) * block);
                    set_bits(&strip[static_cast<std::size_t>(bc * words)],
                             r * block + lo - bc * block,
                             r * block + hi - bc * block);
                    touched[static_cast<std::size_t>(bc)] = 1;
                }
            }
        }
        for (index_t bc = 0; bc < out.block_cols(); ++bc) {
            if (touched[static_cast<std::size_t>(bc)] != 0) {
                touched[static_cast<std::size_t>(bc)] = 0;
                const auto bits =
                    strip.begin() + static_cast<std::ptrdiff_t>(bc * words);
                out.col_indices.push_back(bc);
                out.valid_bits.insert(out.valid_bits.end(), bits,
                                      bits + words);
                std::fill(bits, bits + words, 0);
            }
        }
        out.row_offsets.push_back(
            static_cast<index_t>(out.col_indices.size()));
    }
    return out;
}

BsrLayout
bsr_from_csr(const CsrLayout &csr, index_t block)
{
    std::vector<ColumnInterval> intervals;
    return bsr_from_rows(
        csr.rows, csr.cols, block,
        [&](index_t r) -> const std::vector<ColumnInterval> & {
            intervals.clear();
            for (index_t i = csr.row_offsets[static_cast<std::size_t>(r)];
                 i < csr.row_offsets[static_cast<std::size_t>(r + 1)]; ++i) {
                const index_t c = csr.col_indices[static_cast<std::size_t>(i)];
                push_interval(intervals, c, c + 1);
            }
            return intervals;
        });
}

void
append_row_intervals(const BsrLayout &bsr, index_t r,
                     std::vector<ColumnInterval> &out)
{
    const index_t block = bsr.block;
    const auto br = static_cast<std::size_t>(r / block);
    for (index_t b = bsr.row_offsets[br]; b < bsr.row_offsets[br + 1]; ++b) {
        const index_t first =
            bsr.col_indices[static_cast<std::size_t>(b)] * block;
        if (!bsr.has_valid_bits()) {
            push_interval(out, first, first + block);
            continue;
        }
        const std::uint64_t *words = &bsr.valid_bits[static_cast<std::size_t>(
            b * bsr.words_per_block())];
        for (index_t c = 0; c < block; c += 64) {
            // Peel the runs of set bits off this row's next <= 64 bits.
            std::uint64_t bits = load_bits(words, r % block * block + c,
                                           std::min<index_t>(64, block - c));
            for (index_t pos = first + c; bits != 0;) {
                const int zeros = std::countr_zero(bits);
                bits >>= zeros;
                const int ones = std::countr_one(bits);
                push_interval(out, pos + zeros, pos + zeros + ones);
                pos += zeros + ones;
                bits = ones == 64 ? 0 : bits >> ones;
            }
        }
    }
}

CsrLayout
csr_from_bsr(const BsrLayout &bsr)
{
    CsrLayout out;
    out.rows = bsr.rows;
    out.cols = bsr.cols;
    out.row_offsets.push_back(0);
    std::vector<ColumnInterval> intervals;
    for (index_t r = 0; r < bsr.rows; ++r) {
        intervals.clear();
        append_row_intervals(bsr, r, intervals);
        append_columns(intervals, out.col_indices);
        out.row_offsets.push_back(
            static_cast<index_t>(out.col_indices.size()));
    }
    return out;
}

BcooLayout
bcoo_from_bsr(const BsrLayout &bsr)
{
    BcooLayout out;
    out.rows = bsr.rows;
    out.cols = bsr.cols;
    out.block = bsr.block;
    out.blocks.reserve(static_cast<std::size_t>(bsr.nnz_blocks()));
    for (index_t br = 0; br < bsr.block_rows(); ++br) {
        for (index_t b = bsr.row_offsets[static_cast<std::size_t>(br)];
             b < bsr.row_offsets[static_cast<std::size_t>(br + 1)]; ++b) {
            out.blocks.push_back(
                {br, bsr.col_indices[static_cast<std::size_t>(b)]});
        }
    }
    return out;
}

CsrLayout
transpose_layout(const CsrLayout &layout)
{
    CsrLayout out;
    out.rows = layout.cols;
    out.cols = layout.rows;
    out.row_offsets.assign(static_cast<std::size_t>(out.rows + 1), 0);
    // Counting pass: nonzeros per output row (= input column).
    for (const index_t c : layout.col_indices) {
        ++out.row_offsets[static_cast<std::size_t>(c + 1)];
    }
    for (index_t r = 0; r < out.rows; ++r) {
        out.row_offsets[static_cast<std::size_t>(r + 1)] +=
            out.row_offsets[static_cast<std::size_t>(r)];
    }
    // Fill pass: input rows ascend, so each output row's columns (= input
    // rows) come out ascending.
    out.col_indices.resize(layout.col_indices.size());
    std::vector<index_t> cursor(out.row_offsets.begin(),
                                out.row_offsets.end() - 1);
    for (index_t r = 0; r < layout.rows; ++r) {
        for (index_t i = layout.row_offsets[static_cast<std::size_t>(r)];
             i < layout.row_offsets[static_cast<std::size_t>(r + 1)]; ++i) {
            const index_t c = layout.col_indices[static_cast<std::size_t>(i)];
            out.col_indices[static_cast<std::size_t>(
                cursor[static_cast<std::size_t>(c)]++)] = r;
        }
    }
    return out;
}

BsrLayout
transpose_layout(const BsrLayout &layout)
{
    const index_t block = layout.block;
    const index_t words = layout.words_per_block();
    BsrLayout out;
    out.rows = layout.cols;
    out.cols = layout.rows;
    out.block = block;
    out.row_offsets.assign(static_cast<std::size_t>(out.block_rows() + 1),
                           0);
    for (const index_t bc : layout.col_indices) {
        ++out.row_offsets[static_cast<std::size_t>(bc + 1)];
    }
    for (index_t r = 0; r < out.block_rows(); ++r) {
        out.row_offsets[static_cast<std::size_t>(r + 1)] +=
            out.row_offsets[static_cast<std::size_t>(r)];
    }
    out.col_indices.resize(layout.col_indices.size());
    if (!layout.valid_bits.empty()) {
        out.valid_bits.assign(layout.valid_bits.size(), 0);
    }
    std::vector<index_t> cursor(out.row_offsets.begin(),
                                out.row_offsets.end() - 1);
    std::uint64_t tile[64];
    for (index_t br = 0; br < layout.block_rows(); ++br) {
        for (index_t b = layout.row_offsets[static_cast<std::size_t>(br)];
             b < layout.row_offsets[static_cast<std::size_t>(br + 1)];
             ++b) {
            const index_t bc =
                layout.col_indices[static_cast<std::size_t>(b)];
            const index_t slot = cursor[static_cast<std::size_t>(bc)]++;
            out.col_indices[static_cast<std::size_t>(slot)] = br;
            if (layout.valid_bits.empty()) {
                continue;
            }
            // Transpose the bitmap within the block, one 64x64 tile at a
            // time: tile (ti, tj) lands at (tj, ti). A block of at most 64
            // is one tile, its lines padded to 64 words.
            const std::uint64_t *in =
                &layout.valid_bits[static_cast<std::size_t>(b * words)];
            std::uint64_t *to =
                &out.valid_bits[static_cast<std::size_t>(slot * words)];
            for (index_t ti = 0; ti < block; ti += 64) {
                const index_t nrows = std::min<index_t>(64, block - ti);
                for (index_t tj = 0; tj < block; tj += 64) {
                    const index_t ncols = std::min<index_t>(64, block - tj);
                    for (index_t k = 0; k < 64; ++k) {
                        tile[k] = k < nrows ? load_bits(in, (ti + k) * block +
                                                                tj,
                                                        ncols)
                                            : 0;
                    }
                    transpose64(tile);
                    for (index_t k = 0; k < ncols; ++k) {
                        or_bits(to, (tj + k) * block + ti, nrows, tile[k]);
                    }
                }
            }
        }
    }
    return out;
}

HalfMatrix
dense_from_csr(const CsrMatrix &m)
{
    const CsrLayout &layout = *m.layout;
    HalfMatrix out(layout.rows, layout.cols, half(0.0f));
    for (index_t r = 0; r < layout.rows; ++r) {
        for (index_t i = layout.row_offsets[static_cast<std::size_t>(r)];
             i < layout.row_offsets[static_cast<std::size_t>(r + 1)]; ++i) {
            out.at(r, layout.col_indices[static_cast<std::size_t>(i)]) =
                m.values[static_cast<std::size_t>(i)];
        }
    }
    return out;
}

HalfMatrix
dense_from_bsr(const BsrMatrix &m)
{
    const BsrLayout &layout = *m.layout;
    HalfMatrix out(layout.rows, layout.cols, half(0.0f));
    for (index_t br = 0; br < layout.block_rows(); ++br) {
        for (index_t b = layout.row_offsets[static_cast<std::size_t>(br)];
             b < layout.row_offsets[static_cast<std::size_t>(br + 1)]; ++b) {
            const index_t bc = layout.col_indices[static_cast<std::size_t>(b)];
            const half *blk = m.block(b);
            for (index_t r = 0; r < layout.block; ++r) {
                for (index_t c = 0; c < layout.block; ++c) {
                    if (layout.element_valid(b, r, c)) {
                        out.at(br * layout.block + r, bc * layout.block + c) =
                            blk[r * layout.block + c];
                    }
                }
            }
        }
    }
    return out;
}

CsrMatrix
gather_csr(const HalfMatrix &dense, std::shared_ptr<const CsrLayout> layout)
{
    MG_CHECK(dense.rows() == layout->rows && dense.cols() == layout->cols)
        << "gather_csr shape mismatch";
    CsrMatrix out(std::move(layout));
    const CsrLayout &l = *out.layout;
    for (index_t r = 0; r < l.rows; ++r) {
        for (index_t i = l.row_offsets[static_cast<std::size_t>(r)];
             i < l.row_offsets[static_cast<std::size_t>(r + 1)]; ++i) {
            out.values[static_cast<std::size_t>(i)] =
                dense.at(r, l.col_indices[static_cast<std::size_t>(i)]);
        }
    }
    return out;
}

BsrMatrix
gather_bsr(const HalfMatrix &dense, std::shared_ptr<const BsrLayout> layout)
{
    MG_CHECK(dense.rows() == layout->rows && dense.cols() == layout->cols)
        << "gather_bsr shape mismatch";
    BsrMatrix out(std::move(layout));
    const BsrLayout &l = *out.layout;
    for (index_t br = 0; br < l.block_rows(); ++br) {
        for (index_t b = l.row_offsets[static_cast<std::size_t>(br)];
             b < l.row_offsets[static_cast<std::size_t>(br + 1)]; ++b) {
            const index_t bc = l.col_indices[static_cast<std::size_t>(b)];
            half *blk = out.block(b);
            for (index_t r = 0; r < l.block; ++r) {
                for (index_t c = 0; c < l.block; ++c) {
                    blk[r * l.block + c] =
                        dense.at(br * l.block + r, bc * l.block + c);
                }
            }
        }
    }
    return out;
}

}  // namespace multigrain
