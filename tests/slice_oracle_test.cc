// The element-wise oracle for interval slicing. Slicing builds every part
// from per-row column intervals; these tests check it against the
// element-wise path it replaced, kept here as the reference:
//   * each atom's interval rows equal its element-wise column list
//     (element_columns below, sorted and deduplicated);
//   * every mode's parts equal the element-wise slice (union of atoms ->
//     bsr_from_csr -> per-row set difference) on random compound patterns
//     over all eight atom kinds, block sizes, padding and causal masking;
//   * validate_partition() rejects each seeded corruption of a plan, so
//     the interval check is no weaker than reassembling the full layout.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "formats/convert.h"
#include "patterns/slice.h"

namespace multigrain {
namespace {

using Atoms = std::vector<const AtomicPattern *>;

/// The library's per-row random substream seed (patterns/pattern.cc).
std::uint64_t
substream_seed(std::uint64_t seed, index_t index)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull *
                                 (static_cast<std::uint64_t>(index) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/// Appends `atom`'s columns for `row`, one element at a time (unsorted,
/// may repeat): the element-wise definition of every atom kind.
void
element_columns(const AtomicPattern &atom, index_t seq_len,
                index_t valid_len, index_t row, std::vector<index_t> &out)
{
    if (row >= valid_len) {
        return;
    }
    const auto block_span = [&](index_t bc) {
        for (index_t c = bc * atom.block;
             c < std::min(valid_len, (bc + 1) * atom.block); ++c) {
            out.push_back(c);
        }
    };
    const index_t block_row = row / atom.block;
    const index_t block_cols = ceil_div(seq_len, atom.block);
    switch (atom.kind) {
      case AtomicKind::kLocal:
        for (index_t c = std::max<index_t>(0, row - atom.window);
             c <= std::min<index_t>(valid_len - 1, row + atom.window); ++c) {
            out.push_back(c);
        }
        break;
      case AtomicKind::kDilated:
        out.push_back(row);
        for (index_t m = 1; m <= atom.window; ++m) {
            if (row - m * atom.stride >= 0) {
                out.push_back(row - m * atom.stride);
            }
            if (row + m * atom.stride < valid_len) {
                out.push_back(row + m * atom.stride);
            }
        }
        break;
      case AtomicKind::kGlobal:
        if (std::binary_search(atom.tokens.begin(), atom.tokens.end(),
                               row)) {
            for (index_t c = 0; c < valid_len; ++c) {
                out.push_back(c);
            }
        }
        break;
      case AtomicKind::kSelected:
        for (const index_t t : atom.tokens) {
            if (t < valid_len) {
                out.push_back(t);
            }
        }
        break;
      case AtomicKind::kRandom: {
        Rng rng(substream_seed(atom.seed, row));
        const float p = static_cast<float>(
            std::min<double>(1.0, static_cast<double>(atom.count) /
                                      static_cast<double>(valid_len)));
        for (index_t c = 0; c < valid_len; ++c) {
            if (rng.next_float() < p) {
                out.push_back(c);
            }
        }
        break;
      }
      case AtomicKind::kClusteredRandom: {
        Rng cluster_rng(substream_seed(atom.seed, block_row));
        const index_t nclusters = std::min<index_t>(atom.window, block_cols);
        const std::vector<index_t> clusters =
            cluster_rng.sample_distinct(block_cols, nclusters);
        Rng rng(substream_seed(atom.seed ^ 0x2545f4914f6cdd1dull, row));
        const float p = static_cast<float>(
            std::min(1.0, static_cast<double>(atom.count) /
                              (static_cast<double>(nclusters) *
                               static_cast<double>(atom.block))));
        for (const index_t bc : clusters) {
            for (index_t c = bc * atom.block;
                 c < std::min(valid_len, (bc + 1) * atom.block); ++c) {
                if (rng.next_float() < p) {
                    out.push_back(c);
                }
            }
        }
        break;
      }
      case AtomicKind::kBlockedLocal:
        for (index_t bc = std::max<index_t>(0, block_row - atom.window);
             bc <= std::min(block_cols - 1, block_row + atom.window); ++bc) {
            block_span(bc);
        }
        break;
      case AtomicKind::kBlockedRandom: {
        Rng rng(substream_seed(atom.seed, block_row));
        const float p = static_cast<float>(
            std::min<double>(1.0, static_cast<double>(atom.count) /
                                      static_cast<double>(block_cols)));
        for (index_t bc = 0; bc < block_cols; ++bc) {
            if (rng.next_float() < p) {
                block_span(bc);
            }
        }
        break;
      }
    }
}

/// Element-wise union of `atoms`, skipping the sorted `exclude_rows`.
CsrLayout
union_layout(const CompoundPattern &pattern, const Atoms &atoms,
             const std::vector<index_t> &exclude_rows)
{
    CsrLayout out;
    out.rows = pattern.seq_len;
    out.cols = pattern.seq_len;
    out.row_offsets.push_back(0);
    std::vector<index_t> cols;
    for (index_t r = 0; r < pattern.seq_len; ++r) {
        if (!std::binary_search(exclude_rows.begin(), exclude_rows.end(),
                                r)) {
            cols.clear();
            for (const AtomicPattern *atom : atoms) {
                element_columns(*atom, pattern.seq_len,
                                pattern.effective_valid_len(), r, cols);
            }
            std::sort(cols.begin(), cols.end());
            cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
            if (pattern.causal) {
                cols.erase(std::upper_bound(cols.begin(), cols.end(), r),
                           cols.end());
            }
            out.col_indices.insert(out.col_indices.end(), cols.begin(),
                                   cols.end());
        }
        out.row_offsets.push_back(
            static_cast<index_t>(out.col_indices.size()));
    }
    return out;
}

/// Per-row set difference a \ b.
CsrLayout
csr_difference(const CsrLayout &a, const CsrLayout &b)
{
    CsrLayout out;
    out.rows = a.rows;
    out.cols = a.cols;
    out.row_offsets.push_back(0);
    for (index_t r = 0; r < a.rows; ++r) {
        const auto row = [r](const CsrLayout &l, index_t end) {
            return l.col_indices.begin() +
                   l.row_offsets[static_cast<std::size_t>(r + end)];
        };
        std::set_difference(row(a, 0), row(a, 1), row(b, 0), row(b, 1),
                            std::back_inserter(out.col_indices));
        out.row_offsets.push_back(
            static_cast<index_t>(out.col_indices.size()));
    }
    return out;
}

/// The element-wise slice: what slice_and_dice built before intervals.
struct Reference {
    CsrLayout full;
    std::shared_ptr<const BsrLayout> coarse;
    std::shared_ptr<const CsrLayout> fine;
    std::vector<index_t> global_rows;
};

Reference
reference_slice(const CompoundPattern &pattern, const SliceOptions &options)
{
    Reference ref;
    Atoms all, coarse_atoms, fine_atoms;
    for (const AtomicPattern &atom : pattern.atoms) {
        all.push_back(&atom);
    }
    ref.full = union_layout(pattern, all, {});
    switch (options.mode) {
      case SliceMode::kCoarseOnly:
        ref.coarse = std::make_shared<const BsrLayout>(
            bsr_from_csr(ref.full, options.block));
        return ref;
      case SliceMode::kFineOnly:
        ref.fine = std::make_shared<const CsrLayout>(ref.full);
        return ref;
      case SliceMode::kDense:
        return ref;
      case SliceMode::kMultigrain:
        break;
    }
    for (const AtomicPattern &atom : pattern.atoms) {
        if (atom.is_special() && options.route_global_to_dense) {
            for (const index_t t : atom.tokens) {
                if (t < pattern.effective_valid_len()) {
                    ref.global_rows.push_back(t);
                }
            }
            continue;
        }
        (atom.is_coarse() ? coarse_atoms : fine_atoms).push_back(&atom);
    }
    std::sort(ref.global_rows.begin(), ref.global_rows.end());
    ref.global_rows.erase(
        std::unique(ref.global_rows.begin(), ref.global_rows.end()),
        ref.global_rows.end());
    const CsrLayout coarse =
        union_layout(pattern, coarse_atoms, ref.global_rows);
    if (coarse.nnz() > 0) {
        ref.coarse = std::make_shared<const BsrLayout>(
            bsr_from_csr(coarse, options.block));
    }
    CsrLayout fine = csr_difference(
        union_layout(pattern, fine_atoms, ref.global_rows), coarse);
    if (fine.nnz() > 0) {
        ref.fine = std::make_shared<const CsrLayout>(std::move(fine));
    }
    return ref;
}

std::vector<index_t>
random_tokens(Rng &rng, index_t seq_len)
{
    const auto picks = rng.sample_distinct(
        seq_len, rng.next_range(1, std::min<index_t>(6, seq_len)));
    return {picks.begin(), picks.end()};
}

/// A random compound pattern over all eight atom kinds; atom blocks are
/// drawn independently of the slice block.
CompoundPattern
random_compound(Rng &rng, index_t slice_block)
{
    CompoundPattern p;
    p.seq_len = slice_block * rng.next_range(2, 6);
    p.valid_len = rng.next_range(1, p.seq_len - 1);
    p.causal = rng.next_below(2) == 1;
    const auto atom_block = [&rng] {
        return index_t{8} << rng.next_below(4);  // 8, 16, 32 or 64.
    };
    const int atoms = static_cast<int>(rng.next_range(1, 4));
    while (static_cast<int>(p.atoms.size()) < atoms) {
        switch (rng.next_below(8)) {
          case 0:
            p.atoms.push_back(AtomicPattern::local(rng.next_range(0, 12)));
            break;
          case 1:
            p.atoms.push_back(AtomicPattern::dilated(rng.next_range(0, 4),
                                                     rng.next_range(1, 9)));
            break;
          case 2:
            if (!p.causal) {
                p.atoms.push_back(
                    AtomicPattern::global(random_tokens(rng, p.seq_len)));
            }
            break;
          case 3:
            p.atoms.push_back(
                AtomicPattern::selected(random_tokens(rng, p.seq_len)));
            break;
          case 4:
            p.atoms.push_back(AtomicPattern::random(rng.next_range(1, 6),
                                                    rng.next_u64()));
            break;
          case 5:
            p.atoms.push_back(AtomicPattern::clustered_random(
                atom_block(), rng.next_range(1, 3), rng.next_range(1, 8),
                rng.next_u64()));
            break;
          case 6:
            p.atoms.push_back(AtomicPattern::blocked_local(
                atom_block(), rng.next_range(0, 2)));
            break;
          default:
            p.atoms.push_back(AtomicPattern::blocked_random(
                atom_block(), rng.next_range(1, 3), rng.next_u64()));
            break;
        }
    }
    return p;
}

void
expect_same_bsr(const std::shared_ptr<const BsrLayout> &got,
                const std::shared_ptr<const BsrLayout> &want)
{
    ASSERT_EQ(got != nullptr, want != nullptr);
    if (want) {
        EXPECT_EQ(got->row_offsets, want->row_offsets);
        EXPECT_EQ(got->col_indices, want->col_indices);
        EXPECT_EQ(got->valid_bits, want->valid_bits);
    }
}

void
expect_same_csr(const CsrLayout *got, const CsrLayout *want)
{
    ASSERT_EQ(got != nullptr, want != nullptr);
    if (want) {
        EXPECT_EQ(got->row_offsets, want->row_offsets);
        EXPECT_EQ(got->col_indices, want->col_indices);
    }
}

constexpr index_t kBlocks[] = {16, 32, 64};

TEST(SliceOracleTest, AtomIntervalRowsMatchElementColumns)
{
    Rng rng(41);
    for (int trial = 0; trial < 40; ++trial) {
        const CompoundPattern p = random_compound(rng, kBlocks[trial % 3]);
        for (const AtomicPattern &atom : p.atoms) {
            for (index_t r = 0; r < p.seq_len; ++r) {
                std::vector<index_t> want;
                element_columns(atom, p.seq_len, p.valid_len, r, want);
                std::sort(want.begin(), want.end());
                want.erase(std::unique(want.begin(), want.end()),
                           want.end());
                std::vector<ColumnInterval> intervals;
                atom.append_row_intervals(p.seq_len, p.valid_len, r,
                                          intervals);
                for (std::size_t i = 0; i < intervals.size(); ++i) {
                    ASSERT_LT(intervals[i].begin, intervals[i].end);
                    if (i > 0) {
                        ASSERT_GE(intervals[i].begin, intervals[i - 1].end)
                            << atom.describe() << " row " << r;
                    }
                }
                std::vector<index_t> got;
                append_columns(intervals, got);
                ASSERT_EQ(got, want) << atom.describe() << " row " << r
                                     << " of " << p.describe();
            }
        }
    }
}

TEST(SliceOracleTest, EveryModeMatchesElementWiseSlice)
{
    Rng rng(43);
    for (int trial = 0; trial < 60; ++trial) {
        SliceOptions options;
        options.block = kBlocks[trial % 3];
        options.route_global_to_dense = rng.next_below(4) != 0;
        const CompoundPattern p = random_compound(rng, options.block);
        for (const SliceMode mode :
             {SliceMode::kMultigrain, SliceMode::kCoarseOnly,
              SliceMode::kFineOnly, SliceMode::kDense}) {
            options.mode = mode;
            SCOPED_TRACE(p.describe() + " block " +
                         std::to_string(options.block) + " " +
                         to_string(mode));
            const SlicePlan plan = slice_and_dice(p, options);
            const Reference ref = reference_slice(p, options);
            expect_same_bsr(plan.coarse, ref.coarse);
            expect_same_csr(plan.fine.get(), ref.fine.get());
            EXPECT_EQ(plan.global_rows, ref.global_rows);
            const bool carries_full =
                mode == SliceMode::kFineOnly || mode == SliceMode::kDense;
            ASSERT_EQ(plan.full != nullptr, carries_full);
            const CsrLayout full = build_full_layout(p);
            expect_same_csr(&full, &ref.full);
            if (carries_full) {
                expect_same_csr(plan.full.get(), &ref.full);
            }
            plan.validate_partition();
        }
    }
}

/// `l` with column `c` inserted into row `r` (kept ascending).
CsrLayout
with_column(const CsrLayout &l, index_t r, index_t c)
{
    CsrLayout out = l;
    const auto begin = out.col_indices.begin() +
                       out.row_offsets[static_cast<std::size_t>(r)];
    const auto end = out.col_indices.begin() +
                     out.row_offsets[static_cast<std::size_t>(r + 1)];
    out.col_indices.insert(std::lower_bound(begin, end, c), c);
    for (index_t i = r + 1; i <= out.rows; ++i) {
        ++out.row_offsets[static_cast<std::size_t>(i)];
    }
    return out;
}

/// `bsr` with element (r, c) of the matrix set valid; its block must be
/// stored.
BsrLayout
with_bit(const BsrLayout &bsr, index_t r, index_t c)
{
    BsrLayout out = bsr;
    const index_t br = r / bsr.block;
    for (index_t b = bsr.row_offsets[static_cast<std::size_t>(br)];
         b < bsr.row_offsets[static_cast<std::size_t>(br + 1)]; ++b) {
        if (bsr.col_indices[static_cast<std::size_t>(b)] == c / bsr.block) {
            const index_t bit = b * bsr.words_per_block() * 64 +
                                (r % bsr.block) * bsr.block + c % bsr.block;
            out.valid_bits[static_cast<std::size_t>(bit / 64)] |=
                1ull << (bit % 64);
            return out;
        }
    }
    ADD_FAILURE() << "block of (" << r << ", " << c << ") is not stored";
    return out;
}

/// Every stored-block position (r, c) of `bsr` whose validity is `valid`.
std::vector<std::pair<index_t, index_t>>
block_positions(const BsrLayout &bsr, bool valid)
{
    std::vector<std::pair<index_t, index_t>> out;
    for (index_t br = 0; br < bsr.block_rows(); ++br) {
        for (index_t b = bsr.row_offsets[static_cast<std::size_t>(br)];
             b < bsr.row_offsets[static_cast<std::size_t>(br + 1)]; ++b) {
            const index_t bc = bsr.col_indices[static_cast<std::size_t>(b)];
            for (index_t r = 0; r < bsr.block; ++r) {
                for (index_t c = 0; c < bsr.block; ++c) {
                    if (bsr.element_valid(b, r, c) == valid) {
                        out.emplace_back(br * bsr.block + r,
                                         bc * bsr.block + c);
                    }
                }
            }
        }
    }
    return out;
}

TEST(SliceOracleTest, ValidatorRejectsSeededCorruptions)
{
    Rng rng(47);
    for (const index_t block : kBlocks) {
        CompoundPattern p;
        p.seq_len = 4 * block;
        p.valid_len = 4 * block - 5;
        p.atoms.push_back(AtomicPattern::local(block / 4));
        p.atoms.push_back(AtomicPattern::selected({3, block + 1, 2 * block}));
        p.atoms.push_back(AtomicPattern::global({3, 3 * block - 2}));
        p.atoms.push_back(AtomicPattern::random(3, 5));
        const SlicePlan plan = slice_and_dice(p, {.block = block});
        ASSERT_TRUE(plan.has_coarse() && plan.has_fine() &&
                    plan.has_special());
        plan.validate_partition();
        const CsrLayout full = build_full_layout(p);
        const MaskMatrix attended = mask_from_csr(full);
        const auto pick = [&rng](const auto &items) {
            return items[static_cast<std::size_t>(
                rng.next_below(items.size()))];
        };
        const auto is_global = [&plan](index_t r) {
            return std::binary_search(plan.global_rows.begin(),
                                      plan.global_rows.end(), r);
        };

        // 1. A coarse element the fine part also holds.
        {
            SlicePlan bad = plan;
            const auto [r, c] = pick(block_positions(*plan.coarse, true));
            bad.fine = std::make_shared<const CsrLayout>(
                with_column(*plan.fine, r, c));
            EXPECT_THROW(bad.validate_partition(), Error) << "overlap";
        }
        // 2. A dropped fine element.
        {
            SlicePlan bad = plan;
            CsrLayout fine = *plan.fine;
            const index_t i = static_cast<index_t>(
                rng.next_below(fine.col_indices.size()));
            fine.col_indices.erase(fine.col_indices.begin() + i);
            for (auto &offset : fine.row_offsets) {
                offset -= offset > i ? 1 : 0;
            }
            bad.fine = std::make_shared<const CsrLayout>(std::move(fine));
            EXPECT_THROW(bad.validate_partition(), Error) << "dropped";
        }
        // 3. An element outside the union, in a stored coarse block.
        {
            std::vector<std::pair<index_t, index_t>> outside;
            for (const auto &[r, c] : block_positions(*plan.coarse, false)) {
                if (attended.at(r, c) == 0 && !is_global(r)) {
                    outside.emplace_back(r, c);
                }
            }
            ASSERT_FALSE(outside.empty());
            SlicePlan bad = plan;
            const auto [r, c] = pick(outside);
            bad.coarse = std::make_shared<const BsrLayout>(
                with_bit(*plan.coarse, r, c));
            EXPECT_THROW(bad.validate_partition(), Error) << "outside";
        }
        // 4. A global row still present in the coarse part.
        {
            std::vector<std::pair<index_t, index_t>> in_global;
            for (const auto &[r, c] : block_positions(*plan.coarse, false)) {
                if (is_global(r) && c < plan.valid_len) {
                    in_global.emplace_back(r, c);
                }
            }
            ASSERT_FALSE(in_global.empty());
            SlicePlan bad = plan;
            const auto [r, c] = pick(in_global);
            bad.coarse = std::make_shared<const BsrLayout>(
                with_bit(*plan.coarse, r, c));
            EXPECT_THROW(bad.validate_partition(), Error) << "global row";
        }
        // 5. Unsorted global rows.
        {
            SlicePlan bad = plan;
            ASSERT_GE(bad.global_rows.size(), 2u);
            std::swap(bad.global_rows.front(), bad.global_rows.back());
            EXPECT_THROW(bad.validate_partition(), Error) << "unsorted";
        }
    }
}

}  // namespace
}  // namespace multigrain
