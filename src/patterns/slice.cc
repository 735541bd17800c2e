#include "patterns/slice.h"

#include <algorithm>

#include "common/error.h"
#include "common/timer.h"
#include "formats/convert.h"

namespace multigrain {

const char *
to_string(SliceMode mode)
{
    switch (mode) {
      case SliceMode::kMultigrain:
        return "multigrain";
      case SliceMode::kCoarseOnly:
        return "coarse-only";
      case SliceMode::kFineOnly:
        return "fine-only";
      case SliceMode::kDense:
        return "dense";
    }
    return "?";
}

SliceMode
slice_mode_by_name(const std::string &name)
{
    if (name == "multigrain") {
        return SliceMode::kMultigrain;
    }
    if (name == "coarse-only" || name == "coarse") {
        return SliceMode::kCoarseOnly;
    }
    if (name == "fine-only" || name == "fine") {
        return SliceMode::kFineOnly;
    }
    if (name == "dense") {
        return SliceMode::kDense;
    }
    throw Error("unknown mode \"" + name +
                "\" (multigrain|coarse-only|fine-only|dense)");
}

void
SlicePlan::validate_partition() const
{
    const ScopedTimer timer("patterns.validate");
    if (mode == SliceMode::kDense) {
        // The dense baseline has no sparse parts: it computes everything
        // and masks with `full`; the partition property is vacuous.
        MG_CHECK(full != nullptr && !has_coarse() && !has_fine() &&
                 !has_special())
            << "dense plans carry the full layout and no sparse parts";
        return;
    }
    MG_CHECK(pattern.seq_len == seq_len &&
             pattern.effective_valid_len() == valid_len)
        << "plan shape does not match the pattern it was sliced from";
    for (std::size_t i = 0; i < global_rows.size(); ++i) {
        MG_CHECK(global_rows[i] >= 0 && global_rows[i] < valid_len &&
                 (i == 0 || global_rows[i - 1] < global_rows[i]))
            << "global row " << global_rows[i] << " breaks strict "
            << "ascending order in [0, valid_len " << valid_len << ")";
    }
    if (coarse) {
        coarse->validate();
        MG_CHECK(coarse->rows == seq_len && coarse->cols == seq_len)
            << "coarse part is not " << seq_len << "x" << seq_len;
    }
    MG_CHECK(!fine || (fine->rows == seq_len && fine->cols == seq_len &&
                       fine->row_offsets.size() ==
                           static_cast<std::size_t>(seq_len + 1) &&
                       fine->row_offsets.front() == 0 &&
                       static_cast<std::size_t>(fine->nnz()) ==
                           fine->col_indices.size()))
        << "fine part is not a " << seq_len << "x" << seq_len << " CSR";

    // Per row: the special, coarse and fine intervals must be pairwise
    // disjoint and together equal the union of the pattern's atoms.
    UnionRows expected(pattern);
    std::vector<ColumnInterval> parts, rebuilt;
    auto global = global_rows.begin();
    for (index_t r = 0; r < seq_len; ++r) {
        parts.clear();
        if (global != global_rows.end() && *global == r) {
            parts.push_back({0, valid_len});
            ++global;
        }
        if (coarse) {
            append_row_intervals(*coarse, r, parts);
        }
        const auto coarse_end = static_cast<std::ptrdiff_t>(parts.size());
        if (fine) {
            const index_t begin =
                fine->row_offsets[static_cast<std::size_t>(r)];
            const index_t end =
                fine->row_offsets[static_cast<std::size_t>(r + 1)];
            MG_CHECK(begin <= end) << "fine row_offsets decrease at row " << r;
            for (index_t i = begin, prev = -1; i < end; ++i) {
                const index_t c =
                    fine->col_indices[static_cast<std::size_t>(i)];
                MG_CHECK(prev < c && c < valid_len)
                    << "fine column " << c << " of row " << r
                    << " is out of order or outside [0, valid_len)";
                push_interval(parts, c, c + 1);
                prev = c;
            }
        }
        std::inplace_merge(parts.begin(), parts.begin() + coarse_end,
                           parts.end(),
                           [](const ColumnInterval &x,
                              const ColumnInterval &y) {
                               return x.begin < y.begin;
                           });
        rebuilt.clear();
        for (const ColumnInterval &iv : parts) {
            MG_CHECK(rebuilt.empty() || iv.begin >= rebuilt.back().end)
                << "element (" << r << ", " << iv.begin
                << ") is covered by more than one part";
            push_interval(rebuilt, iv.begin, iv.end);
        }
        MG_CHECK(rebuilt == expected.row(r))
            << "slice-and-dice parts do not reassemble row " << r
            << " of the pattern";
    }
}

SlicePlan
slice_and_dice(const CompoundPattern &pattern, const SliceOptions &options)
{
    // The §3.1 "offline, once per input shape" cost: measured so mgprof
    // can report it next to the simulated device timeline.
    const ScopedTimer timer("patterns.slice");
    MG_CHECK(options.block > 0) << "slice block size must be positive";
    MG_CHECK(pattern.seq_len % options.block == 0)
        << "seq_len " << pattern.seq_len
        << " must be a multiple of the block size " << options.block
        << " (pad the sequence)";
    pattern.validate();

    SlicePlan plan;
    plan.seq_len = pattern.seq_len;
    plan.valid_len = pattern.effective_valid_len();
    plan.block = options.block;
    plan.mode = options.mode;
    plan.pattern = pattern;

    std::vector<const AtomicPattern *> coarse_atoms;
    std::vector<const AtomicPattern *> fine_atoms;
    switch (options.mode) {
      case SliceMode::kCoarseOnly:
        // Triton-style: the entire compound pattern, including global rows
        // and low-locality atoms, becomes one blocked layout.
        for (const auto &atom : pattern.atoms) {
            coarse_atoms.push_back(&atom);
        }
        break;
      case SliceMode::kFineOnly:
        // Sputnik-style: everything element-wise, global rows included.
        plan.full =
            std::make_shared<const CsrLayout>(build_full_layout(pattern));
        plan.fine = plan.full;
        return plan;
      case SliceMode::kDense:
        // Naive dense baseline: no sparse parts at all; the engine runs
        // dense kernels with an additive mask built from `full`.
        plan.full =
            std::make_shared<const CsrLayout>(build_full_layout(pattern));
        return plan;
      case SliceMode::kMultigrain:
        // Global rows form the special part and are carved out of the
        // rest; high-locality atoms go coarse, the others fine.
        for (const auto &atom : pattern.atoms) {
            if (!atom.is_special()) {
                (atom.is_coarse() ? coarse_atoms : fine_atoms)
                    .push_back(&atom);
            } else if (!options.route_global_to_dense) {
                fine_atoms.push_back(&atom);  // Ablation: globals stay fine.
            } else {
                for (const index_t t : atom.tokens) {
                    if (t < plan.valid_len) {
                        plan.global_rows.push_back(t);
                    }
                }
            }
        }
        std::sort(plan.global_rows.begin(), plan.global_rows.end());
        plan.global_rows.erase(
            std::unique(plan.global_rows.begin(), plan.global_rows.end()),
            plan.global_rows.end());
        break;
    }

    // One pass over the rows: the coarse atoms' intervals are blockified,
    // and the fine atoms' columns outside them (overlap invalidation,
    // §3.3) become the fine CSR. Global rows stay empty in both.
    UnionRows coarse_rows(pattern, std::move(coarse_atoms));
    UnionRows fine_rows(pattern, std::move(fine_atoms));
    const std::vector<ColumnInterval> none;
    CsrLayout fine;
    fine.rows = plan.seq_len;
    fine.cols = plan.seq_len;
    fine.row_offsets.push_back(0);
    auto global = plan.global_rows.begin();
    BsrLayout coarse = bsr_from_rows(
        plan.seq_len, plan.seq_len, plan.block,
        [&](index_t r) -> const std::vector<ColumnInterval> & {
            const bool is_global =
                global != plan.global_rows.end() && *global == r;
            if (is_global) {
                ++global;
            }
            const std::vector<ColumnInterval> &owned =
                is_global ? none : coarse_rows.row(r);
            auto cut = owned.begin();
            for (const ColumnInterval &iv :
                 is_global ? none : fine_rows.row(r)) {
                for (index_t c = iv.begin; c < iv.end; ++c) {
                    while (cut != owned.end() && cut->end <= c) {
                        ++cut;
                    }
                    if (cut == owned.end() || c < cut->begin) {
                        fine.col_indices.push_back(c);
                    }
                }
            }
            fine.row_offsets.push_back(
                static_cast<index_t>(fine.col_indices.size()));
            return owned;
        });
    if (coarse.nnz_blocks() > 0 || options.mode == SliceMode::kCoarseOnly) {
        plan.coarse = std::make_shared<const BsrLayout>(std::move(coarse));
    }
    if (fine.nnz() > 0) {
        plan.fine = std::make_shared<const CsrLayout>(std::move(fine));
    }
    return plan;
}

}  // namespace multigrain
