#ifndef MULTIGRAIN_PATTERNS_SLICE_H_
#define MULTIGRAIN_PATTERNS_SLICE_H_

#include <memory>
#include <string>
#include <vector>

#include "formats/bsr.h"
#include "formats/csr.h"
#include "patterns/pattern.h"

/// The slice-and-dice classifier (paper §3.1, Fig. 4): partitions a
/// compound sparse pattern into
///   * a coarse part — atoms with high spatial locality, stored as BSR and
///     executed on the blocked tensor-core kernels;
///   * a fine part — low-locality atoms, stored as CSR and executed on the
///     Sputnik-style element-wise kernels;
///   * a special part — global-pattern rows, which are fully dense and are
///     executed on CUTLASS/TensorRT-style dense kernels.
///
/// The same entry point also builds the degenerate plans used as baselines:
/// coarse-only ("Triton", everything blockified) and fine-only ("Sputnik",
/// everything element-wise), so all three methods share one code path and
/// provably attend the same element set.
namespace multigrain {

enum class SliceMode {
    kMultigrain,  ///< The paper's method: coarse + fine + special split.
    kCoarseOnly,  ///< Triton/DeepSpeed-style: whole pattern as blocks.
    kFineOnly,    ///< Sputnik-style: whole pattern element-wise.
    kDense,       ///< Naive baseline: dense QKᵀ/softmax/PV with an additive
                  ///< -inf mask — O(L²) compute and memory regardless of
                  ///< the pattern (the §1 status quo sparse attention
                  ///< replaces).
};

const char *to_string(SliceMode mode);

/// Inverse of to_string, accepting the CLI spellings ("multigrain" |
/// "coarse-only"/"coarse" | "fine-only"/"fine" | "dense"); throws Error
/// on anything else. Shared by mgprof, mgperf, and the bench presets.
SliceMode slice_mode_by_name(const std::string &name);

struct SliceOptions {
    index_t block = 64;
    SliceMode mode = SliceMode::kMultigrain;
    /// Ablation knob (DESIGN.md §3): when false, Multigrain keeps global
    /// rows in the fine part instead of routing them to dense kernels —
    /// reproducing the load-imbalance regime the paper measures for
    /// Sputnik on global patterns (§5.2.1).
    bool route_global_to_dense = true;
};

struct SlicePlan {
    index_t seq_len = 0;
    index_t valid_len = 0;
    index_t block = 64;
    SliceMode mode = SliceMode::kMultigrain;
    /// The pattern this plan was sliced from (metadata only): the ground
    /// truth validate_partition() regenerates the union of atoms from.
    CompoundPattern pattern;

    /// The union of every atom, global rows fully dense, element-wise.
    /// Carried only by the modes that read it: fine-only (it is the fine
    /// part) and dense (it is the mask). Null otherwise; use
    /// build_full_layout(pattern) where a reference is needed.
    std::shared_ptr<const CsrLayout> full;
    /// Coarse part; null when the plan has no blocked work.
    std::shared_ptr<const BsrLayout> coarse;
    /// Fine part; null when the plan has no element-wise work. Overlap with
    /// the coarse part is already invalidated (elements belong to exactly
    /// one part, paper §3.3).
    std::shared_ptr<const CsrLayout> fine;
    /// Special part: rows processed by dense kernels. Sorted ascending.
    std::vector<index_t> global_rows;

    bool has_coarse() const { return coarse && coarse->nnz_blocks() > 0; }
    bool has_fine() const { return fine && fine->nnz() > 0; }
    bool has_special() const { return !global_rows.empty(); }

    /// Valid attention positions in the coarse part.
    index_t coarse_valid_elements() const
    {
        return has_coarse() ? coarse->total_valid() : 0;
    }
    /// Stored (valid + block padding) positions in the coarse part.
    index_t coarse_stored_elements() const
    {
        return has_coarse() ? coarse->total_stored() : 0;
    }
    index_t fine_elements() const { return has_fine() ? fine->nnz() : 0; }
    /// Elements covered by the dense global rows.
    index_t special_elements() const
    {
        return static_cast<index_t>(global_rows.size()) * valid_len;
    }

    /// Throws Error unless coarse ⊎ fine ⊎ special partitions the union
    /// of `pattern`'s atoms exactly: every attended element is covered by
    /// exactly one part, and no part covers anything else. Checked row by
    /// row on column intervals, so the cost grows with intervals, fine
    /// elements and coarse bitmap words, not with coarse elements.
    void validate_partition() const;
};

/// Classifies `pattern` under `options`. See SliceMode for the variants.
SlicePlan slice_and_dice(const CompoundPattern &pattern,
                         const SliceOptions &options);

}  // namespace multigrain

#endif  // MULTIGRAIN_PATTERNS_SLICE_H_
