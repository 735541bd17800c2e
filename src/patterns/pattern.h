#ifndef MULTIGRAIN_PATTERNS_PATTERN_H_
#define MULTIGRAIN_PATTERNS_PATTERN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/util.h"
#include "formats/csr.h"

/// Atomic sparse attention patterns (paper §2.3, Fig. 3) and their
/// composition into compound patterns.
///
/// A pattern is pure metadata: for sequence position (row) i it defines the
/// set of key positions (columns) the query attends to. Patterns are fixed
/// per input — the model chooses the pattern family offline, while special
/// token positions (global/selected) and random draws depend on the input,
/// exactly the regime the paper's metadata-generation step targets (§3.1).
namespace multigrain {

enum class AtomicKind {
    kLocal,          ///< |i - j| <= window.
    kDilated,        ///< j = i + m*stride, 1 <= |m| <= window.
    kGlobal,         ///< Rows in `tokens` attend to every column (one-to-all).
    kSelected,       ///< Every row attends to columns in `tokens` (all-to-one).
    kRandom,         ///< ~`count` random columns per row (Bernoulli draws,
                     ///< so per-row counts vary — the load-imbalance source
                     ///< the paper discusses for random patterns, §5.2/5.3).
    kClusteredRandom,  ///< ~`count` random columns per row, confined to
                       ///< `window` block-columns sampled per block row —
                       ///< how deployed configs (DeepSpeed, BigBird) draw
                       ///< "random" attention: random at element level,
                       ///< bounded at block level.
    kBlockedLocal,   ///< Dense blocks with |block_i - block_j| <= window.
    kBlockedRandom,  ///< ~`count` random dense blocks per block row
                     ///< (Bernoulli draws; counts vary per block row).
};

const char *to_string(AtomicKind kind);

struct AtomicPattern {
    AtomicKind kind = AtomicKind::kLocal;
    /// Local/dilated: one-sided reach. BlockedLocal: block-band radius.
    index_t window = 0;
    /// Dilated only: distance between attended positions.
    index_t stride = 1;
    /// Global/selected: special-token positions (sorted, in [0, seq_len)).
    std::vector<index_t> tokens;
    /// Random: expected columns per row. BlockedRandom: expected blocks
    /// per block row.
    index_t count = 0;
    /// Blocked patterns: block edge length.
    index_t block = 64;
    /// Random patterns: draw seed (per-row / per-block-row substreams).
    std::uint64_t seed = 1;

    static AtomicPattern local(index_t window);
    static AtomicPattern dilated(index_t window, index_t stride);
    static AtomicPattern global(std::vector<index_t> tokens);
    static AtomicPattern selected(std::vector<index_t> tokens);
    static AtomicPattern random(index_t count, std::uint64_t seed);
    /// ~`count` elements per row inside `blocks_per_row` block-columns
    /// (width `block`) drawn per block row.
    static AtomicPattern clustered_random(index_t block,
                                          index_t blocks_per_row,
                                          index_t count, std::uint64_t seed);
    static AtomicPattern blocked_local(index_t block, index_t window);
    static AtomicPattern blocked_random(index_t block, index_t count,
                                        std::uint64_t seed);

    /// Appends this atom's columns for `row` to `out` as non-empty
    /// intervals, ascending and pairwise disjoint (neighbours may touch):
    /// one per band or block for the regular atoms, one unit interval per
    /// column for the element-wise ones (selected, dilated, random,
    /// clustered random). `valid_len` clips both the row and the columns:
    /// positions >= valid_len are zero padding and are masked out at
    /// metadata level (paper §2.2 "masking").
    void append_row_intervals(index_t seq_len, index_t valid_len,
                              index_t row,
                              std::vector<ColumnInterval> &out) const;

    /// True for patterns the slice-and-dice classifier sends to the
    /// coarse-grained (blocked) kernels: high spatial locality (§3.1).
    bool is_coarse() const;
    /// True for the global pattern, which Multigrain routes to dense
    /// kernels ("special" parts, §3.1/§3.3).
    bool is_special() const;

    std::string describe() const;
};

struct CompoundPattern {
    index_t seq_len = 0;
    /// Real tokens; [valid_len, seq_len) is zero padding. 0 means "all".
    index_t valid_len = 0;
    /// Autoregressive masking: keep only columns j <= i (decoder-style
    /// sparse transformers à la Child et al.; the paper's models are
    /// bidirectional encoders, so this defaults off). A causal pattern
    /// cannot contain global atoms — a one-to-all row is not causal.
    bool causal = false;
    std::vector<AtomicPattern> atoms;

    index_t effective_valid_len() const
    {
        return valid_len == 0 ? seq_len : valid_len;
    }

    /// Stable 64-bit content hash over everything that determines the
    /// pattern's part layouts: seq_len, valid_len, causal, and every field
    /// of every atom (including random seeds, so two patterns fingerprint
    /// equal iff their materialized layouts are equal). Deterministic
    /// across processes — the PlanCache key for slice-and-dice metadata
    /// and captured LaunchGraphs, and what mgprof prints to identify a
    /// workload's plan.
    std::uint64_t fingerprint() const;

    /// Throws Error unless the pattern can be materialized: seq_len > 0,
    /// valid_len in [0, seq_len], no global atom in a causal pattern, and
    /// every atom within the rules its factory enforces (tokens strictly
    /// ascending in [0, seq_len), window >= 0, stride >= 1, block > 0,
    /// count >= 0).
    void validate() const;

    std::string describe() const;
};

/// Generates the rows of the union of some of a pattern's atoms as column
/// intervals: each atom's intervals merged, then the causal clip applied.
/// The pattern must outlive the generator.
class UnionRows {
  public:
    /// Union of every atom of `pattern`.
    explicit UnionRows(const CompoundPattern &pattern);
    UnionRows(const CompoundPattern &pattern,
              std::vector<const AtomicPattern *> atoms);

    /// Row `row` of the union: sorted, disjoint and non-adjacent
    /// intervals, valid until the next call.
    const std::vector<ColumnInterval> &row(index_t row);

  private:
    const CompoundPattern &pattern_;
    std::vector<const AtomicPattern *> atoms_;
    std::vector<ColumnInterval> row_, atom_, merged_;
};

/// Builds the union layout of every atom (global rows fully dense). This is
/// the ground-truth attention pattern: every method (Multigrain, coarse-only
/// baseline, fine-only baseline) must attend exactly these positions.
CsrLayout build_full_layout(const CompoundPattern &pattern);

}  // namespace multigrain

#endif  // MULTIGRAIN_PATTERNS_PATTERN_H_
