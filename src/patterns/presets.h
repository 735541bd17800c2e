#ifndef MULTIGRAIN_PATTERNS_PRESETS_H_
#define MULTIGRAIN_PATTERNS_PRESETS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "patterns/pattern.h"

/// The synthetic compound patterns of the paper's evaluation.
///
/// Figure 9/10 run the sparse operations on five compound patterns at 95 %
/// row sparsity (L: local, S: selected, G: global, R: random, LB: blocked
/// local, RB: blocked random); Figures 11/12 run the coarse kernels on the
/// three coarse patterns, with parameters "decided based on Longformer and
/// QDS-Transformer" (§5.3). The paper does not publish the per-atom
/// budgets, so the presets split the nonzero budget ~80/20 between the
/// locality-bearing atom and the fine atoms and derive every parameter
/// from (seq_len, density); the split is recorded in EXPERIMENTS.md.
namespace multigrain {

struct NamedPattern {
    std::string label;
    CompoundPattern pattern;
};

/// L+S: local window + selected columns.
CompoundPattern preset_local_selected(index_t seq_len, double density,
                                      std::uint64_t seed);
/// LB+R: blocked local band + random elements.
CompoundPattern preset_blockedlocal_random(index_t seq_len, double density,
                                           std::uint64_t seed);
/// RB+R: blocked random + random elements.
CompoundPattern preset_blockedrandom_random(index_t seq_len, double density,
                                            std::uint64_t seed);
/// L+S+G: local + selected + global rows.
CompoundPattern preset_local_selected_global(index_t seq_len, double density,
                                             std::uint64_t seed);
/// LB+R+G: blocked local + random + global rows.
CompoundPattern preset_blockedlocal_random_global(index_t seq_len,
                                                  double density,
                                                  std::uint64_t seed);

/// The five Fig. 9 / Fig. 10 compound patterns, in the paper's order
/// (the two global-bearing patterns last).
std::vector<NamedPattern> fig9_patterns(index_t seq_len, double density,
                                        std::uint64_t seed);

/// The three Fig. 11 / Fig. 12 coarse-only patterns: local (Longformer's
/// window), blocked local, and blocked random of matching block budget.
std::vector<NamedPattern> fig11_patterns(index_t seq_len,
                                         std::uint64_t seed);

/// Evenly spread token positions with seeded jitter — stands in for
/// data-dependent special-token locations in the synthetic patterns.
std::vector<index_t> spread_tokens(index_t seq_len, index_t count,
                                   std::uint64_t seed);

/// Token positions in multi-token bursts (question words, entity spans,
/// separator runs): `count` tokens in bursts of ~`burst` consecutive
/// positions, bursts spread across the sequence. Special tokens land this
/// way in real inputs, which keeps the number of distinct block-columns —
/// and therefore the coarse-only baseline's blockification — bounded.
std::vector<index_t> burst_tokens(index_t seq_len, index_t count,
                                  index_t burst, std::uint64_t seed);

}  // namespace multigrain

#endif  // MULTIGRAIN_PATTERNS_PRESETS_H_
