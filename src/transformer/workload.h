#ifndef MULTIGRAIN_TRANSFORMER_WORKLOAD_H_
#define MULTIGRAIN_TRANSFORMER_WORKLOAD_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/util.h"
#include "patterns/pattern.h"
#include "transformer/config.h"

/// Synthetic end-to-end workloads standing in for the paper's datasets
/// (§4: HotpotQA for Longformer, MS MARCO documents for QDS-Transformer).
///
/// The real datasets influence the measured kernels through exactly two
/// knobs: the effective sequence length (zero padding) and the positions
/// of the special tokens that receive global/selected attention (question
/// tokens and separators for HotpotQA; CLS + query + sentence separators
/// for MS MARCO document ranking). The generators below draw both from
/// distributions matching the datasets' published statistics, seeded and
/// deterministic (DESIGN.md §1, substitution table).
namespace multigrain {

struct WorkloadSample {
    /// Real tokens; the rest of max_seq_len is zero padding.
    index_t valid_len = 0;
    /// Positions of special tokens (sorted): global rows for Longformer,
    /// selected columns for both models.
    std::vector<index_t> special_tokens;
};

/// HotpotQA-style multi-hop QA inputs: a 15-45-token question (all its
/// tokens are special) plus paragraph separators roughly every 100-200
/// tokens; documents mostly fill the 4096 window.
WorkloadSample sample_hotpotqa(Rng &rng, const ModelConfig &config);

/// MS MARCO document-ranking inputs: CLS + a short query (3-12 tokens)
/// plus sentence separators roughly every 25-60 tokens; document lengths
/// spread widely below the 2048 cap.
WorkloadSample sample_msmarco(Rng &rng, const ModelConfig &config);

/// Dispatches on the model name (Longformer -> HotpotQA, QDS -> MARCO).
WorkloadSample sample_for_model(Rng &rng, const ModelConfig &config);

/// Builds the model's compound sparse pattern for one input sample:
/// local(window) + selected(special) [+ global(special) when the model has
/// one-to-all rows].
CompoundPattern build_model_pattern(const ModelConfig &config,
                                    const WorkloadSample &sample);

// ---- Sequence-length bucketing (the serving layer's plan-reuse knob) ----
//
// A serving system cannot afford one slice-and-dice pass per request: the
// §3.1 offline cost is amortizable only if many requests share a pattern
// fingerprint. mgserve therefore pads every request's sequence length up
// to a bucket boundary and replaces its per-request special-token
// metadata with a canonical per-bucket layout, so every request in the
// same (model, bucket) resolves to the same CompoundPattern fingerprint —
// and the whole batch replays one PlanCache'd layer graph.

/// `valid_len` rounded up to a multiple of `granularity` and clamped to
/// [granularity, cap]. `granularity` must be positive and a multiple of
/// the model block size for the resulting pattern to stay block-aligned.
index_t bucket_len(index_t valid_len, index_t granularity, index_t cap);

/// The canonical fully-packed sample for one bucket: valid_len ==
/// bucket, CLS + a fixed special-token layout derived from the model
/// family's separator statistics (HotpotQA ~150-token paragraphs for
/// global-row models, MARCO ~40-token sentences otherwise). Deterministic
/// — no RNG — so two requests bucketed together share a fingerprint.
WorkloadSample canonical_bucket_sample(const ModelConfig &config,
                                       index_t bucket);

/// `config` shrunk to serve one bucket: max_seq_len = bucket (dense GEMM
/// and attention dims follow). Throws when the bucket is not a positive
/// multiple of the model block or exceeds the model's trained cap.
ModelConfig bucketed_model(const ModelConfig &config, index_t bucket);

}  // namespace multigrain

#endif  // MULTIGRAIN_TRANSFORMER_WORKLOAD_H_
