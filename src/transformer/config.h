#ifndef MULTIGRAIN_TRANSFORMER_CONFIG_H_
#define MULTIGRAIN_TRANSFORMER_CONFIG_H_

#include <string>

#include "common/util.h"

/// Sparse transformer model configurations (paper §4).
///
/// Longformer-large (HuggingFace release) and QDS-Transformer-base (the
/// official release) are the two compound-sparse-attention models the
/// paper evaluates end-to-end. The local windows are chosen so the
/// sparse:dense block ratios match the paper's §5.1 discussion (1:3 for
/// Longformer, 2:1 for QDS at block 64).
namespace multigrain {

/// Which compound pattern family the model's attention uses (§2.3).
enum class PatternFamily {
    kLongformer,     ///< local + selected + global.
    kQds,            ///< local + selected.
    kBigBird,        ///< blocked local + blocked random + selected + global.
    kPoolingformer,  ///< local + dilated (two-level window).
};

struct ModelConfig {
    std::string name;
    index_t num_layers = 0;
    index_t d_model = 0;
    index_t num_heads = 0;
    index_t ffn_dim = 0;
    index_t max_seq_len = 0;
    /// One-sided local attention reach (the paper's "window" is two-sided:
    /// window = 2 * local_window).
    index_t local_window = 0;
    index_t block = 64;
    /// Longformer adds one-to-all (global) rows for its special tokens;
    /// QDS-Transformer only uses the all-to-one (selected) columns.
    bool has_global_rows = false;
    PatternFamily family = PatternFamily::kLongformer;
    /// BigBird: expected random blocks per block row.
    index_t random_blocks = 0;
    /// Poolingformer: second-level (pooled) window reach and stride.
    index_t dilated_window = 0;
    index_t dilated_stride = 1;

    index_t head_dim() const { return d_model / num_heads; }

    /// Longformer-large: 24 layers, d=1024, 16 heads, L=4096, window 512.
    static ModelConfig longformer_large();
    /// QDS-Transformer-base: 12 layers, d=768, 12 heads, L=2048, window 128.
    static ModelConfig qds_base();
    /// BigBird-ETC-base (§2.3): blocked local + random blocks + global
    /// tokens; 12 layers, d=768, 12 heads, L=4096.
    static ModelConfig bigbird_etc_base();
    /// Poolingformer-base (§2.3): two-level window (sliding + pooled);
    /// 12 layers, d=768, 12 heads, L=4096.
    static ModelConfig poolingformer_base();
    /// A small configuration for functional tests and the quickstart
    /// example (fast to run on the CPU).
    static ModelConfig tiny_test();
};

/// Looks a model up by its CLI name ("longformer" | "qds" | "bigbird" |
/// "poolingformer" | "tiny"); throws Error on anything else. This is the
/// workload table mgprof, mgperf, and the bench presets share.
ModelConfig model_config_by_name(const std::string &name);

}  // namespace multigrain

#endif  // MULTIGRAIN_TRANSFORMER_CONFIG_H_
