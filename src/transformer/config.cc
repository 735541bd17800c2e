#include "transformer/config.h"

#include "common/error.h"

namespace multigrain {

ModelConfig
ModelConfig::longformer_large()
{
    ModelConfig c;
    c.name = "Longformer-large";
    c.num_layers = 24;
    c.d_model = 1024;
    c.num_heads = 16;
    c.ffn_dim = 4096;
    c.max_seq_len = 4096;
    c.local_window = 256;  // Two-sided window 512, as released.
    c.block = 64;
    c.has_global_rows = true;
    c.family = PatternFamily::kLongformer;
    return c;
}

ModelConfig
ModelConfig::qds_base()
{
    ModelConfig c;
    c.name = "QDS-Transformer-base";
    c.num_layers = 12;
    c.d_model = 768;
    c.num_heads = 12;
    c.ffn_dim = 3072;
    c.max_seq_len = 2048;
    c.local_window = 64;  // Two-sided window 128.
    c.block = 64;
    c.has_global_rows = false;  // Local + selected only (§4).
    c.family = PatternFamily::kQds;
    return c;
}

ModelConfig
ModelConfig::bigbird_etc_base()
{
    ModelConfig c;
    c.name = "BigBird-ETC-base";
    c.num_layers = 12;
    c.d_model = 768;
    c.num_heads = 12;
    c.ffn_dim = 3072;
    c.max_seq_len = 4096;
    c.local_window = 96;  // ~3 blocks of the blocked band.
    c.block = 64;
    c.has_global_rows = true;  // ETC global tokens.
    c.family = PatternFamily::kBigBird;
    c.random_blocks = 3;  // BigBird's num_random_blocks.
    return c;
}

ModelConfig
ModelConfig::poolingformer_base()
{
    ModelConfig c;
    c.name = "Poolingformer-base";
    c.num_layers = 12;
    c.d_model = 768;
    c.num_heads = 12;
    c.ffn_dim = 3072;
    c.max_seq_len = 4096;
    c.local_window = 128;  // First-level sliding window.
    c.block = 64;
    c.has_global_rows = false;
    c.family = PatternFamily::kPoolingformer;
    c.dilated_window = 64;  // Second-level pooled window: 64 strided taps.
    c.dilated_stride = 16;
    return c;
}

ModelConfig
ModelConfig::tiny_test()
{
    ModelConfig c;
    c.name = "tiny-test";
    c.num_layers = 2;
    c.d_model = 64;
    c.num_heads = 4;
    c.ffn_dim = 128;
    c.max_seq_len = 128;
    c.local_window = 8;
    c.block = 16;
    c.has_global_rows = true;
    c.family = PatternFamily::kLongformer;
    return c;
}

ModelConfig
model_config_by_name(const std::string &name)
{
    if (name == "longformer") {
        return ModelConfig::longformer_large();
    }
    if (name == "qds") {
        return ModelConfig::qds_base();
    }
    if (name == "bigbird") {
        return ModelConfig::bigbird_etc_base();
    }
    if (name == "poolingformer") {
        return ModelConfig::poolingformer_base();
    }
    if (name == "tiny") {
        return ModelConfig::tiny_test();
    }
    throw Error("unknown model \"" + name +
                "\" (longformer|qds|bigbird|poolingformer|tiny)");
}

}  // namespace multigrain
