#include "transformer/workload.h"

#include <algorithm>
#include <string>

#include "common/error.h"
#include "common/timer.h"

namespace multigrain {

namespace {

/// Clamps and sorts special tokens into [0, valid_len) without duplicates.
std::vector<index_t>
finalize_tokens(std::vector<index_t> tokens, index_t valid_len)
{
    std::vector<index_t> out;
    out.reserve(tokens.size());
    for (const index_t t : tokens) {
        if (t >= 0 && t < valid_len) {
            out.push_back(t);
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

}  // namespace

WorkloadSample
sample_hotpotqa(Rng &rng, const ModelConfig &config)
{
    WorkloadSample s;
    const index_t cap = config.max_seq_len;
    // HotpotQA contexts (10 paragraphs) mostly exceed the window; lengths
    // concentrate near the cap with a tail of shorter inputs.
    const index_t lo = std::max<index_t>(cap / 2, 16);
    s.valid_len = std::min(cap, rng.next_range(lo, cap + cap / 4));

    std::vector<index_t> tokens;
    tokens.push_back(0);  // CLS.
    const index_t question = rng.next_range(15, 45);
    for (index_t t = 1; t <= question && t < s.valid_len; ++t) {
        tokens.push_back(t);  // Question tokens get global attention.
    }
    // Paragraph separators through the context.
    index_t pos = question + 1;
    while (pos < s.valid_len) {
        pos += rng.next_range(100, 200);
        tokens.push_back(pos);
    }
    s.special_tokens = finalize_tokens(std::move(tokens), s.valid_len);
    return s;
}

WorkloadSample
sample_msmarco(Rng &rng, const ModelConfig &config)
{
    WorkloadSample s;
    const index_t cap = config.max_seq_len;
    // MARCO document lengths are broadly distributed under the cap.
    s.valid_len = std::min(cap, rng.next_range(cap / 3, cap + cap / 8));

    std::vector<index_t> tokens;
    tokens.push_back(0);  // CLS.
    const index_t query = rng.next_range(3, 12);
    for (index_t t = 1; t <= query && t < s.valid_len; ++t) {
        tokens.push_back(t);
    }
    // Sentence separators: QDS-Transformer attends every sentence head.
    index_t pos = query + 1;
    while (pos < s.valid_len) {
        pos += rng.next_range(25, 60);
        tokens.push_back(pos);
    }
    s.special_tokens = finalize_tokens(std::move(tokens), s.valid_len);
    return s;
}

WorkloadSample
sample_for_model(Rng &rng, const ModelConfig &config)
{
    if (config.has_global_rows) {
        return sample_hotpotqa(rng, config);
    }
    return sample_msmarco(rng, config);
}

index_t
bucket_len(index_t valid_len, index_t granularity, index_t cap)
{
    MG_CHECK(granularity > 0) << "bucket granularity must be positive";
    MG_CHECK(cap >= granularity)
        << "cap " << cap << " below bucket granularity " << granularity;
    if (valid_len < 1) {
        valid_len = 1;
    }
    const index_t rounded =
        (valid_len + granularity - 1) / granularity * granularity;
    return std::min(rounded, cap);
}

WorkloadSample
canonical_bucket_sample(const ModelConfig &config, index_t bucket)
{
    WorkloadSample s;
    s.valid_len = bucket;
    std::vector<index_t> tokens;
    tokens.push_back(0);  // CLS.
    // A fixed prefix of special tokens stands in for the question/query
    // span, and fixed-stride separators for the paragraph/sentence heads;
    // midpoints of the generators' ranges, so bucketed metadata carries
    // the same density the per-request samples would on average.
    const index_t prefix = config.has_global_rows ? 30 : 8;
    const index_t stride = config.has_global_rows ? 150 : 40;
    for (index_t t = 1; t <= prefix && t < bucket; ++t) {
        tokens.push_back(t);
    }
    for (index_t pos = prefix + stride; pos < bucket; pos += stride) {
        tokens.push_back(pos);
    }
    s.special_tokens = finalize_tokens(std::move(tokens), bucket);
    return s;
}

ModelConfig
bucketed_model(const ModelConfig &config, index_t bucket)
{
    MG_CHECK(bucket > 0 && bucket % config.block == 0)
        << "bucket " << bucket << " is not a positive multiple of block "
        << config.block;
    MG_CHECK(bucket <= config.max_seq_len)
        << "bucket " << bucket << " exceeds model cap "
        << config.max_seq_len;
    ModelConfig bucketed = config;
    bucketed.max_seq_len = bucket;
    return bucketed;
}

CompoundPattern
build_model_pattern(const ModelConfig &config, const WorkloadSample &sample)
{
    const ScopedTimer timer("offline.build_model_pattern");
    MG_CHECK(sample.valid_len > 0 && sample.valid_len <= config.max_seq_len)
        << "sample valid_len " << sample.valid_len
        << " out of range for model cap " << config.max_seq_len;
    CompoundPattern pattern;
    pattern.seq_len = config.max_seq_len;
    pattern.valid_len = sample.valid_len;

    switch (config.family) {
      case PatternFamily::kLongformer:
      case PatternFamily::kQds:
        pattern.atoms.push_back(AtomicPattern::local(config.local_window));
        pattern.atoms.push_back(
            AtomicPattern::selected(sample.special_tokens));
        break;
      case PatternFamily::kBigBird: {
        // Blocked band of ~local_window reach plus random blocks; random
        // draws are input dependent (seeded from the sample).
        const index_t radius =
            std::max<index_t>(1, config.local_window / config.block);
        pattern.atoms.push_back(
            AtomicPattern::blocked_local(config.block, radius));
        pattern.atoms.push_back(AtomicPattern::blocked_random(
            config.block, config.random_blocks,
            0x9e3779b97f4a7c15ull ^
                static_cast<std::uint64_t>(sample.valid_len)));
        pattern.atoms.push_back(
            AtomicPattern::selected(sample.special_tokens));
        break;
      }
      case PatternFamily::kPoolingformer:
        pattern.atoms.push_back(AtomicPattern::local(config.local_window));
        pattern.atoms.push_back(AtomicPattern::dilated(
            config.dilated_window, config.dilated_stride));
        break;
    }
    if (config.has_global_rows) {
        pattern.atoms.push_back(AtomicPattern::global(sample.special_tokens));
    }
    return pattern;
}

}  // namespace multigrain
