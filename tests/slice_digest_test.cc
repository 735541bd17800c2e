// Golden digests of slice-and-dice output: every layout a SlicePlan
// carries, hashed byte for byte, across the model workloads, the serving
// bucket, the figure presets, a causal pattern and the global-routing
// ablation.
//
// The digests were pinned before slicing moved from element-wise unions to
// per-row column intervals, so matching them proves the interval path
// builds the same coarse BSR, fine CSR, global rows and full layout.
// Multigrain and coarse-only plans no longer carry the full layout; for
// those the digest hashes build_full_layout(pattern), which must equal
// what the plan used to carry.

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "patterns/presets.h"
#include "patterns/slice.h"
#include "transformer/config.h"
#include "transformer/workload.h"

namespace multigrain {
namespace {

/// FNV-1a over 64-bit words.
class Digest {
  public:
    void mix(std::uint64_t v)
    {
        for (int byte = 0; byte < 8; ++byte) {
            h_ = (h_ ^ ((v >> (8 * byte)) & 0xffu)) * 1099511628211ull;
        }
    }
    template <typename T>
    void mix(const std::vector<T> &values)
    {
        mix(values.size());
        for (const T v : values) {
            mix(static_cast<std::uint64_t>(v));
        }
    }
    std::string hex() const
    {
        char buf[24];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

void
mix_csr(Digest &d, const CsrLayout &l)
{
    d.mix(static_cast<std::uint64_t>(l.rows));
    d.mix(static_cast<std::uint64_t>(l.cols));
    d.mix(l.row_offsets);
    d.mix(l.col_indices);
}

/// The full layout a plan attends: carried by fine-only and dense plans,
/// rebuilt from the pattern for the others.
CsrLayout
full_layout(const SlicePlan &plan, const CompoundPattern &pattern)
{
    return plan.full ? *plan.full : build_full_layout(pattern);
}

std::string
digest(const CompoundPattern &pattern, const SliceOptions &options)
{
    const SlicePlan plan = slice_and_dice(pattern, options);
    Digest d;
    d.mix(static_cast<std::uint64_t>(plan.seq_len));
    d.mix(static_cast<std::uint64_t>(plan.valid_len));
    d.mix(static_cast<std::uint64_t>(plan.block));
    d.mix(plan.coarse ? 1 : 0);
    if (plan.coarse) {
        d.mix(static_cast<std::uint64_t>(plan.coarse->rows));
        d.mix(static_cast<std::uint64_t>(plan.coarse->cols));
        d.mix(static_cast<std::uint64_t>(plan.coarse->block));
        d.mix(plan.coarse->row_offsets);
        d.mix(plan.coarse->col_indices);
        d.mix(plan.coarse->valid_bits);
    }
    d.mix(plan.fine ? 1 : 0);
    if (plan.fine) {
        mix_csr(d, *plan.fine);
    }
    d.mix(plan.global_rows);
    mix_csr(d, full_layout(plan, pattern));
    return d.hex();
}

constexpr SliceMode kModes[] = {SliceMode::kMultigrain,
                                SliceMode::kCoarseOnly,
                                SliceMode::kFineOnly, SliceMode::kDense};

/// Digests of `pattern` in the four modes, joined by spaces.
std::string
mode_digests(const CompoundPattern &pattern, index_t block)
{
    std::string out;
    for (const SliceMode mode : kModes) {
        SliceOptions options;
        options.block = block;
        options.mode = mode;
        if (!out.empty()) {
            out += ' ';
        }
        out += digest(pattern, options);
    }
    return out;
}

/// The model's first dataset sample from seed 2022 that fills the window
/// (`full`) or leaves padding (`!full`).
WorkloadSample
model_sample(const ModelConfig &model, bool full)
{
    Rng rng(2022);
    for (;;) {
        WorkloadSample s = sample_for_model(rng, model);
        if ((s.valid_len == model.max_seq_len) == full) {
            return s;
        }
    }
}

struct Golden {
    const char *name;
    const char *digests;
};

TEST(SliceDigestTest, ModelsFullWindowAndPadded)
{
    static const Golden kGolden[] = {
        {"longformer/full",
         "e467f269dc78bdb6 b0a8c7bbf11e6e7a "
         "3bff03303ec0d1fa 69a05bc203eeac33"},
        {"longformer/padded",
         "31f10b8d0a24e706 18c6457034047e5d "
         "875581f1291c85cc cd4efd8dfd08d454"},
        {"qds/full",
         "f86d2820b266bd3c 5d1b0af7813ef7ee "
         "c8f7e35b6f9ded36 ebb43d548c34ddb9"},
        {"qds/padded",
         "9e59069ceddd5ea3 9bf76ad60f6dd955 "
         "0620d4a4d4b77e13 18846df68386bd58"},
        {"bigbird/full",
         "d69c980b026737e6 bd1679dce85e451b "
         "f0a01d898af82fc2 03135ed3553cb7e7"},
        {"bigbird/padded",
         "0cae53a006d578ee 5b64572e5ab9f647 "
         "4c64d314b85b68bc e23993e815b9c8dc"},
        {"poolingformer/full",
         "dafe9018df289ccb e1f63be96745b6c4 "
         "331aaa92dcadaa92 d2bd2f2b6db960bb"},
        {"poolingformer/padded",
         "24b80bf2b9191b98 4e53a2482880ea7b "
         "115dea78f0f7c05e 939093ffe02bf0e6"},
    };
    for (const Golden &g : kGolden) {
        const std::string name = g.name;
        const std::string model_name = name.substr(0, name.find('/'));
        const ModelConfig model = model_config_by_name(model_name);
        const bool full = name.ends_with("/full");
        const CompoundPattern pattern =
            build_model_pattern(model, model_sample(model, full));
        EXPECT_EQ(mode_digests(pattern, model.block), g.digests) << name;
    }
}

TEST(SliceDigestTest, QdsServingBucket)
{
    const ModelConfig model = bucketed_model(ModelConfig::qds_base(), 512);
    const CompoundPattern pattern =
        build_model_pattern(model, canonical_bucket_sample(model, 512));
    EXPECT_EQ(mode_digests(pattern, model.block),
              "80a24631864bdc35 92f986a287c437b7 "
              "0f2bdad81faf6642 18e6a249e19ccb4f");
}

TEST(SliceDigestTest, Fig9Presets)
{
    static const char *const kGolden[] = {
        "980cca7b9082971e 7cdbdcc659127e0d "
        "aad79d125e3a3866 69248d55a46eb9be",
        "25547a4452d5407f 85a82f000aa425cc "
        "7af3e47fd1fc1656 0f1fa24714809a85",
        "156341d5333e34ce 2026af02fed7aabd "
        "8f4230fe0f64c82a 7e6de0065511adfb",
        "e4a48402b4386365 89d3bfbde0fec9ff "
        "68ea3f29da9799fe 200fe8a8cc5f49ad",
        "19a3c07859f29bcf 1d034e70b56fa865 "
        "73f342256b209286 676da8f89f3998e6",
    };
    const auto patterns = fig9_patterns(256, 0.08, 17);
    ASSERT_EQ(patterns.size(), std::size(kGolden));
    for (std::size_t i = 0; i < patterns.size(); ++i) {
        EXPECT_EQ(mode_digests(patterns[i].pattern, 64), kGolden[i])
            << patterns[i].label;
    }
}

TEST(SliceDigestTest, Fig11Presets)
{
    static const char *const kGolden[] = {
        "ea31e071a042f849 ea31e071a042f849 "
        "17f722a56ac0bfb6 d5af72d0651dd43a",
        "a1af0da2403d47c7 a1af0da2403d47c7 "
        "e96d4fdccab7a572 860181482e283ac5",
        "ce955e4b71bce152 ce955e4b71bce152 "
        "20d6b835e1b69662 d4beb684c154f074",
    };
    const auto patterns = fig11_patterns(4096, 2022);
    ASSERT_EQ(patterns.size(), std::size(kGolden));
    for (std::size_t i = 0; i < patterns.size(); ++i) {
        EXPECT_EQ(mode_digests(patterns[i].pattern, 64), kGolden[i])
            << patterns[i].label;
    }
}

TEST(SliceDigestTest, CausalPattern)
{
    CompoundPattern p;
    p.seq_len = 256;
    p.valid_len = 250;
    p.causal = true;
    p.atoms.push_back(AtomicPattern::local(6));
    p.atoms.push_back(AtomicPattern::dilated(4, 16));
    p.atoms.push_back(AtomicPattern::selected({0, 3, 77, 200, 249}));
    p.atoms.push_back(AtomicPattern::random(5, 11));
    p.atoms.push_back(AtomicPattern::blocked_random(32, 2, 13));
    EXPECT_EQ(mode_digests(p, 32),
              "514ebc618f0bd061 bbefab91a4f6a797 "
              "afb14327d3c73c63 ea53071a06717ea2");
}

TEST(SliceDigestTest, GlobalRoutingAblation)
{
    const ModelConfig model = ModelConfig::longformer_large();
    const CompoundPattern pattern =
        build_model_pattern(model, model_sample(model, false));
    SliceOptions options;
    options.block = model.block;
    options.route_global_to_dense = false;
    EXPECT_EQ(digest(pattern, options), "899ed23c5e4f90ec");
}

}  // namespace
}  // namespace multigrain
