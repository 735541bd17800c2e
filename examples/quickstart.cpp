// Quickstart: build a compound sparse attention pattern, slice and dice it,
// run the functional attention on all three processing methods, check the
// outputs against the FP64 dense reference, and compare simulated GPU time.
//
//   $ ./quickstart
//
// This is the five-minute tour of the library; see longformer_inference and
// qds_ranking for full-model scenarios.

#include <cstdio>

#include "core/attention.h"
#include "gpusim/device.h"
#include "kernels/reference.h"
#include "patterns/pattern.h"

using namespace multigrain;

int
main()
{
    // 1. A compound sparse pattern: a +-32 local band, two "selected"
    //    columns every row attends to, one global token that attends to
    //    everything, and ~8 random columns per row.
    CompoundPattern pattern;
    pattern.seq_len = 512;
    pattern.atoms.push_back(AtomicPattern::local(32));
    pattern.atoms.push_back(AtomicPattern::selected({0, 256}));
    pattern.atoms.push_back(AtomicPattern::global({0}));
    pattern.atoms.push_back(AtomicPattern::random(8, /*seed=*/42));
    std::printf("pattern: %s\n", pattern.describe().c_str());

    // 2. Random FP16 Q/K/V for a single 64-dim head.
    AttentionConfig config;
    config.head_dim = 64;
    config.block = 64;
    Rng rng(7);
    const HalfMatrix q =
        random_half_matrix(rng, pattern.seq_len, config.head_dim);
    const HalfMatrix k =
        random_half_matrix(rng, pattern.seq_len, config.head_dim);
    const HalfMatrix v =
        random_half_matrix(rng, pattern.seq_len, config.head_dim);

    // 3. One engine per processing method. kMultigrain slices the pattern
    //    into a coarse BSR part, a fine CSR part, and dense global rows;
    //    the baselines force everything through one granularity.
    const CsrLayout full = build_full_layout(pattern);
    std::printf("\n%-14s %10s %10s %12s %14s\n", "method", "coarse",
                "fine", "global rows", "sim time (us)");
    for (const SliceMode mode :
         {SliceMode::kMultigrain, SliceMode::kCoarseOnly,
          SliceMode::kFineOnly}) {
        const AttentionEngine engine(pattern, config, mode);

        // Functional result, validated against the FP64 dense reference.
        const HalfMatrix out = engine.run(q, k, v);
        const DoubleMatrix ref = kernels::ref_attention(
            q, k, v, full, config.effective_scale());
        const double err = kernels::max_abs_diff(widen(out), ref);
        if (err > 0.05) {
            std::printf("method %s diverged from the reference: %g\n",
                        to_string(mode), err);
            return 1;
        }

        // Simulated execution on the paper's A100 model.
        const sim::SimResult sim = engine.simulate(sim::DeviceSpec::a100());
        std::printf("%-14s %10lld %10lld %12zu %14.1f   (max err %.4f)\n",
                    to_string(mode),
                    static_cast<long long>(
                        engine.plan().coarse_valid_elements()),
                    static_cast<long long>(engine.plan().fine_elements()),
                    engine.plan().global_rows.size(), sim.total_us, err);
    }

    std::printf("\nAll three methods attend the same %lld positions and "
                "agree with the dense reference.\n",
                static_cast<long long>(full.nnz()));
    return 0;
}
