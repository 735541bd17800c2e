// Training-step demo: the backward pass extension. Two parts:
//
//  1. Functional gradient check: a Multigrain attention backward on a
//     compound pattern against the FP64 analytic reference.
//  2. Performance: one full forward+backward training step of
//     QDS-Transformer-base on the A100 model under the three processing
//     methods — showing the slice-and-dice advantage carries to training,
//     where every sparse op appears again (transposed) in the backward.
//
//   $ ./training_step

#include <cstdio>

#include "core/attention.h"
#include "gpusim/device.h"
#include "kernels/reference.h"
#include "patterns/presets.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"

using namespace multigrain;

int
main()
{
    // ---- Part 1: gradient check. ----------------------------------------
    const index_t seq = 128, dh = 32;
    CompoundPattern pattern;
    pattern.seq_len = seq;
    pattern.atoms.push_back(AtomicPattern::local(8));
    pattern.atoms.push_back(AtomicPattern::selected({0, 64}));
    pattern.atoms.push_back(AtomicPattern::global({0}));

    AttentionConfig config;
    config.head_dim = dh;
    config.block = 32;
    const AttentionEngine engine(pattern, config, SliceMode::kMultigrain);

    Rng rng(5);
    const HalfMatrix q = random_half_matrix(rng, seq, dh, -0.5f, 0.5f);
    const HalfMatrix k = random_half_matrix(rng, seq, dh, -0.5f, 0.5f);
    const HalfMatrix v = random_half_matrix(rng, seq, dh, -0.5f, 0.5f);
    const HalfMatrix d_out = random_half_matrix(rng, seq, dh, -0.5f, 0.5f);

    const AttentionEngine::Grads grads = engine.run_backward(q, k, v, d_out);
    const kernels::RefAttentionGrads ref = kernels::ref_attention_backward(
        q, k, v, build_full_layout(pattern), config.effective_scale(),
        widen(d_out));
    std::printf("gradient check vs FP64 reference (max abs err):\n");
    std::printf("  dQ %.5f   dK %.5f   dV %.5f\n",
                kernels::max_abs_diff(widen(grads.dq), ref.dq),
                kernels::max_abs_diff(widen(grads.dk), ref.dk),
                kernels::max_abs_diff(widen(grads.dv), ref.dv));

    // ---- Part 2: training-step timing. ----------------------------------
    const ModelConfig model = ModelConfig::qds_base();
    Rng wl(3);
    const WorkloadSample sample = sample_for_model(wl, model);
    std::printf("\n%s training step on A100 (batch 4):\n",
                model.name.c_str());
    for (const SliceMode mode :
         {SliceMode::kCoarseOnly, SliceMode::kFineOnly,
          SliceMode::kMultigrain}) {
        const TransformerRunner runner(model, mode, sample, 4);
        const EndToEndResult fwd = runner.simulate(sim::DeviceSpec::a100());
        const EndToEndResult step =
            runner.simulate_training(sim::DeviceSpec::a100());
        std::printf("  %-12s forward %8.2f ms   fwd+bwd %8.2f ms "
                    "(attention %6.2f ms)\n",
                    to_string(mode), fwd.total_us / 1000.0,
                    step.total_us / 1000.0, step.attention_us / 1000.0);
    }
    return 0;
}
