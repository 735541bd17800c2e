// Longformer-large inference on a HotpotQA-style input: the paper's §5.1
// headline scenario. Draws a synthetic multi-hop-QA sample (question tokens
// get global attention, paragraph separators are selected), builds the
// model's compound pattern, and simulates one full forward pass under all
// three processing methods on both evaluation GPUs, with a per-phase
// breakdown for Multigrain.
//
//   $ ./longformer_inference [seed] [trace.json]
//
// With a second argument, the A100 Multigrain timeline is written as a
// Chrome trace (open in chrome://tracing or ui.perfetto.dev) — the
// coarse ∥ fine ∥ global multi-stream overlap is directly visible there.

#include <cstdio>
#include <cstdlib>

#include "gpusim/device.h"
#include "gpusim/trace.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"

using namespace multigrain;

int
main(int argc, char **argv)
{
    const std::uint64_t seed =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2022;

    const ModelConfig model = ModelConfig::longformer_large();
    Rng rng(seed);
    const WorkloadSample sample = sample_hotpotqa(rng, model);
    std::printf("model: %s (%lld layers, d=%lld, %lld heads, L=%lld)\n",
                model.name.c_str(),
                static_cast<long long>(model.num_layers),
                static_cast<long long>(model.d_model),
                static_cast<long long>(model.num_heads),
                static_cast<long long>(model.max_seq_len));
    std::printf("input: %lld real tokens, %zu special (global) tokens\n\n",
                static_cast<long long>(sample.valid_len),
                sample.special_tokens.size());

    for (const sim::DeviceSpec &device :
         {sim::DeviceSpec::a100(), sim::DeviceSpec::rtx3090()}) {
        std::printf("== %s ==\n", device.name.c_str());
        // Multigrain runs first, so each baseline's line can say how much
        // slower it is.
        const EndToEndResult r =
            TransformerRunner(model, SliceMode::kMultigrain, sample,
                              /*batch=*/1)
                .simulate(device);
        const auto print = [](SliceMode mode, const EndToEndResult &m) {
            std::printf("  %-12s total %8.2f ms   attention %7.2f ms   "
                        "DRAM %6.2f GB",
                        to_string(mode), m.total_us / 1000.0,
                        m.attention_us / 1000.0, m.dram_bytes / 1e9);
        };
        for (const SliceMode mode :
             {SliceMode::kCoarseOnly, SliceMode::kFineOnly}) {
            const EndToEndResult base =
                TransformerRunner(model, mode, sample, 1).simulate(device);
            print(mode, base);
            std::printf("   (%.2fx vs Multigrain)\n",
                        base.total_us / r.total_us);
        }
        print(SliceMode::kMultigrain, r);
        std::printf("\n");

        // Per-phase view of Multigrain's first layer: the coarse, fine and
        // global parts of SDDMM/SpMM run concurrently on separate streams.
        if (argc > 2 && device.name == "A100") {
            sim::TraceOptions options;
            options.device = &device;
            sim::write_chrome_trace_file(r.sim, argv[2], options);
            std::printf("  wrote Chrome trace to %s\n", argv[2]);
        }
        std::printf("  layer 0 Multigrain attention kernels:\n");
        for (const auto &k : r.sim.kernels) {
            if (k.name.rfind("L00.attn.", 0) == 0) {
                std::printf("    %-28s stream %d  [%9.1f, %9.1f] us  "
                            "(%lld TBs)\n",
                            k.name.c_str(), k.stream, k.start_us, k.end_us,
                            static_cast<long long>(k.num_tbs));
            }
        }
    }
    return 0;
}
