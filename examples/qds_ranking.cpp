// QDS-Transformer document ranking, the paper's second end-to-end scenario
// (MS MARCO, §4): the full QDS-Transformer-base reranking cost per
// document on the A100 model under the three processing methods (the
// paper's Fig. 7 QDS columns: Multigrain ~1.55x over Triton and ~1.08x
// over Sputnik).
//
//   $ ./qds_ranking

#include <cstdio>

#include "gpusim/device.h"
#include "transformer/config.h"
#include "transformer/runner.h"
#include "transformer/workload.h"

using namespace multigrain;

int
main()
{
    const ModelConfig qds = ModelConfig::qds_base();
    Rng wl(3);
    const WorkloadSample sample = sample_msmarco(wl, qds);
    std::printf("%s per-document inference on A100 (L=%lld, doc %lld "
                "tokens, %zu selected):\n",
                qds.name.c_str(), static_cast<long long>(qds.max_seq_len),
                static_cast<long long>(sample.valid_len),
                sample.special_tokens.size());
    double mg = 0;
    for (const SliceMode mode :
         {SliceMode::kCoarseOnly, SliceMode::kFineOnly,
          SliceMode::kMultigrain}) {
        const TransformerRunner runner(qds, mode, sample, 1);
        const EndToEndResult r = runner.simulate(sim::DeviceSpec::a100());
        if (mode == SliceMode::kMultigrain) {
            mg = r.total_us;
        }
        std::printf("  %-12s %8.2f ms\n", to_string(mode),
                    r.total_us / 1000.0);
    }
    std::printf("reranking 1000 candidates with Multigrain: %.1f s of "
                "A100 time\n", mg * 1000 / 1e6);
    return 0;
}
