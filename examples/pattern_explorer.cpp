// Pattern explorer: a small CLI for studying how the slice-and-dice
// classifier decomposes a compound pattern and what each processing method
// would pay for it on the simulated GPUs.
//
//   $ ./pattern_explorer [seq_len] [atoms...]
//
// Atom syntax (repeatable):
//   local:W            local band, one-sided reach W
//   dilated:W:S        dilated, W strides of S each side
//   global:N           N evenly spread global tokens
//   selected:N         N evenly spread selected tokens
//   random:C           ~C random columns per row
//   blockedlocal:W     dense 64-blocks, band radius W
//   blockedrandom:C    ~C random dense 64-blocks per block row
//
// Example:
//   $ ./pattern_explorer 4096 local:256 selected:40 global:40

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/attention.h"
#include "gpusim/device.h"
#include "patterns/presets.h"

using namespace multigrain;

namespace {

bool
parse_atom(const std::string &spec, index_t seq_len,
           std::vector<AtomicPattern> &atoms)
{
    const auto num = [&spec](std::size_t pos) {
        return static_cast<index_t>(
            std::strtoll(spec.c_str() + pos, nullptr, 10));
    };
    if (spec.rfind("local:", 0) == 0) {
        atoms.push_back(AtomicPattern::local(num(6)));
    } else if (spec.rfind("dilated:", 0) == 0) {
        const std::size_t colon = spec.find(':', 8);
        if (colon == std::string::npos) {
            return false;
        }
        atoms.push_back(AtomicPattern::dilated(num(8), num(colon + 1)));
    } else if (spec.rfind("global:", 0) == 0) {
        atoms.push_back(
            AtomicPattern::global(spread_tokens(seq_len, num(7), 1)));
    } else if (spec.rfind("selected:", 0) == 0) {
        atoms.push_back(
            AtomicPattern::selected(spread_tokens(seq_len, num(9), 2)));
    } else if (spec.rfind("random:", 0) == 0) {
        atoms.push_back(AtomicPattern::random(num(7), 3));
    } else if (spec.rfind("blockedlocal:", 0) == 0) {
        atoms.push_back(AtomicPattern::blocked_local(64, num(13)));
    } else if (spec.rfind("blockedrandom:", 0) == 0) {
        atoms.push_back(AtomicPattern::blocked_random(64, num(14), 4));
    } else {
        return false;
    }
    return true;
}

}  // namespace

int
main(int argc, char **argv)
{
    CompoundPattern pattern;
    pattern.seq_len = argc > 1 ? std::strtoll(argv[1], nullptr, 10) : 2048;
    for (int i = 2; i < argc; ++i) {
        if (!parse_atom(argv[i], pattern.seq_len, pattern.atoms)) {
            std::fprintf(stderr, "cannot parse atom '%s'\n", argv[i]);
            return 1;
        }
    }
    if (pattern.atoms.empty()) {
        // Default: a Longformer-flavored compound pattern.
        pattern.atoms.push_back(AtomicPattern::local(128));
        pattern.atoms.push_back(
            AtomicPattern::selected(spread_tokens(pattern.seq_len, 32, 2)));
        pattern.atoms.push_back(
            AtomicPattern::global(spread_tokens(pattern.seq_len, 32, 2)));
    }
    std::printf("pattern: %s\n\n", pattern.describe().c_str());

    AttentionConfig config;
    config.head_dim = 64;
    config.num_heads = 4;
    config.block = 64;

    std::printf("%-14s %12s %12s %12s %12s | %10s %10s\n", "method",
                "coarse nnz", "stored", "fine nnz", "global elems",
                "A100 us", "3090 us");
    for (const SliceMode mode :
         {SliceMode::kMultigrain, SliceMode::kCoarseOnly,
          SliceMode::kFineOnly}) {
        const AttentionEngine engine(pattern, config, mode);
        const SlicePlan &plan = engine.plan();
        const double a100 =
            engine.simulate(sim::DeviceSpec::a100()).total_us;
        const double rtx =
            engine.simulate(sim::DeviceSpec::rtx3090()).total_us;
        std::printf("%-14s %12lld %12lld %12lld %12lld | %10.1f %10.1f\n",
                    to_string(mode),
                    static_cast<long long>(plan.coarse_valid_elements()),
                    static_cast<long long>(plan.coarse_stored_elements()),
                    static_cast<long long>(plan.fine_elements()),
                    static_cast<long long>(plan.special_elements()), a100,
                    rtx);
    }

    const AttentionEngine mg(pattern, config, SliceMode::kMultigrain);
    const SlicePlan &plan = mg.plan();
    std::printf("\nslice & dice (multigrain):\n");
    if (plan.has_coarse()) {
        std::printf("  coarse: %lld stored blocks of %lldx%lld "
                    "(%.1f%% of stored positions are valid)\n",
                    static_cast<long long>(plan.coarse->nnz_blocks()),
                    static_cast<long long>(plan.block),
                    static_cast<long long>(plan.block),
                    100.0 * static_cast<double>(plan.coarse->total_valid()) /
                        static_cast<double>(plan.coarse->total_stored()));
    }
    if (plan.has_fine()) {
        std::printf("  fine:   %lld elements, max %lld per row\n",
                    static_cast<long long>(plan.fine->nnz()),
                    static_cast<long long>(plan.fine->max_row_nnz()));
    }
    if (plan.has_special()) {
        std::printf("  global: %zu dense rows -> CUTLASS/TensorRT path\n",
                    plan.global_rows.size());
    }
    plan.validate_partition();
    std::printf("  partition check: coarse ⊎ fine ⊎ global == full "
                "pattern ✓\n");
    return 0;
}
