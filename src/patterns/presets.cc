#include "patterns/presets.h"

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"

namespace multigrain {

namespace {

constexpr index_t kBlock = 64;

/// Nonzero budget per row for a density in (0, 1].
index_t
row_budget(index_t seq_len, double density)
{
    MG_CHECK(density > 0 && density <= 1) << "density must be in (0, 1]";
    return std::max<index_t>(
        4, static_cast<index_t>(static_cast<double>(seq_len) * density));
}

/// One-sided local window covering ~`budget` columns.
index_t
local_window_for(index_t budget)
{
    return std::max<index_t>(1, (budget - 1) / 2);
}

/// Blocked band radius covering ~`budget` columns at kBlock granularity
/// (rounded to the nearest odd block count).
index_t
blocked_window_for(index_t budget)
{
    const index_t blocks = (budget + kBlock / 2) / kBlock;
    return std::max<index_t>(0, blocks / 2);
}

/// The fine "R" atom of the compound presets: element-random inside a few
/// block columns per block row, as deployed random-attention configs draw
/// it (keeps the coarse-only baseline's blockification bounded, DESIGN.md).
AtomicPattern
preset_random(index_t budget, std::uint64_t seed)
{
    const index_t count = std::max<index_t>(1, budget / 10);
    const index_t clusters =
        std::max<index_t>(1, ceil_div<index_t>(count, 3));
    return AtomicPattern::clustered_random(kBlock, clusters, count, seed);
}

}  // namespace

std::vector<index_t>
spread_tokens(index_t seq_len, index_t count, std::uint64_t seed)
{
    MG_CHECK(count >= 0 && count <= seq_len) << "bad token count";
    Rng rng(seed);
    std::vector<index_t> tokens;
    tokens.reserve(static_cast<std::size_t>(count));
    if (count == 0) {
        return tokens;
    }
    const index_t stride = seq_len / count;
    for (index_t i = 0; i < count; ++i) {
        const index_t base = i * stride;
        const index_t jitter =
            stride > 1 ? rng.next_range(0, stride - 1) : 0;
        tokens.push_back(std::min(seq_len - 1, base + jitter));
    }
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    return tokens;
}

std::vector<index_t>
burst_tokens(index_t seq_len, index_t count, index_t burst,
             std::uint64_t seed)
{
    MG_CHECK(burst > 0) << "burst must be positive";
    const index_t bursts = std::max<index_t>(1, ceil_div(count, burst));
    const std::vector<index_t> starts =
        spread_tokens(seq_len, bursts, seed);
    std::vector<index_t> tokens;
    tokens.reserve(static_cast<std::size_t>(count));
    for (const index_t s : starts) {
        for (index_t i = 0;
             i < burst && static_cast<index_t>(tokens.size()) < count;
             ++i) {
            if (s + i < seq_len) {
                tokens.push_back(s + i);
            }
        }
    }
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    return tokens;
}

CompoundPattern
preset_local_selected(index_t seq_len, double density, std::uint64_t seed)
{
    const index_t budget = row_budget(seq_len, density);
    CompoundPattern p;
    p.seq_len = seq_len;
    p.atoms.push_back(
        AtomicPattern::local(local_window_for(budget * 8 / 10)));
    p.atoms.push_back(AtomicPattern::selected(
        burst_tokens(seq_len, budget * 2 / 10, 4, seed)));
    return p;
}

CompoundPattern
preset_blockedlocal_random(index_t seq_len, double density,
                           std::uint64_t seed)
{
    const index_t budget = row_budget(seq_len, density);
    CompoundPattern p;
    p.seq_len = seq_len;
    p.atoms.push_back(AtomicPattern::blocked_local(
        kBlock, blocked_window_for(budget * 9 / 10)));
    p.atoms.push_back(preset_random(budget, seed));
    return p;
}

CompoundPattern
preset_blockedrandom_random(index_t seq_len, double density,
                            std::uint64_t seed)
{
    const index_t budget = row_budget(seq_len, density);
    CompoundPattern p;
    p.seq_len = seq_len;
    const index_t blocks =
        std::max<index_t>(1, (budget * 9 / 10 + kBlock / 2) / kBlock);
    p.atoms.push_back(AtomicPattern::blocked_random(kBlock, blocks, seed));
    p.atoms.push_back(preset_random(budget, seed ^ 0x517cc1ull));
    return p;
}

CompoundPattern
preset_local_selected_global(index_t seq_len, double density,
                             std::uint64_t seed)
{
    const index_t budget = row_budget(seq_len, density);
    CompoundPattern p;
    p.seq_len = seq_len;
    const std::vector<index_t> tokens =
        burst_tokens(seq_len, budget * 2 / 10, 4, seed);
    p.atoms.push_back(
        AtomicPattern::local(local_window_for(budget * 8 / 10)));
    p.atoms.push_back(AtomicPattern::selected(tokens));
    p.atoms.push_back(AtomicPattern::global(tokens));
    return p;
}

CompoundPattern
preset_blockedlocal_random_global(index_t seq_len, double density,
                                  std::uint64_t seed)
{
    const index_t budget = row_budget(seq_len, density);
    CompoundPattern p;
    p.seq_len = seq_len;
    p.atoms.push_back(AtomicPattern::blocked_local(
        kBlock, blocked_window_for(budget * 8 / 10)));
    p.atoms.push_back(preset_random(budget, seed));
    p.atoms.push_back(AtomicPattern::global(
        burst_tokens(seq_len, budget / 10, 4, seed ^ 0xa0761dull)));
    return p;
}

std::vector<NamedPattern>
fig9_patterns(index_t seq_len, double density, std::uint64_t seed)
{
    return {
        {"L+S", preset_local_selected(seq_len, density, seed)},
        {"LB+R", preset_blockedlocal_random(seq_len, density, seed)},
        {"RB+R", preset_blockedrandom_random(seq_len, density, seed)},
        {"L+S+G", preset_local_selected_global(seq_len, density, seed)},
        {"LB+R+G",
         preset_blockedlocal_random_global(seq_len, density, seed)},
    };
}

std::vector<NamedPattern>
fig11_patterns(index_t seq_len, std::uint64_t seed)
{
    // Longformer-style window (±256 -> 9 stored blocks per row) and
    // equivalent blocked budgets.
    std::vector<NamedPattern> out;
    {
        CompoundPattern p;
        p.seq_len = seq_len;
        p.atoms.push_back(AtomicPattern::local(256));
        out.push_back({"local", std::move(p)});
    }
    {
        // QDS-flavored narrow band (the local preset above is the
        // Longformer-flavored wide one).
        CompoundPattern p;
        p.seq_len = seq_len;
        p.atoms.push_back(AtomicPattern::blocked_local(kBlock, 2));
        out.push_back({"blocked_local", std::move(p)});
    }
    {
        CompoundPattern p;
        p.seq_len = seq_len;
        p.atoms.push_back(AtomicPattern::blocked_random(kBlock, 9, seed));
        out.push_back({"blocked_random", std::move(p)});
    }
    return out;
}

}  // namespace multigrain
