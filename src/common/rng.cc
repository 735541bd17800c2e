#include "common/rng.h"

#include <algorithm>
#include <unordered_set>

#include "common/error.h"

namespace multigrain {

namespace {

std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : state_) {
        word = splitmix64(sm);
    }
}

std::uint64_t
Rng::next_u64()
{
    // xoshiro256** step.
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

std::uint64_t
Rng::next_below(std::uint64_t bound)
{
    MG_CHECK(bound > 0) << "next_below requires a positive bound";
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        const std::uint64_t r = next_u64();
        if (r >= threshold) {
            return r % bound;
        }
    }
}

std::int64_t
Rng::next_range(std::int64_t lo, std::int64_t hi)
{
    MG_CHECK(lo <= hi) << "next_range requires lo <= hi, got [" << lo << ", "
                       << hi << "]";
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next_below(span));
}

float
Rng::next_float()
{
    // 24 high bits give a uniform value in [0, 1) exactly representable.
    return static_cast<float>(next_u64() >> 40) * 0x1.0p-24f;
}

float
Rng::next_float(float lo, float hi)
{
    return lo + (hi - lo) * next_float();
}

std::vector<std::int64_t>
Rng::sample_distinct(std::int64_t bound, std::int64_t count)
{
    MG_CHECK(count >= 0 && count <= bound)
        << "cannot draw " << count << " distinct values below " << bound;
    std::vector<std::int64_t> result;
    result.reserve(static_cast<std::size_t>(count));
    if (count > bound / 2) {
        // Dense case: Fisher-Yates over the full range prefix.
        std::vector<std::int64_t> all(static_cast<std::size_t>(bound));
        for (std::int64_t i = 0; i < bound; ++i) {
            all[static_cast<std::size_t>(i)] = i;
        }
        for (std::int64_t i = 0; i < count; ++i) {
            const auto j = static_cast<std::int64_t>(
                next_below(static_cast<std::uint64_t>(bound - i))) + i;
            std::swap(all[static_cast<std::size_t>(i)],
                      all[static_cast<std::size_t>(j)]);
        }
        result.assign(all.begin(), all.begin() + count);
    } else {
        std::unordered_set<std::int64_t> seen;
        while (static_cast<std::int64_t>(result.size()) < count) {
            const auto v = static_cast<std::int64_t>(
                next_below(static_cast<std::uint64_t>(bound)));
            if (seen.insert(v).second) {
                result.push_back(v);
            }
        }
    }
    std::sort(result.begin(), result.end());
    return result;
}

}  // namespace multigrain
