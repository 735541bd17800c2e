#ifndef MULTIGRAIN_COMMON_RNG_H_
#define MULTIGRAIN_COMMON_RNG_H_

#include <cstdint>
#include <vector>

/// Deterministic pseudo-random number generation.
///
/// All stochastic pieces of the system (random sparse patterns, synthetic
/// workload generation, test data) draw from Rng so every experiment is
/// reproducible from a seed. The generator is splitmix64-seeded
/// xoshiro256**, which is small, fast, and has no dependence on libstdc++
/// distribution implementations (so streams are stable across toolchains).
namespace multigrain {

class Rng {
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /// Uniform 64-bit value.
    std::uint64_t next_u64();

    /// Uniform integer in [0, bound) via rejection sampling; bound > 0.
    std::uint64_t next_below(std::uint64_t bound);

    /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
    std::int64_t next_range(std::int64_t lo, std::int64_t hi);

    /// Uniform float in [0, 1).
    float next_float();

    /// Uniform float in [lo, hi).
    float next_float(float lo, float hi);

    /// Draws `count` distinct integers from [0, bound), sorted ascending.
    /// Requires count <= bound.
    std::vector<std::int64_t> sample_distinct(std::int64_t bound,
                                              std::int64_t count);

  private:
    std::uint64_t state_[4];
};

}  // namespace multigrain

#endif  // MULTIGRAIN_COMMON_RNG_H_
